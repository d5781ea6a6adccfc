/**
 * @file
 * Request-rerouting baseline (§6.1).
 *
 * Keeps a fixed, pre-defined optimal model-parallel configuration (P, M,
 * B) and only drops/adds whole inference pipelines as availability
 * changes (the MArk/Cocktail-style approach generalised to model
 * parallelism).  When an instance is preempted, every pipeline touching
 * it dies; its interrupted requests are rerouted to the surviving
 * pipelines and recomputed from scratch.  Newly acquired instances
 * rebuild pipelines after a full engine launch and weight load.
 *
 * Pipeline add/drop is synchronous by construction (there is no
 * reconfiguration to plan or migrate — surviving pipelines are simply
 * never touched), so the baseline needs no overlappedReconfig analogue;
 * it is the §6.1 comparison point for SpotServe's overlapped pipeline.
 * Of the shared reconfiguration loop (serving::BaseServingSystem) it
 * uses the controller, once, to pre-define (P, M, B), the coalesced
 * evaluation for joins, and the data plane for cold weight loads; it
 * keeps its pipelines in slots, not in the base deployment.
 */

#ifndef SPOTSERVE_BASELINES_REROUTING_SYSTEM_H
#define SPOTSERVE_BASELINES_REROUTING_SYSTEM_H

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>

#include "serving/base_system.h"

namespace spotserve {
namespace baselines {

/** The request-rerouting baseline. */
class ReroutingSystem : public serving::BaseServingSystem
{
  public:
    /** @param design_rate the workload (P, M, B) is pre-defined for. */
    ReroutingSystem(sim::Executor &executor,
                    cluster::InstanceManager &instances,
                    serving::RequestManager &requests,
                    const model::ModelSpec &spec,
                    const cost::CostParams &params, const cost::SeqSpec &seq,
                    double design_rate = 0.0);

    std::string name() const override;

    void onInstanceReady(const cluster::Instance &instance) override;
    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override;
    void onInstancePreempted(const cluster::Instance &instance) override;
    void onInstanceReleased(const cluster::Instance &instance) override;

  protected:
    /** Lock (P, M, B) once the joins seen so far allow, then assemble. */
    void evaluate() override;
    void onPipelineIdle(engine::InferencePipeline &pipeline) override;
    void handleArrival(const wl::Request &request) override;
    void dispatchPending() override { dispatchSlots(); }
    /** Rerouting keeps its pipelines in slots, not the deployment. */
    void forEachPipeline(
        const std::function<void(engine::InferencePipeline &)> &fn)
        const override;

  private:
    /** One independent inference pipeline over whole instances. */
    struct Slot
    {
        std::vector<cluster::InstanceId> members;
        std::unique_ptr<engine::InferencePipeline> pipeline;
        bool online = false;
    };

    /** Lock (P, M, B) on first use. */
    void ensureFixedConfig();

    /** Build pipelines out of pooled instances while enough are idle. */
    void assemble();

    /** Kill every slot using @p id; reroute its requests. */
    void dropSlotsUsing(cluster::InstanceId id);

    /** Dispatch queued requests to online idle slots. */
    void dispatchSlots();

    /** Instances per pipeline under the fixed parallelism. */
    int instancesPerPipeline() const;

    std::optional<par::ParallelConfig> fixed_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::deque<cluster::InstanceId> pool_;

    /**
     * Last pipeline role (0..instancesPerPipeline-1) each instance served;
     * an instance is warm for a role only if it held the same role before
     * (its resident shards match).  Any other placement reloads from
     * storage.
     */
    std::unordered_map<cluster::InstanceId, int> lastRole_;

    int nextSlotIndex_ = 0;
};

} // namespace baselines
} // namespace spotserve

#endif // SPOTSERVE_BASELINES_REROUTING_SYSTEM_H
