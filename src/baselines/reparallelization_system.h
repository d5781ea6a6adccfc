/**
 * @file
 * Reparallelization baseline (§6.1).
 *
 * Changes the parallel configuration like SpotServe — it runs the same
 * Algorithm-1 optimizer and the same reconfiguration loop
 * (serving::BaseServingSystem: coalesced evaluation, design-rate floors,
 * voluntary-change gate, workload monitor), so "the configuration of
 * Reparallelization is always consistent with SpotServe" (Figure 8) —
 * but handles preemption reactively and without context migration:
 * every reconfiguration restarts all instances, reloads the model from
 * storage, and recomputes every interrupted request from scratch (the
 * Varuna-style approach).  Reconfiguration is deliberately synchronous —
 * no planning phase, no partial drain: the whole deployment stops for the
 * full restart — which is the §6.1 baseline SpotServe's overlapped
 * pipeline is measured against.  What this class adds is the reactive
 * view (every usable instance counts, notices are ignored) and the
 * restart itself.
 */

#ifndef SPOTSERVE_BASELINES_REPARALLELIZATION_SYSTEM_H
#define SPOTSERVE_BASELINES_REPARALLELIZATION_SYSTEM_H

#include <optional>

#include "serving/base_system.h"

namespace spotserve {
namespace baselines {

/** The model-reparallelization baseline. */
class ReparallelizationSystem : public serving::BaseServingSystem
{
  public:
    /** @param design_rate see BaseServingSystem. */
    ReparallelizationSystem(sim::Executor &executor,
                            cluster::InstanceManager &instances,
                            serving::RequestManager &requests,
                            const model::ModelSpec &spec,
                            const cost::CostParams &params,
                            const cost::SeqSpec &seq,
                            double design_rate = 0.0);

    std::string name() const override;

    void onInstanceReady(const cluster::Instance &instance) override;
    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override;
    void onInstancePreempted(const cluster::Instance &instance) override;
    void onInstanceReleased(const cluster::Instance &instance) override;

  protected:
    void evaluate() override;
    void onWorkloadChange(const par::ParallelConfig &config,
                          const std::string &reason) override
    {
        beginRestart(config, reason);
    }

  private:
    enum class Phase
    {
        Idle,
        Serving,
        Restarting,
    };

    void beginRestart(const par::ParallelConfig &target,
                      const std::string &reason);
    void activate();

    Phase phase_ = Phase::Idle;
    bool pendingReconfig_ = false;

    struct PendingRestart
    {
        par::ParallelConfig target;
        std::string reason;
    };
    std::optional<PendingRestart> pending_;
};

} // namespace baselines
} // namespace spotserve

#endif // SPOTSERVE_BASELINES_REPARALLELIZATION_SYSTEM_H
