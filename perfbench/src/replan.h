/**
 * @file
 * One complete replan through the library's public planning API, the
 * path SpotServe runs inside a preemption grace window:
 * ParallelizationController::chooseConfig -> DeviceMapper::map ->
 * MigrationPlanner::plan -> LinkSchedule::build(transferSteps(plan)).
 *
 * A ReplanDriver owns a fleet and the context snapshot of its current
 * deployment; each availability change is applied, replanned, checked
 * against the planning invariants, and committed as the next snapshot.
 */

#ifndef PERFBENCH_REPLAN_H
#define PERFBENCH_REPLAN_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/availability_trace.h"
#include "core/controller.h"
#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "costmodel/link_schedule.h"
#include "simcore/rng.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {

using namespace spotserve;

/** One availability (or demand) change fed to the planner. */
struct FleetEvent
{
    enum class Kind
    {
        Notice, ///< count instances get a preemption notice (sources stay)
        Kill,   ///< count instances vanish with their context
        Join,   ///< count fresh instances join
        Rate,   ///< the arrival-rate estimate moves to rate
    };
    Kind kind = Kind::Notice;
    int count = 0;
    double rate = 0.0;
};

/** What one replan did and cost. */
struct ReplanRecord
{
    bool feasible = false;
    /** Target config differs from the deployed one (new D, P, M or B). */
    bool reshape = false;
    int fleet = 0;     ///< instances alive when the change arrived
    int instances = 0; ///< surviving instances the replan targets
    par::ParallelConfig config;
    /** Host milliseconds per public call and for the whole replan. @{ */
    double controllerMs = 0.0;
    double mapperMs = 0.0;
    double plannerMs = 0.0;
    double linkMs = 0.0;
    double totalMs = 0.0;
    /** @} */
    std::size_t candidates = 0;
    int linkSteps = 0;
    /** reused / (reused + moved + cold) context bytes of the plan. */
    double planReuseRatio = 0.0;
    /** Interleaved link-schedule makespan (modelled seconds). */
    double planMakespan = 0.0;
    /** Serialized-cursor makespan / interleaved makespan. */
    double interleaveGain = 0.0;
    /** PlanningLatencyModel charge for this pass (modelled seconds). */
    double modelPlanningS = 0.0;
    /** Modelled reconfiguration latency: planning charge + migration. */
    double modelLatencyS = 0.0;
    /** USD per 1e6 output tokens of the chosen config at its throughput. */
    double usdPerMtok = 0.0;
    /** Empty when every planning invariant held. */
    std::string violation;
};

class ReplanDriver
{
  public:
    /**
     * Deploy the controller's choice for @p initial_instances at
     * @p rate, packed in instance order (not timed: this is set-up).
     */
    ReplanDriver(const model::ModelSpec &spec, const cost::CostParams &params,
                 int initial_instances, double rate, std::uint64_t seed);

    /** Apply @p event, replan, check and commit.  Spans go to @p spans. */
    ReplanRecord apply(const FleetEvent &event, SpanRecorder *spans,
                       Digest &digest);

    int fleetSize() const { return static_cast<int>(alive_.size()); }
    const par::ParallelConfig &deployed() const { return deployed_; }

  private:
    /**
     * Remove @p count seeded victims from the live fleet, drawn from the
     * instances the deployment uses.
     */
    std::vector<cluster::InstanceId> pickVictims(int count);
    void addInstances(int count);
    /**
     * Snapshot of a fully migrated deployment on @p mesh; the replicas
     * hold a seeded amount of in-flight KV cache.
     */
    void commit(const par::DeviceMesh &mesh);

    model::ModelSpec spec_;
    cost::CostParams params_;
    double rate_;
    sim::Rng rng_;
    core::ParallelizationController controller_;
    core::DeviceMapper mapper_;
    core::MigrationPlanner planner_;
    cost::LinkSchedule links_;
    std::vector<std::unique_ptr<cluster::Instance>> alive_;
    int nextId_ = 0;
    par::ParallelConfig deployed_;
    engine::ContextSnapshot snapshot_;
    /** Cached tokens per deployed replica. */
    std::vector<double> replicaTokens_;
};

/**
 * The availability changes of @p trace after t = 0, as planner events
 * (notices and releases keep their sources; hard preemptions do not).
 */
std::vector<FleetEvent> eventsOfTrace(const cluster::AvailabilityTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_REPLAN_H
