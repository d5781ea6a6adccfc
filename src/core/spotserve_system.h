/**
 * @file
 * The SpotServe serving system (§3, §4).
 *
 * Orchestrates the parallelization controller (Algorithm 1), device mapper
 * (Kuhn-Munkres matching), migration planner (Algorithm 2) and
 * interruption arranger (JIT stateful recovery) into the proactive
 * reconfiguration loop:
 *
 *   availability / workload change
 *     -> controller proposes C_{t+1}      (Planning: serving continues)
 *     -> device mapper binds surviving GPUs to the new mesh
 *     -> migration planner schedules context movement
 *     -> interruption arranger drains the AFFECTED pipelines just in time
 *        (partial drain: replicas the mapping keeps in place never stop)
 *     -> context migration                (untouched replicas keep serving;
 *        the request queue rebalances onto them)
 *     -> progressive per-replica resume with recovered batches.
 *
 * Reconfiguration overlaps with serving end to end: planning is a costed,
 * scheduled event (PlanningLatencyModel) rather than an instantaneous
 * global stall, and only the replicas whose mesh members are lost or
 * reassigned drain.  Every context migration is quoted, retimed and
 * committed on the shared core::TransferDataPlane, so concurrent
 * migrations contend for links and a death of a transfer endpoint fails
 * the plan into the recovery path.  The pre-overlap behaviour —
 * instantaneous planning, whole-deployment drain — stays selectable as
 * overlappedReconfig = false for the Figure 9-style ablation.  Every
 * paper component can likewise be disabled independently.  The serving
 * engine underneath (continuous batching, KV-budget admission, paged KV,
 * prefix sharing) and the loop around the controller
 * (serving::BaseServingSystem: coalesced evaluation, design-rate floors,
 * voluntary-change gate, workload monitor) are shared with the
 * baselines; this class adds the controller ablation, dynamic fleet
 * management and the phases above.
 */

#ifndef SPOTSERVE_CORE_SPOTSERVE_SYSTEM_H
#define SPOTSERVE_CORE_SPOTSERVE_SYSTEM_H

#include <map>
#include <optional>
#include <unordered_set>

#include "core/controller.h"
#include "core/device_mapper.h"
#include "core/interruption_arranger.h"
#include "core/migration_planner.h"
#include "core/transfer_data_plane.h"
#include "serving/base_system.h"

namespace spotserve {
namespace core {

/** Feature switches and tuning for SpotServe. */
struct SpotServeOptions
{
    /** Adaptive configuration optimization (Algorithm 1). */
    bool enableController = true;

    /** Kuhn-Munkres device mapping (§3.3). */
    bool enableDeviceMapper = true;

    /** Progressive + memory-optimised migration planning (§3.4). */
    bool enableMigrationPlanner = true;

    /** JIT arrangement and cache-context migration (§4). */
    bool enableArranger = true;

    /** Engine knobs (batching, KV admission, prefix sharing). */
    serving::EngineOptions engine{};

    /**
     * Expected workload rate (requests/s) every decision floors its
     * arrival estimate at; it also sizes the very first deployment (the
     * estimator has no history at t=0).  See
     * BaseServingSystem::planningRate.
     */
    double designArrivalRate = 0.0;

    /**
     * Algorithm 1 lines 6-10 live: allocate instances when the chosen
     * configuration needs more than the fleet holds (spot, plus a
     * two-instance candidate pool) and release over-provisioned capacity
     * (on-demand first).  Off by default — the paper's experiments replay
     * pre-generated availability traces; turn on when driving a live
     * (simulated) cloud.
     */
    bool dynamicAllocation = false;

    /** Upper bound on the fleet the controller may request. */
    int maxDynamicInstances = 12;

    /**
     * Overlap reconfiguration with serving (the default, §4.1-4.2):
     * controller + mapper + planner evaluation becomes a scheduled
     * planning event costed by the PlanningLatencyModel while every
     * pipeline keeps admitting and decoding, and only the pipelines whose
     * mesh members are lost or reassigned by the mapping drain — replicas
     * the mapping keeps in place serve straight through Migrating and the
     * request queue rebalances onto them.  Disable for the synchronous
     * ablation: instantaneous (free) planning followed by a
     * whole-deployment drain, the pre-overlap behaviour.
     */
    bool overlappedReconfig = true;

    /**
     * Crash-consistent recovery from unannounced faults (hard
     * preemptions and mid-migration deaths): when an in-flight transfer
     * schedule dies, salvage the replicas whose context already landed,
     * requeue the rest, and re-plan with bounded retry (three rounds,
     * backing off 1, 2, 4 s) before a cold restart; a transfer that link
     * faults stretch past 3x its quoted makespan counts as failed.
     * Disable for the abort-and-cold-restart ablation: any mid-migration
     * failure tears the whole deployment down and pays a fresh cold
     * start.
     */
    bool faultRecovery = true;

    ControllerOptions controller{};
};

/** The SpotServe system. */
class SpotServeSystem : public serving::BaseServingSystem
{
  public:
    SpotServeSystem(sim::Executor &executor,
                    cluster::InstanceManager &instances,
                    serving::RequestManager &requests,
                    const model::ModelSpec &spec,
                    const cost::CostParams &params, const cost::SeqSpec &seq,
                    SpotServeOptions options = {});

    std::string name() const override;

    // ClusterListener
    void onInstanceReady(const cluster::Instance &instance) override;
    void onPreemptionNotice(const cluster::Instance &instance,
                            sim::SimTime preempt_at) override;
    void onInstancePreempted(const cluster::Instance &instance) override;
    void onInstanceReleased(const cluster::Instance &instance) override;

    /** Diagnostics for tests and benches. @{ */
    int migrationsCompleted() const { return migrationsCompleted_; }
    double totalMigrationStall() const { return totalMigrationStall_; }
    /** Cumulative end-to-end migration makespan (full plan spans). */
    double totalMigrationMakespan() const { return totalMigrationMakespan_; }
    double totalBytesMigrated() const { return totalBytesMigrated_; }
    double totalBytesReused() const { return totalBytesReused_; }
    /** Planning passes charged as scheduled events (overlapped mode). */
    long planningEvents() const { return planningEvents_; }
    /** Simulated seconds spent in Phase::Planning (serving continued). */
    double totalPlanningTime() const { return totalPlanningTime_; }
    /** Replicas drained for migration, cumulative over reconfigs. */
    long pipelinesDrained() const { return pipelinesDrained_; }
    /** Replicas that served straight through a reconfiguration. */
    long pipelinesKeptServing() const { return pipelinesKeptServing_; }
    /** Reconfigurations where at least one replica never stopped. */
    int partialReconfigs() const { return partialReconfigs_; }
    /** Migrations aborted by instance death, link fault, or deadline. */
    long migrationAborts() const { return migrationAborts_; }
    /** Re-plan rounds scheduled after migration failures. */
    long migrationRetries() const { return migrationRetries_; }
    /** Requests requeued through the failure-recovery paths. */
    long requestsRecovered() const { return requestsRecovered_; }
    /** KV blocks whose migrated context survived a failed plan. */
    long salvagedBlocks() const { return salvagedBlocks_; }
    /** Migrations whose schedule hit links still busy from another. */
    long contendedMigrations() const
    {
        return dataPlane_.contendedSubmissions();
    }
    /** @} */

  protected:
    void onPipelineHalted(engine::InferencePipeline &pipeline) override;
    void evaluate() override;
    /** Survivors only (noticed instances are leaving); dynamic mode
     *  first grows or shrinks the fleet for @p alpha. */
    std::optional<ControllerDecision> proposeConfig(double alpha) override;
    void onWorkloadChange(const par::ParallelConfig &config,
                          const std::string &reason) override
    {
        requestReconfig(config, reason);
    }
    bool reconfiguring() const override { return phase_ != Phase::Serving; }

  private:
    enum class Phase
    {
        Idle,      ///< No deployment (insufficient instances or startup).
        Serving,   ///< Normal operation.
        Planning,  ///< Costed planning pass in flight; serving continues.
        Draining,  ///< Arranged halts pending on the affected replicas.
        Migrating, ///< Context migration in flight; untouched replicas
                   ///< keep serving (overlapped mode).
    };

    /**
     * An instance left the cluster (preempted or released): drop its
     * notice and holdings and stop the replicas standing on it.
     */
    void loseInstance(const cluster::Instance &instance, bool preempted);

    /**
     * Route a reconfiguration decision: synchronous mode (or no live
     * deployment) commits immediately; overlapped mode enters
     * Phase::Planning and commits after the modeled planning latency,
     * re-validating the decision against the then-current fleet.
     */
    void requestReconfig(const par::ParallelConfig &target,
                         const std::string &reason);

    /** The planning pass completed: re-decide on fresh state and commit. */
    void finishPlanning(const std::string &reason);

    /**
     * The reconfiguration gate evaluate() and finishPlanning() share: the
     * config to move to, if any (no decision suspends serving).
     */
    std::optional<par::ParallelConfig>
    reconfigTarget(const std::optional<ControllerDecision> &decision,
                   double alpha);

    /** Modeled wall-clock of the planning pass just performed. */
    double planningDuration(const par::ParallelConfig &target,
                            int survivors) const;

    /** Algorithm 1 lines 6-10: grow/shrink the fleet (dynamic mode). */
    void manageFleet(double alpha);

    /** Controller-ablated fallback: fixed (P, M, B), adaptive D. */
    std::optional<ControllerDecision> fallbackDecision(int instances,
                                                       double alpha) const;

    std::optional<ControllerDecision> decide(int instances,
                                             double alpha) const;

    /** In-flight reconfiguration state. */
    struct PendingMigration
    {
        par::ParallelConfig target;
        MappingResult mapping;
        MigrationPlan plan{};
        std::vector<double> oldTokens;
        std::string reason;
        int waitingHalts = 0;
        sim::SimTime deadline = sim::kTimeInfinity;
        bool migrateCache = false;
        bool hadDeployment = false;
        /**
         * keptOldPipeline[d] = old replica whose live pipeline the new
         * replica d keeps in place (identical GPUs at identical
         * positions, same shape), or -1.  Kept replicas never drain:
         * their pipeline objects move into the new deployment at
         * activation (overlapped mode only).
         */
        std::vector<int> keptOldPipeline{};
        /** Batches assigned to each new replica at activation. */
        std::vector<std::vector<engine::ActiveRequest>> inherited{};
        /** Absolute per-replica progressive-resume times. */
        std::vector<sim::SimTime> resumeAbs{};
        /** Data-plane handle of the submitted schedule (-1: none). */
        TransferDataPlane::PlanId planId = -1;
        /** A fault hit the in-flight schedule. */
        bool hadFailure = false;
        /**
         * failedReplica[d]: replica d's context depends on a transfer
         * step that was lost — activate() requeues its inherited batch
         * instead of bringing it up on garbage.
         */
        std::vector<bool> failedReplica{};

        /** Old replica @p od serves through (every other one drains). */
        bool keeps(int od) const;
    };

    /** A quoted schedule as it will run, relative to its start. */
    struct QuotedSchedule
    {
        TransferDataPlane::Quote quote;
        double duration = 0.0;
        std::vector<double> resumes; ///< per new replica
    };

    /**
     * Kick off draining toward @p target, in named steps: the pins the
     * mapper keeps in place, the keep set, the drained work the arranger
     * weighs, and the JIT halts of the drained replicas.
     */
    void beginReconfig(const par::ParallelConfig &target,
                       const std::string &reason);
    std::vector<ReplicaPin>
    keepInPlacePins(const par::ParallelConfig &target,
                    const std::vector<const cluster::Instance *> &survivors,
                    const std::vector<double> &old_tokens) const;
    std::vector<int> keptReplicas(PendingMigration &pm,
                                  const std::vector<ReplicaPin> &pins);
    double drainedWork(const PendingMigration &pm) const;
    void arrangeHalts(double drained_work);

    /**
     * All pipelines drained: run the context migration, in named steps:
     * the quote with its §4.2 deadline fallback, and the hand-over of the
     * drained batches, trimmed to the new replicas' budgets.
     */
    void startMigration();
    QuotedSchedule quoteSchedule(PendingMigration &pm);
    void inheritBatches(PendingMigration &pm,
                        std::vector<std::vector<engine::ActiveRequest>> batches);
    void trimInherited(std::vector<engine::ActiveRequest> &batch,
                       const par::ParallelConfig &target);

    /** Migration (front) finished: install and resume. */
    void activate();

    /** The in-flight transfer schedule died (kill/timeout): recover. */
    void onMigrationFailed(long epoch,
                           const TransferDataPlane::PlanFailure &failure);

    /**
     * Whole-plan abort: requeue all inherited work and re-plan, or with
     * @p cold_restart (the faultRecovery = false ablation) tear down and
     * cold restart.
     */
    void abortFailedMigration(bool cold_restart);

    /** Retry with exponential backoff (cold restart beyond the budget). */
    void scheduleRetryEval(bool cold_restart = false);

    /** Drop notices whose instance is no longer awaiting preemption. */
    void pruneStaleNotices();

    /** The planner's switches under this system's ablations. */
    PlannerOptions plannerOptions(bool migrate_cache) const;

    /** Tear everything down and queue all work (cannot serve). */
    void suspendServing();

    SpotServeOptions options_;
    DeviceMapper mapper_;
    MigrationPlanner planner_;
    InterruptionArranger arranger_;

    Phase phase_ = Phase::Idle;
    bool pendingReconfig_ = false;
    /** True while halts are arranged or a victim's replicas stop. */
    bool arrangingHalts_ = false;
    sim::SimTime migrationTailUntil_ = 0.0;

    /**
     * Active preemption notices: instance -> preemption time.  Ordered
     * map on purpose: pruneStaleNotices() and the planning-deadline scan
     * iterate it, and this map feeds the golden-hash timeline — an
     * unordered container here is exactly the bug class the
     * determinism lint's unordered-iteration rule bans in src/core.
     */
    std::map<cluster::InstanceId, sim::SimTime> notices_;

    std::optional<PendingMigration> pending_;

    /** Bumped at every activation; guards deferred replica start events. */
    long deployEpoch_ = 0;

    /** Bumped at every startMigration; guards failure callbacks. */
    long migrationEpoch_ = 0;

    /** Consecutive failed re-plan rounds (reset on clean activation). */
    int migrationRetryCount_ = 0;

    /** Fixed parallelism once chosen (controller ablation). */
    mutable std::optional<par::ParallelConfig> fixedParallelism_;

    int migrationsCompleted_ = 0;
    double totalMigrationStall_ = 0.0;
    double totalMigrationMakespan_ = 0.0;
    double totalBytesMigrated_ = 0.0;
    double totalBytesReused_ = 0.0;
    long planningEvents_ = 0;
    double totalPlanningTime_ = 0.0;
    long pipelinesDrained_ = 0;
    long pipelinesKeptServing_ = 0;
    int partialReconfigs_ = 0;
    long migrationAborts_ = 0;
    long migrationRetries_ = 0;
    long requestsRecovered_ = 0;
    long salvagedBlocks_ = 0;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_SPOTSERVE_SYSTEM_H
