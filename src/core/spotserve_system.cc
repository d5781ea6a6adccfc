#include "core/spotserve_system.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "costmodel/planning_latency_model.h"
#include "simcore/logging.h"

namespace spotserve {
namespace core {

namespace {

/**
 * Spare instances dynamic mode keeps "as a candidate pool for smoother
 * instance substitution" (§3.2; the paper keeps two).
 */
constexpr int kCandidatePoolSize = 2;

/** Re-plan attempts after a failed migration before a cold restart. */
constexpr int kMigrationMaxRetries = 3;

/** Base seconds of the exponential retry backoff (base * 2^k). */
constexpr double kMigrationRetryBackoff = 1.0;

/**
 * Per-plan deadline as a multiple of the quoted link-schedule makespan:
 * a transfer stretched past it by link faults is failed and re-planned
 * instead of stalling the reconfiguration forever.
 */
constexpr double kMigrationDeadlineFactor = 3.0;

/**
 * A live pipeline can only be kept in place when the replica shape is
 * unchanged (its object serves the exact same (P, M, B) geometry).
 */
bool
sameShape(const par::ParallelConfig &a, const par::ParallelConfig &b)
{
    return a.pp == b.pp && a.tp == b.tp && a.batch == b.batch;
}

} // namespace

SpotServeSystem::SpotServeSystem(sim::Executor &executor,
                                 cluster::InstanceManager &instances,
                                 serving::RequestManager &requests,
                                 const model::ModelSpec &spec,
                                 const cost::CostParams &params,
                                 const cost::SeqSpec &seq,
                                 SpotServeOptions options)
    : BaseServingSystem(executor, instances, requests, spec, params, seq,
                        options.designArrivalRate, options.engine,
                        [&options] {
                            // Ablating the memory-optimised planner also
                            // sizes the KV budget for naive double
                            // buffering.
                            cost::ConfigSpaceOptions so;
                            so.memOptPlanner = options.enableMigrationPlanner;
                            return so;
                        }(),
                        options.controller),
      options_(options),
      mapper_(spec, params,
              DeviceMapperOptions{options.enableDeviceMapper,
                                  options.enableArranger,
                                  /*identityFastPath=*/true}),
      planner_(spec, params), arranger_(latency_)
{
    startWorkloadMonitor();
    if (options_.dynamicAllocation) {
        // Nothing may ever join on its own in dynamic mode: bootstrap the
        // fleet from the declared workload.
        scheduleEval();
    }
}

std::string
SpotServeSystem::name() const
{
    // The synchronous-reconfiguration ablation names itself so bench
    // tables and logs stay unambiguous.
    return options_.overlappedReconfig ? "SpotServe" : "SpotServe-sync";
}

void
SpotServeSystem::onInstanceReady(const cluster::Instance &)
{
    scheduleEval();
}

void
SpotServeSystem::onPreemptionNotice(const cluster::Instance &instance,
                                    sim::SimTime preempt_at)
{
    notices_[instance.id()] = preempt_at;
    scheduleEval();
}

void
SpotServeSystem::onInstancePreempted(const cluster::Instance &instance)
{
    loseInstance(instance, /*preempted=*/true);
}

void
SpotServeSystem::onInstanceReleased(const cluster::Instance &instance)
{
    loseInstance(instance, /*preempted=*/false);
}

void
SpotServeSystem::loseInstance(const cluster::Instance &instance,
                              bool preempted)
{
    // The instance's notice, if any, is over (a noticed instance can also
    // be released before its preemption fires); a stale one would pin
    // every later reconfiguration to a dead deadline.
    const bool noticed = notices_.erase(instance.id()) > 0;
    forgetInstance(instance.id());
    // An unannounced (hard) death is the only one the migration plan did
    // not see coming: announced victims die exactly when the §4.2
    // deadline fallback modeled, so their in-flight schedules keep their
    // committed timeline; a hard kill voids every in-flight transfer the
    // victim still carries and fires the plans' failure callbacks.
    if (preempted && !noticed)
        dataPlane_.failInstance(instance.id());

    // Normal path: the grace-period migration already moved everything
    // off the victim.  The rest handles the fault-tolerance cases (§4.2):
    // the victim was still serving (including through an overlapped
    // planning pass), or it was a planned member of the in-flight
    // migration target.  A release off the old mesh mid-migration leaves
    // the migration as planned: activate() revalidates the target side.
    const bool on_mesh = hasDeployment() && meshUsesInstance(instance.id());
    const bool serving =
        phase_ == Phase::Serving || phase_ == Phase::Planning;
    const bool migrating =
        (phase_ == Phase::Draining || phase_ == Phase::Migrating) &&
        pending_;
    if (!(serving && on_mesh) && !(migrating && (preempted || on_mesh)))
        return;
    // The victim's replicas lose their cache context — including, in
    // overlapped mode, the unaffected replicas still serving on the old
    // mesh through the transition.  A victim that was still draining
    // fires onPipelineHalted from inside removePipeline, so the
    // all-drained transition is deferred past the loop exactly like the
    // arrangement loop defers it.
    if (on_mesh && (serving || options_.overlappedReconfig)) {
        arrangingHalts_ = true;
        for (int d : pipelinesUsingInstance(instance.id()))
            restartAndRequeue(removePipeline(d));
        arrangingHalts_ = false;
    }
    if (serving) {
        scheduleEval();
        return;
    }
    if (phase_ == Phase::Draining && pending_->waitingHalts <= 0)
        startMigration();
    pendingReconfig_ = true;
}

std::optional<ControllerDecision>
SpotServeSystem::fallbackDecision(int instances, double alpha) const
{
    if (!fixedParallelism_) {
        // Lock the parallelism the full controller would pick first.
        auto d = controller_.chooseConfig(instances, alpha);
        if (!d)
            return std::nullopt;
        fixedParallelism_ = d->config;
    }
    // No adaptive optimization: keep the locked configuration, shrinking
    // the replica count only when the fleet cannot host it.
    par::ParallelConfig c = *fixedParallelism_;
    const int dp =
        std::min(c.dp, maxReplicas(c.pp, c.tp, instances));
    if (dp < 1)
        return std::nullopt;
    c.dp = dp;
    ControllerDecision dec;
    dec.config = c;
    dec.throughput = controller_.throughputModel().throughput(c, seq_);
    dec.estimatedLatency = controller_.throughputModel().requestLatency(
        c, seq_, alpha, controller_.options().arrivalCv);
    dec.meetsDemand = dec.throughput >= alpha;
    dec.instancesNeeded = controller_.space().instancesNeeded(c);
    return dec;
}

std::optional<ControllerDecision>
SpotServeSystem::decide(int instances, double alpha) const
{
    if (!options_.enableController)
        return fallbackDecision(instances, alpha);
    return controller_.chooseConfig(instances, alpha);
}

std::optional<ControllerDecision>
SpotServeSystem::proposeConfig(double alpha)
{
    if (options_.dynamicAllocation)
        manageFleet(alpha);
    return decide(static_cast<int>(instances_.survivingInstances().size()),
                  alpha);
}

void
SpotServeSystem::pruneStaleNotices()
{
    // Defensive sweep behind the event-driven erasures: any notice whose
    // instance is not actually awaiting preemption (dead, released, or
    // somehow running again) must not bound planning deadlines.
    for (auto it = notices_.begin(); it != notices_.end();) {
        const auto *inst = instances_.get(it->first);
        if (!inst ||
            inst->state() != cluster::InstanceState::GracePeriod) {
            it = notices_.erase(it);
        } else {
            ++it;
        }
    }
}

void
SpotServeSystem::evaluate()
{
    pruneStaleNotices();
    if (phase_ == Phase::Planning) {
        // A planning pass is in flight; it re-reads the fleet state when
        // it commits, so this trigger is already covered.
        return;
    }
    if (phase_ == Phase::Draining || phase_ == Phase::Migrating) {
        pendingReconfig_ = true;
        return;
    }
    if (sim_.now() < migrationTailUntil_) {
        // The previous migration's tail transfers are still on the wire;
        // re-evaluate once they finish.
        scheduleEvalAt(migrationTailUntil_);
        return;
    }

    const double alpha = planningRate();
    if (const auto target = reconfigTarget(proposeConfig(alpha), alpha)) {
        requestReconfig(*target, hasDeployment() ? "availability change"
                                                 : "initial deployment");
    }
}

std::optional<par::ParallelConfig>
SpotServeSystem::reconfigTarget(
    const std::optional<ControllerDecision> &decision, double alpha)
{
    if (!decision) {
        if (hasDeployment() || phase_ != Phase::Idle)
            suspendServing();
        return std::nullopt;
    }
    // Forced remap: no deployment yet, a mesh member is dying or gone, or
    // a replica is broken ("this step is still necessary ... since
    // memberships update", §3.2).
    if (!hasDeployment())
        return decision->config;
    for (cluster::InstanceId id : meshInstances()) {
        const auto *inst = instances_.get(id);
        if (!inst || inst->state() != cluster::InstanceState::Running)
            return decision->config;
    }
    for (const auto &p : deployment().pipelines) {
        if (!p)
            return decision->config;
    }
    // Voluntary change (e.g. new capacity joined): only worth a
    // reconfiguration when the deployment is struggling or the win is
    // substantial; otherwise the newcomers wait in the candidate pool.
    if (!worthReconfiguring(*decision, alpha))
        return std::nullopt;
    return decision->config;
}

double
SpotServeSystem::planningDuration(const par::ParallelConfig &target,
                                  int survivors) const
{
    const auto &stats = controller_.lastSweepStats();
    const int gpi = params_.gpusPerInstance;
    const int slots = (target.totalGpus() + gpi - 1) / gpi;
    // Only a membership-only remap hits the mapper's identity fast path:
    // the target must equal the deployed config AND every mesh member
    // must still be a survivor — a forced remap after a loss runs the
    // full two-step Hungarian solve even when the config is unchanged,
    // and must be charged for it.
    bool identity = hasDeployment() && deployment().config == target;
    if (identity) {
        for (cluster::InstanceId id : meshInstances()) {
            const auto *inst = instances_.get(id);
            if (!inst || inst->state() != cluster::InstanceState::Running ||
                notices_.find(id) != notices_.end()) {
                identity = false;
            }
        }
    }
    return cost::PlanningLatencyModel::totalTime(
        stats.candidates, stats.coldEvals, survivors, slots, identity,
        spec_.numLayers(), survivors * gpi);
}

void
SpotServeSystem::requestReconfig(const par::ParallelConfig &target,
                                 const std::string &reason)
{
    if (!options_.overlappedReconfig || !hasDeployment()) {
        // Synchronous ablation — or nothing is serving, so there is
        // nothing to overlap the planning pass with.
        beginReconfig(target, reason);
        return;
    }
    if (phase_ != Phase::Serving)
        return;
    // Overlapped mode: the evaluation that just ran costs real wall-clock
    // on a real controller; charge it as a scheduled planning event while
    // every pipeline keeps admitting and decoding.  The commit re-reads
    // the fleet, so changes that land during the pass are honoured.
    phase_ = Phase::Planning;
    const double duration = planningDuration(
        target, static_cast<int>(instances_.survivingInstances().size()));
    ++planningEvents_;
    totalPlanningTime_ += duration;
    sim_.scheduleAfter(duration, [this, reason] { finishPlanning(reason); });
}

void
SpotServeSystem::finishPlanning(const std::string &reason)
{
    if (phase_ != Phase::Planning)
        return;
    phase_ = Phase::Serving;
    // Re-validate the decision against the fleet as it stands now: joins,
    // notices or preemptions may have landed while the pass ran (and the
    // trigger may have evaporated).
    const double alpha = planningRate();
    const auto target = reconfigTarget(
        decide(static_cast<int>(instances_.survivingInstances().size()),
               alpha),
        alpha);
    if (target)
        beginReconfig(*target, reason);
}

void
SpotServeSystem::manageFleet(double alpha)
{
    // What would we run if the cloud granted everything we asked for?
    const auto desired = decide(options_.maxDynamicInstances, alpha);
    if (!desired)
        return;
    const int want = std::min(options_.maxDynamicInstances,
                              desired->instancesNeeded + kCandidatePoolSize);
    const int have = instances_.planningCount();
    if (have < want) {
        // Line 8: allocate spot capacity immediately; instances join after
        // the acquisition lead time and trigger another evaluation.
        instances_.requestInstances(want - have, cluster::InstanceType::Spot);
    } else if (have > want) {
        // Line 10: release over-provisioned capacity (on-demand first),
        // but never an instance the active mesh is standing on.
        int excess = have - want;
        auto release_idle = [&](cluster::InstanceType type) {
            auto usable = instances_.usableInstances();
            for (auto it = usable.rbegin();
                 it != usable.rend() && excess > 0; ++it) {
                const auto *inst = *it;
                if (inst->type() != type ||
                    inst->state() != cluster::InstanceState::Running ||
                    meshUsesInstance(inst->id())) {
                    continue;
                }
                instances_.releaseInstance(inst->id());
                --excess;
            }
        };
        release_idle(cluster::InstanceType::OnDemand);
        release_idle(cluster::InstanceType::Spot);
    }
}

PlannerOptions
SpotServeSystem::plannerOptions(bool migrate_cache) const
{
    PlannerOptions popts;
    popts.progressive = options_.enableMigrationPlanner;
    popts.memoryOpt = options_.enableMigrationPlanner;
    popts.migrateCache = migrate_cache;
    return popts;
}

bool
SpotServeSystem::PendingMigration::keeps(int od) const
{
    return std::find(keptOldPipeline.begin(), keptOldPipeline.end(), od) !=
           keptOldPipeline.end();
}

void
SpotServeSystem::beginReconfig(const par::ParallelConfig &target,
                               const std::string &reason)
{
    const auto survivors = instances_.survivingInstances();
    const auto snapshot = snapshotContext();

    auto old_tokens = replicaCacheTokens();
    const auto pins = keepInPlacePins(target, survivors, old_tokens);
    auto mapping = mapper_.map(snapshot, target, survivors, old_tokens, pins);
    pending_ = PendingMigration{.target = target,
                                .mapping = std::move(mapping),
                                .oldTokens = std::move(old_tokens),
                                .reason = reason,
                                .hadDeployment = hasDeployment()};
    auto &pm = *pending_;
    // Earliest active preemption deadline bounds the whole reconfig.
    for (const auto &[id, at] : notices_)
        pm.deadline = std::min(pm.deadline, at);
    pm.keptOldPipeline = keptReplicas(pm, pins);

    // Arranger: migrate the cache only when moving it beats recomputing
    // the drained work; on a flip the planner assembles the no-cache plan
    // from the same analysis pass.
    const double drained_work = drainedWork(pm);
    pm.plan = planner_.plan(
        snapshot, pm.mapping, target, pm.oldTokens,
        plannerOptions(options_.enableArranger),
        [&](const MigrationPlan &with_cache) {
            pm.migrateCache = options_.enableArranger &&
                              with_cache.totalDuration < drained_work;
            return pm.migrateCache;
        });

    phase_ = Phase::Draining;
    if (!hasDeployment()) {
        startMigration();
        return;
    }
    arrangeHalts(drained_work);
}

std::vector<ReplicaPin>
SpotServeSystem::keepInPlacePins(
    const par::ParallelConfig &target,
    const std::vector<const cluster::Instance *> &survivors,
    const std::vector<double> &old_tokens) const
{
    // Pin every live replica whose members all survive under an unchanged
    // (P, M, B) shape (only then can its pipeline object serve the new
    // geometry): model-context weights tie across same-shape replicas, so
    // without pins the Hungarian solve may mix stages from different old
    // replicas into one new replica — zero reuse gain, but every live
    // pipeline broken.  Pinned replicas are the partial-drain keep set.
    std::vector<ReplicaPin> pins;
    if (!options_.overlappedReconfig || !hasDeployment())
        return pins;
    const auto &dep = deployment();
    if (!sameShape(dep.config, target) ||
        (target.pp * target.tp) % params_.gpusPerInstance != 0)
        return pins;
    std::unordered_set<cluster::InstanceId> surv;
    for (const auto *inst : survivors)
        surv.insert(inst->id());
    std::vector<int> keepable;
    for (std::size_t od = 0; od < dep.pipelines.size(); ++od) {
        if (!dep.pipelines[od])
            continue;
        bool alive = true;
        for (par::GpuId g : dep.mesh.pipelineGpus(static_cast<int>(od))) {
            if (surv.find(cluster::Instance::instanceOfGpu(
                    g, params_.gpusPerInstance)) == surv.end())
                alive = false;
        }
        if (alive)
            keepable.push_back(static_cast<int>(od));
    }
    if (static_cast<int>(keepable.size()) > target.dp) {
        // More survivors than target slots: keep the most progressed
        // batches serving (§3.3).
        std::stable_sort(keepable.begin(), keepable.end(),
                         [&](int a, int b) {
                             return old_tokens[a] > old_tokens[b];
                         });
        keepable.resize(target.dp);
    }
    std::sort(keepable.begin(), keepable.end());
    for (int od : keepable) {
        ReplicaPin pin;
        pin.newReplica = static_cast<int>(pins.size());
        pin.oldReplica = od;
        pin.gpus = dep.mesh.pipelineGpus(od);
        pins.push_back(std::move(pin));
    }
    return pins;
}

std::vector<int>
SpotServeSystem::keptReplicas(PendingMigration &pm,
                              const std::vector<ReplicaPin> &pins)
{
    // Partial drain (overlapped mode): a new replica whose GPUs the
    // mapping keeps exactly in place, under an unchanged (P, M, B) shape,
    // never needs to stop — its model context, cache context and live
    // batch are already where the target wants them.
    std::vector<int> kept(pm.target.dp, -1);
    if (!options_.overlappedReconfig || !hasDeployment())
        return kept;
    // The mapper bound the pins verbatim and set their inheritance; the
    // kept set IS the pin set.
    for (const auto &pin : pins)
        kept[pin.newReplica] = pin.oldReplica;
    const auto &dep = deployment();
    if (!pins.empty() || !sameShape(dep.config, pm.target))
        return kept;
    // No pins were eligible (e.g. sub-instance replicas), but the identity
    // fast path or the free solve may still have kept placements in place
    // — detect them and pin their inheritance to themselves so their batch
    // stays put.
    const int old_dp = static_cast<int>(dep.pipelines.size());
    std::vector<bool> claimed(old_dp, false);
    std::vector<std::pair<int, int>> kept_pairs;
    for (int d = 0; d < pm.target.dp; ++d) {
        const auto gpus = pm.mapping.mesh.pipelineGpus(d);
        for (int od = 0; od < old_dp; ++od) {
            if (claimed[od] || !dep.pipelines[od] ||
                dep.mesh.pipelineGpus(od) != gpus)
                continue;
            kept[d] = od;
            claimed[od] = true;
            kept_pairs.emplace_back(d, od);
            break;
        }
    }
    if (!kept_pairs.empty()) {
        pm.mapping.inheritedOldPipeline =
            mapper_.planInheritance(pm.target.dp, pm.oldTokens, kept_pairs);
    }
    return kept;
}

double
SpotServeSystem::drainedWork(const PendingMigration &pm) const
{
    // Only drained batches migrate, so only they count.  Continuous
    // batching: progress differs per request, so a batch is worth its
    // most-progressed member's recompute time.
    double work = 0.0;
    if (!hasDeployment())
        return work;
    const auto &dep = deployment();
    for (std::size_t od = 0; od < dep.pipelines.size(); ++od) {
        const auto &p = dep.pipelines[od];
        if (!p || p->batch().empty() || pm.keeps(static_cast<int>(od)))
            continue;
        par::ParallelConfig c = dep.config;
        c.batch = static_cast<int>(p->batch().size());
        for (const auto &r : p->batch()) {
            work = std::max(work, arranger_.recomputeTime(
                                      c, r.request.inputLen,
                                      r.committedTokens));
        }
    }
    return work;
}

void
SpotServeSystem::arrangeHalts(double drained_work)
{
    auto &dep = deployment();
    int waiting = 0;
    int kept_live = 0;
    for (std::size_t od = 0; od < dep.pipelines.size(); ++od) {
        if (dep.pipelines[od])
            ++(pending_->keeps(static_cast<int>(od)) ? kept_live : waiting);
    }
    pending_->waitingHalts = waiting;
    pipelinesDrained_ += waiting;
    pipelinesKeptServing_ += kept_live;
    if (kept_live > 0)
        ++partialReconfigs_;
    if (waiting == 0) {
        startMigration();
        return;
    }

    const double remaining_grace =
        pending_->deadline == sim::kTimeInfinity
            ? 0.0
            : pending_->deadline - sim_.now();

    // Defer the all-halted transition until the arrangement loop is done:
    // synchronous halts would otherwise tear the deployment down while we
    // are still iterating its pipelines.
    arrangingHalts_ = true;
    for (std::size_t od = 0; od < dep.pipelines.size(); ++od) {
        auto &p = dep.pipelines[od];
        if (!p || pending_->keeps(static_cast<int>(od)))
            continue; // kept replicas serve straight through
        if (!options_.enableArranger) {
            // Ablated: suspend immediately; in-flight work is lost.
            haltPipelineNow(*p);
            continue;
        }
        int iters = 0;
        if (p->executing() && remaining_grace > 0.0) {
            // JIT (§4.1): keep decoding as long as the grace period
            // allows.  Mixed-progress batch: time iterations at the
            // longest context (slowest, conservative), but budget them by
            // the largest remaining output — early finishers leave the
            // batch individually, so the drain may keep decoding for the
            // rest.
            par::ParallelConfig c = dep.config;
            c.batch = static_cast<int>(p->batch().size());
            int max_ctx = 0;
            int max_remaining = 0;
            for (const auto &r : p->batch()) {
                max_ctx = std::max(max_ctx, r.request.inputLen +
                                                r.committedTokens + 1);
                max_remaining = std::max(
                    max_remaining, r.request.outputLen - r.committedTokens);
            }
            iters = arranger_
                        .arrangeForPreemption(c, max_ctx, max_remaining,
                                              drained_work, remaining_grace,
                                              pending_->plan.totalDuration)
                        .iterations;
        }
        haltPipeline(*p, iters);
    }
    arrangingHalts_ = false;
    if (pending_ && pending_->waitingHalts <= 0)
        startMigration();
}

void
SpotServeSystem::onPipelineHalted(engine::InferencePipeline &pipeline)
{
    if (phase_ != Phase::Draining || !pending_)
        return;
    // Partial drain: only affected replicas count toward the all-drained
    // barrier.  (An unaffected replica can only halt here through the
    // §4.2 victim cleanup, which requeues its work.)
    if (hasDeployment() && pending_->keeps(pipeline.index()))
        return;
    if (--pending_->waitingHalts <= 0 && !arrangingHalts_)
        startMigration();
}

void
SpotServeSystem::startMigration()
{
    if (phase_ != Phase::Draining)
        return;
    phase_ = Phase::Migrating;
    auto &pm = *pending_;
    const long fault_epoch = ++migrationEpoch_;
    pm.failedReplica.assign(pm.target.dp, false);

    // Collect the halted batches of the affected replicas.  Kept replicas
    // stay live inside the old deployment and keep serving (the request
    // manager rebalances the queue onto them via dispatchAll) until
    // activation adopts their pipeline objects.
    std::vector<std::vector<engine::ActiveRequest>> batches;
    if (hasDeployment()) {
        batches.resize(deployment().pipelines.size());
        for (std::size_t od = 0; od < batches.size(); ++od) {
            if (!pm.keeps(static_cast<int>(od)))
                batches[od] = removePipeline(static_cast<int>(od));
        }
        if (std::all_of(pm.keptOldPipeline.begin(), pm.keptOldPipeline.end(),
                        [](int od) { return od < 0; }))
            clearDeployment();
    }

    auto sched = quoteSchedule(pm);
    pm.resumeAbs.resize(pm.target.dp);
    double first_resume = sched.duration;
    double affected_resume = 0.0;
    bool any_affected = false;
    for (int d = 0; d < pm.target.dp; ++d) {
        if (pm.keptOldPipeline[d] >= 0) {
            // Kept replicas never stop; they are "resumed" already.
            pm.resumeAbs[d] = sim_.now();
            continue;
        }
        pm.resumeAbs[d] = sim_.now() + sched.resumes[d];
        first_resume = std::min(first_resume, sched.resumes[d]);
        affected_resume = std::max(affected_resume, sched.resumes[d]);
        any_affected = true;
    }
    if (!any_affected)
        first_resume = 0.0; // membership-only relabel: activate now

    inheritBatches(pm, std::move(batches));

    totalBytesMigrated_ += pm.plan.movedModelBytes + pm.plan.movedCacheBytes;
    totalBytesReused_ += pm.plan.reusedBytes;
    // Only the affected replicas ever stalled: the serving stall of this
    // reconfiguration is their critical path, not the full plan span.
    totalMigrationStall_ += affected_resume;
    totalMigrationMakespan_ += sched.duration;
    migrationTailUntil_ = sim_.now() + sched.duration;

    // Commit the schedule: the data plane reserves every link slice it
    // occupies, so a migration submitted while this one drains is quoted
    // — and executed — behind (or interleaved around) it.  The failure
    // callback makes the transfer crash-consistent: an unannounced death
    // of a source/destination, or a link fault stretching the plan past
    // its deadline, aborts into the recovery path instead of pretending
    // the context landed.
    TransferDataPlane::SubmitOptions so;
    so.onFail = [this, fault_epoch](
                    const TransferDataPlane::PlanFailure &failure) {
        onMigrationFailed(fault_epoch, failure);
    };
    // Headroom over the quoted makespan: only a link fault that stretches
    // the realized schedule can trip the deadline.
    so.deadline =
        kMigrationDeadlineFactor * std::max(pm.plan.totalDuration, 1.0);
    pm.planId = dataPlane_.submit(std::move(sched.quote), std::move(so)).planId;

    // Activate as soon as the first affected replica's context is ready;
    // the rest come online at their own progressive-resume times and the
    // kept replicas never left.
    sim_.scheduleAfter(first_resume, [this] { activate(); });
}

SpotServeSystem::QuotedSchedule
SpotServeSystem::quoteSchedule(PendingMigration &pm)
{
    // Quote the plan against the data plane's *current* link state: a
    // previous migration's tail may still occupy NIC/disk ports, and the
    // quote (not the planner's idle-link estimate) is what the §4.2
    // deadline decision below must judge.  The plan's step offsets,
    // stageReady and per-replica resumes are re-derived from the quoted
    // step finishes, so contention propagates into the activation events.
    // A plan whose interleaved schedule could not beat the serialized
    // cursor still runs through the data plane, just with per-step wire
    // barriers.  The last quote taken is what startMigration commits.
    PlannerOptions popts = plannerOptions(pm.migrateCache);
    QuotedSchedule sched;
    auto quote_plan = [&] {
        sched.quote = dataPlane_.preview(
            MigrationPlanner::transferSteps(pm.plan),
            params_.migrationSetupTime, pm.plan.linkScheduled);
        planner_.retime(pm.plan, pm.target, popts, sched.quote.stepStart,
                        sched.quote.stepFinish);
        sched.duration = pm.plan.totalDuration;
        sched.resumes = pm.plan.pipelineResume;
        if (sched.resumes.empty())
            sched.resumes.assign(pm.target.dp, pm.plan.resumeOffset);
    };
    quote_plan();

    // Fault tolerance (§4.2): if the plan cannot finish inside the
    // earliest grace deadline, first give up the cache context; weights
    // that still cannot move in time reload from cloud storage at disk
    // bandwidth.  Unlike the arranger's flip (which happens at planning
    // time and reuses that planning pass's analysis), this fallback fires
    // after the drain consumed most of the grace period, so it re-plans
    // against the *current* holdings — a migration source may have died
    // since beginReconfig and the schedule must not pretend otherwise.
    const double remaining = pm.deadline - sim_.now();
    if (pm.deadline != sim::kTimeInfinity && sched.duration > remaining) {
        if (pm.plan.cacheMigrated) {
            popts.migrateCache = false;
            pm.plan = planner_.plan(snapshotContext(), pm.mapping, pm.target,
                                    pm.oldTokens, popts);
            quote_plan();
        }
        if (sched.duration > remaining && remaining >= 0.0) {
            const double overflow = sched.duration - remaining;
            const double slowdown =
                params_.interBandwidth / params_.diskBandwidth;
            sched.duration = remaining + overflow * slowdown;
            sched.resumes.assign(pm.target.dp, sched.duration);
        }
    }

    // A deployment built from nothing also pays the engine launch.
    if (!pm.hadDeployment) {
        sched.duration += params_.engineRestartTime;
        for (double &r : sched.resumes)
            r += params_.engineRestartTime;
    }
    return sched;
}

void
SpotServeSystem::inheritBatches(
    PendingMigration &pm,
    std::vector<std::vector<engine::ActiveRequest>> batches)
{
    pm.inherited.assign(pm.target.dp, {});
    std::vector<bool> consumed(batches.size(), false);
    for (int od : pm.keptOldPipeline) {
        if (od >= 0 && od < static_cast<int>(consumed.size()))
            consumed[od] = true; // batch stayed inside the live pipeline
    }
    // The plan carries the cache only when the arranger kept it and the
    // §4.2 deadline fallback did not drop it.
    for (int d = 0; pm.plan.cacheMigrated && d < pm.target.dp; ++d) {
        if (pm.keptOldPipeline[d] >= 0)
            continue; // serving through; nothing to hand over
        const int od = pm.mapping.inheritedOldPipeline[d];
        if (od < 0 || od >= static_cast<int>(batches.size()))
            continue;
        consumed[od] = true;
        // Continuous batching drains mixed-progress batches: recover each
        // request's committed KV individually — decode tokens and prefill
        // chunks alike.  Requests with any committed KV ride in the
        // inherited batch of the replica that receives their cache, so
        // the chunk KV stays accounted against that replica's budget from
        // the moment it activates (a mid-prefill request resumes from its
        // last chunk there).  Requests that never committed anything
        // recompute from the queue.
        std::vector<engine::ActiveRequest> recovered;
        std::vector<engine::ActiveRequest> lost;
        for (auto &r : batches[od])
            (r.kvTokensHeld() > 0 ? recovered : lost).push_back(std::move(r));
        batches[od].clear();
        restartAndRequeue(std::move(lost));
        trimInherited(recovered, pm.target);
        pm.inherited[d] = std::move(recovered);
    }
    for (std::size_t od = 0; od < batches.size(); ++od) {
        if (!consumed[od] && !batches[od].empty())
            restartAndRequeue(std::move(batches[od]));
    }
}

void
SpotServeSystem::trimInherited(std::vector<engine::ActiveRequest> &batch,
                               const par::ParallelConfig &target)
{
    // The new configuration may hold fewer concurrent requests (batch
    // slots) or less KV cache (token budget): keep the most-progressed
    // cache contexts, displaced ones recompute (§3.3).  Requests are
    // charged under the active admission mode, so an optimistic
    // deployment inherits as many cache contexts as their charges say fit
    // — predicted footprints for never-restarted requests (mid-prefill
    // ones included), full worst-case peaks for previously restarted ones
    // (the storm guard applies across reconfigurations too).
    std::stable_sort(batch.begin(), batch.end(),
                     [](const engine::ActiveRequest &a,
                        const engine::ActiveRequest &b) {
                         return a.kvTokensHeld() > b.kvTokensHeld();
                     });
    // Trimming charges whole KV blocks against the inheriting replica's
    // block budget — the same denomination every admission path uses, so
    // an inherited mid-prefill batch can never stand on more blocks than
    // the new replica's paged allocator could hand out.
    const long budget = replicaKvBudgetBlocks(target);
    const int blk = effectiveKvBlockTokens(target);
    const engine::KvAdmissionMode mode = engineOptions().kvAdmissionMode;
    // With prefix sharing the inheriting replica holds (and the migration
    // transfers) each complete shared prefix block once for the whole
    // cohort: later members carrying a (class, level) pair an earlier
    // kept member already brought are not charged for it again.  The
    // store re-attaches the inherited batch with exactly this dedup, so
    // the trim matches what the replica will really hold.  A member
    // carries its class's levels [0, n), so the cohort's levels of a
    // class are [0, most carried so far) and the overlap with a new
    // member is the smaller of the two counts.
    std::vector<std::pair<int, long>> cohort_levels;
    long charged = 0;
    std::size_t keep = 0;
    while (keep < batch.size() && static_cast<int>(keep) < target.batch) {
        const auto &r = batch[keep];
        long charge = r.kvChargedBlocks(mode, blk);
        if (engineOptions().prefixSharing && r.request.prefixId >= 0) {
            const long levels =
                std::min<long>(r.kvTokensHeld(), r.request.prefixLen) / blk;
            auto cls = std::find_if(cohort_levels.begin(),
                                    cohort_levels.end(), [&r](const auto &c) {
                                        return c.first == r.request.prefixId;
                                    });
            if (cls == cohort_levels.end())
                cls = cohort_levels.insert(cohort_levels.end(),
                                           {r.request.prefixId, 0L});
            // Blocks already carried by the cohort are free.
            charge -= std::min(levels, cls->second);
            cls->second = std::max(cls->second, levels);
            charge = std::max(charge, 0L);
        }
        if (charged + charge > budget)
            break;
        charged += charge;
        ++keep;
    }
    if (keep < batch.size()) {
        std::vector<engine::ActiveRequest> displaced(
            std::make_move_iterator(batch.begin() + keep),
            std::make_move_iterator(batch.end()));
        batch.resize(keep);
        restartAndRequeue(std::move(displaced));
    }
}

void
SpotServeSystem::activate()
{
    if (phase_ != Phase::Migrating || !pending_)
        return;
    auto pm = std::move(*pending_);
    pending_.reset();

    // Adopt the kept replicas' live pipeline objects — batches, in-flight
    // iterations and KV accounting move across untouched.
    std::vector<std::unique_ptr<engine::InferencePipeline>> carried(
        pm.target.dp);
    std::vector<bool> was_kept(pm.target.dp, false);
    if (hasDeployment()) {
        auto &old = deployment();
        for (int d = 0; d < pm.target.dp; ++d) {
            const int od = pm.keptOldPipeline[d];
            if (od >= 0 && od < static_cast<int>(old.pipelines.size()) &&
                old.pipelines[od]) {
                carried[d] = std::move(old.pipelines[od]);
                was_kept[d] = true;
            }
        }
        // Defensive: nothing else should still be live in the old
        // deployment (affected replicas were removed at startMigration).
        requeueDeployment();
    }

    installDeployment(pm.target, std::move(pm.mapping.mesh),
                      std::move(carried));
    deployment().readyAt = pm.resumeAbs;
    recordConfig(pm.target, pm.reason);
    const long epoch = ++deployEpoch_;

    bool broken = false;
    bool fault_broken = false;
    const int salvage_blk = effectiveKvBlockTokens(pm.target);
    for (int d = 0; d < pm.target.dp; ++d) {
        // Revalidate the replica's instances: a preemption or release may
        // have hit a planned member while the migration ran (§4.2).
        bool alive = true;
        for (par::GpuId g : deployment().mesh.pipelineGpus(d)) {
            const auto *inst = instances_.get(
                cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance));
            if (!inst || !inst->usable())
                alive = false;
        }
        // A replica whose context depended on a lost transfer step must
        // not come up on garbage, even though its own instances live.
        // (onMigrationFailed never marks a kept replica.)
        const bool failed = pm.failedReplica[d];
        if (!alive || failed) {
            // A kept pipeline's live batch is requeued with the rest.
            if (pm.hadFailure) {
                requestsRecovered_ +=
                    static_cast<long>(pm.inherited[d].size());
            }
            restartAndRequeue(removePipeline(d));
            restartAndRequeue(std::move(pm.inherited[d]));
            broken = true;
            fault_broken = fault_broken || failed;
            continue;
        }
        if (was_kept[d])
            continue; // never stopped serving
        if (pm.hadFailure) {
            // Crash-consistent salvage: this replica's steps all landed
            // before the fault, so its inherited cache context survives
            // the aborted plan instead of recomputing.
            for (const auto &r : pm.inherited[d])
                salvagedBlocks_ += r.kvBlocksHeld(salvage_blk);
        }
        if (pm.resumeAbs[d] <= sim_.now() + 1e-9) {
            if (!pm.inherited[d].empty())
                loadBatch(d, std::move(pm.inherited[d]));
            continue;
        }
        // This replica's context is still in flight; start it when its
        // progressive migration completes.
        auto batch = std::make_shared<std::vector<engine::ActiveRequest>>(
            std::move(pm.inherited[d]));
        sim_.schedule(pm.resumeAbs[d], [this, epoch, d, batch] {
            if (epoch != deployEpoch_ || !hasDeployment() ||
                !deployment().pipelines[d]) {
                restartAndRequeue(std::move(*batch));
                return;
            }
            if (!batch->empty())
                loadBatch(d, std::move(*batch));
            dispatchAll();
        });
    }

    ++migrationsCompleted_;
    phase_ = Phase::Serving;
    if (!pm.hadFailure)
        migrationRetryCount_ = 0; // clean activation resets the backoff
    dispatchAll();

    if (fault_broken) {
        // The repair reconfiguration is a bounded, backed-off retry.
        pendingReconfig_ = false;
        scheduleRetryEval();
    } else if (pendingReconfig_ || broken) {
        pendingReconfig_ = false;
        scheduleEval();
    }
}

void
SpotServeSystem::onMigrationFailed(
    long epoch, const TransferDataPlane::PlanFailure &failure)
{
    if (epoch != migrationEpoch_ || phase_ != Phase::Migrating || !pending_)
        return; // stale: that migration already activated or tore down
    ++migrationAborts_;
    auto &pm = *pending_;
    pm.hadFailure = true;
    pm.planId = -1; // the data plane already dropped the plan
    sim::logWarn("t=" + std::to_string(sim_.now()) +
                 " SpotServe: migration schedule failed (" +
                 (failure.timedOut
                      ? std::string("deadline")
                      : "instance " +
                            std::to_string(failure.failedInstance)) +
                 "); recovering");

    if (!options_.faultRecovery) {
        abortFailedMigration(/*cold_restart=*/true);
        return;
    }

    // Attribute the lost steps to the target replicas that depended on
    // them (dpStepDeps): a replica whose steps all landed before the
    // fault is salvageable and activates on schedule; one that depended
    // on a lost step must requeue.  A timeout (or a plan without step
    // attribution) dooms every non-kept replica.
    const bool attributable = !failure.timedOut &&
                              !pm.plan.dpStepDeps.empty() &&
                              !failure.stepLanded.empty();
    int compromised = 0;
    int affected_total = 0;
    for (int d = 0; d < pm.target.dp; ++d) {
        if (pm.keptOldPipeline[d] >= 0)
            continue; // kept replicas serve on their own resident context
        ++affected_total;
        bool bad = !attributable;
        if (attributable &&
            d < static_cast<int>(pm.plan.dpStepDeps.size())) {
            for (const auto &stage : pm.plan.dpStepDeps[d]) {
                for (int s : stage) {
                    if (s >= 0 &&
                        s < static_cast<int>(failure.stepLanded.size()) &&
                        !failure.stepLanded[s]) {
                        bad = true;
                    }
                }
            }
        }
        if (bad) {
            pm.failedReplica[d] = true;
            ++compromised;
        }
    }
    if (affected_total == 0 || compromised >= affected_total) {
        // Nothing to salvage on the target side: fall back to the §4.2
        // no-cache route by re-planning fresh (the retry's beginReconfig
        // snapshots current holdings, where the dead source holds
        // nothing), with the kept replicas serving through.
        abortFailedMigration(/*cold_restart=*/false);
    }
    // Partial loss: the scheduled activation proceeds; activate()
    // requeues the compromised replicas' work, salvages the rest, and
    // schedules the backed-off repair reconfiguration.
}

void
SpotServeSystem::abortFailedMigration(bool cold_restart)
{
    auto pm = std::move(*pending_);
    pending_.reset();
    migrationTailUntil_ = sim_.now();
    if (pm.planId >= 0)
        dataPlane_.cancelPlan(pm.planId);
    for (auto &batch : pm.inherited) {
        if (!cold_restart)
            requestsRecovered_ += static_cast<long>(batch.size());
        restartAndRequeue(std::move(batch));
    }
    if (!cold_restart) {
        // Kept replicas (if any) are still live inside the old deployment
        // and keep serving through the retry; the scheduled activate()
        // no-ops on the phase check.
        phase_ = hasDeployment() ? Phase::Serving : Phase::Idle;
        pendingReconfig_ = false;
        dispatchAll();
    }
    // The ablation still must not lose work — crash consistency of the
    // request queue is an invariant, not a feature flag — but it gives up
    // every kept replica and all landed context, then pays a cold
    // deployment from scratch.
    scheduleRetryEval(cold_restart);
}

void
SpotServeSystem::scheduleRetryEval(bool cold_restart)
{
    if (cold_restart || migrationRetryCount_ >= kMigrationMaxRetries) {
        // Bounded: beyond the retry budget stop thrashing, tear down and
        // rebuild cold.
        migrationRetryCount_ = 0;
        suspendServing();
        scheduleEval();
        return;
    }
    ++migrationRetryCount_;
    ++migrationRetries_;
    const double delay =
        kMigrationRetryBackoff * std::pow(2.0, migrationRetryCount_ - 1);
    sim_.scheduleAfter(delay, [this] { scheduleEval(); });
}

void
SpotServeSystem::suspendServing()
{
    requeueDeployment();
    phase_ = Phase::Idle;
    sim::logWarn("t=" + std::to_string(sim_.now()) +
                 " SpotServe: no feasible configuration; serving suspended");
}

} // namespace core
} // namespace spotserve
