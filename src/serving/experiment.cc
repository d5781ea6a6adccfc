#include "serving/experiment.h"

#include <algorithm>
#include <numeric>

#include "baselines/reparallelization_system.h"
#include "baselines/rerouting_system.h"
#include "cluster/fault_injector.h"
#include "core/spotserve_system.h"
#include "simcore/simulation.h"

namespace spotserve {
namespace serving {

namespace {

/**
 * Feeds the workload's arrivals to the system.  On an executor with
 * order keys only the next arrival is pending, so the event heap does
 * not carry the whole workload: arrivals fire in stable arrival-time
 * order (equal times in workload order), each scheduled "after" the
 * setup time with the one key the first arrival drew.  The up-front
 * schedule gave every arrival that setup time and consecutive keys, so
 * each arrival keeps its place among same-time events.  Other executors
 * get the whole workload up front.
 */
class ArrivalCursor
{
  public:
    ArrivalCursor(sim::Executor &executor, const wl::Workload &workload,
                  ServingSystem &system)
        : executor_(executor), workload_(workload), system_(system),
          setupTime_(executor.now())
    {
        if (!executor_.supportsOrderKeys()) {
            for (const auto &req : workload_) {
                executor_.schedule(req.arrival, [this, &req] {
                    system_.onRequestArrival(req);
                });
            }
            return;
        }
        order_.resize(workload_.size());
        std::iota(order_.begin(), order_.end(), std::size_t{0});
        std::stable_sort(order_.begin(), order_.end(),
                         [this](std::size_t a, std::size_t b) {
                             return workload_[a].arrival <
                                    workload_[b].arrival;
                         });
        scheduleNext();
    }

  private:
    void scheduleNext()
    {
        if (next_ == order_.size())
            return;
        const wl::Request &req = workload_[order_[next_++]];
        executor_.scheduleOrdered(req.arrival, setupTime_, key_,
                                  [this, &req] {
                                      scheduleNext();
                                      system_.onRequestArrival(req);
                                  });
    }

    sim::Executor &executor_;
    const wl::Workload &workload_;
    ServingSystem &system_;
    sim::SimTime setupTime_;
    sim::OrderKey key_ = sim::kFreshOrderKey;
    /** Workload indices in arrival order; next_ is the next to schedule. */
    std::vector<std::size_t> order_;
    std::size_t next_ = 0;
};

} // namespace

ExperimentResult
runExperiment(const model::ModelSpec &spec, const cost::CostParams &params,
              const cluster::AvailabilityTrace &trace,
              const wl::Workload &workload, const SystemFactory &factory,
              ExperimentOptions options)
{
    sim::Simulation simulation;
    return runExperimentOn(simulation, spec, params, trace, workload,
                           factory, options);
}

ExperimentResult
runExperimentOn(sim::Executor &executor, const model::ModelSpec &spec,
                const cost::CostParams &params,
                const cluster::AvailabilityTrace &trace,
                const wl::Workload &workload, const SystemFactory &factory,
                ExperimentOptions options)
{
    cluster::InstanceManager instances(executor, params);
    RequestManager requests(executor);

    auto system = factory(executor, instances, requests);
    instances.setListener(system.get());
    instances.loadTrace(trace);

    // The fault plane rides on the same executor seam as the trace
    // replay; with no plan, nothing is scheduled and the run is
    // byte-identical to a driver without it.
    std::unique_ptr<sim::FaultInjector> injector;
    if (options.faultPlan != nullptr) {
        injector = std::make_unique<sim::FaultInjector>(executor, instances,
                                                        *options.faultPlan);
        if (auto *spot = dynamic_cast<core::SpotServeSystem *>(system.get()))
            injector->attachDataPlane(&spot->dataPlaneMutable());
        else if (auto *repar = dynamic_cast<baselines::ReparallelizationSystem *>(
                     system.get()))
            injector->attachDataPlane(&repar->dataPlaneMutable());
        else if (auto *rer =
                     dynamic_cast<baselines::ReroutingSystem *>(system.get()))
            injector->attachDataPlane(&rer->dataPlaneMutable());
        injector->arm();
    }

    ArrivalCursor arrivals(executor, workload, *system);

    const sim::SimTime horizon = trace.duration() + options.drainTimeout;
    executor.run(horizon);

    ExperimentResult result;
    result.systemName = system->name();
    result.traceName = trace.name();
    result.modelName = spec.name();
    // Latency statistics skip the warm-up window (identical cold start for
    // every system) and include the censored age of never-finished
    // requests so overload stays visible in the tail.
    for (const auto &done : requests.completions()) {
        if (done.arrival >= options.warmupCutoff)
            result.latencies.add(done.latency);
    }
    for (const auto &pending : requests.pending()) {
        if (pending.request.arrival >= options.warmupCutoff)
            result.latencies.add(horizon - pending.request.arrival);
    }
    result.perRequest = requests.completions();
    result.configHistory = system->configHistory();
    result.arrived = requests.arrivedCount();
    result.completed = requests.completedCount();
    result.unfinished = requests.unfinishedCount();
    result.rejected = requests.rejectedCount();
    result.tokensGenerated = requests.tokensGenerated();
    // Bill the fleet over the trace window only (comparable across
    // systems; the drain window exists to flush the queue).
    result.costUsd = instances.accruedCost(trace.duration());
    result.spotInstanceHours = instances.spotInstanceHours(trace.duration());
    result.ondemandInstanceHours =
        instances.ondemandInstanceHours(trace.duration());
    if (const auto *base =
            dynamic_cast<const BaseServingSystem *>(system.get())) {
        result.peakKvReservedTokens = base->peakKvReservedTokens();
        result.peakKvHeldTokens = base->peakKvHeldTokens();
        result.peakKvHeldBlocks = base->peakKvHeldBlocks();
        result.peakKvPhysicalBlocks = base->peakKvPhysicalBlocks();
        result.prefixHits = base->prefixHitsTotal();
        result.prefixMatchedTokens = base->prefixMatchedTokensTotal();
        result.cowCopies = base->cowCopiesTotal();
        result.savedPrefillSeconds = base->savedPrefillSecondsTotal();
        result.peakConcurrentRequests = base->peakConcurrentRequests();
        result.evictions = base->evictionsTotal();
        result.evictedWorkSeconds = base->evictedWorkSeconds();
    }
    if (const auto *spot =
            dynamic_cast<const core::SpotServeSystem *>(system.get())) {
        result.migrationsCompleted = spot->migrationsCompleted();
        result.migrationMakespanTotal = spot->totalMigrationMakespan();
        result.contendedMigrations = spot->contendedMigrations();
        result.migrationAborts = spot->migrationAborts();
        result.migrationRetries = spot->migrationRetries();
        result.requestsRecovered = spot->requestsRecovered();
        result.salvagedBlocks = spot->salvagedBlocks();
    }
    result.hardPreemptions = instances.hardPreemptions();
    if (injector) {
        result.migrationKillsFired = injector->migrationKillsFired();
        result.migrationKillFallbacks = injector->migrationKillFallbacks();
    }
    if (const auto *base =
            dynamic_cast<const BaseServingSystem *>(system.get())) {
        result.restartedRequeues = base->restartedRequeues();
        result.liveKvRefsAtEnd = base->liveKvRefs();
    }
    return result;
}

} // namespace serving
} // namespace spotserve
