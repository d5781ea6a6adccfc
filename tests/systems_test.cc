/**
 * @file
 * Integration tests: full serving systems on traces, stateful recovery,
 * determinism, ablations, fault tolerance.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "baselines/reparallelization_system.h"
#include "baselines/rerouting_system.h"
#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "serving/experiment.h"
#include "serving/presets.h"
#include "simcore/simulation.h"
#include "plain_order_executor.h"

namespace spotserve {
namespace {

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

AvailabilityTrace
steadyTrace(int instances, sim::SimTime duration = 1200.0)
{
    return AvailabilityTrace(
        "steady", duration,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot,
                    instances}});
}

wl::Workload
workloadFor(const model::ModelSpec &spec, sim::SimTime duration,
            std::uint64_t seed = 7)
{
    sim::Rng rng(seed);
    return wl::stationaryGamma(wl::defaultRateForModel(spec.name()), 6.0,
                               duration, kSeq, rng);
}

serving::ExperimentResult
run(const model::ModelSpec &spec, const AvailabilityTrace &trace,
    const std::string &system, std::uint64_t seed = 7)
{
    const auto workload = workloadFor(spec, trace.duration(), seed);
    const auto factory = presets::factoryByName(
        system, spec, kParams, kSeq, wl::defaultRateForModel(spec.name()));
    return serving::runExperiment(spec, kParams, trace, workload, factory);
}

TEST(SystemsIntegration, AllRequestsCompleteOnSteadyCluster)
{
    const auto spec = model::ModelSpec::gpt20b();
    for (const char *system :
         {"SpotServe", "Reparallelization", "Rerouting"}) {
        const auto r = run(spec, steadyTrace(8), system);
        EXPECT_EQ(r.unfinished, 0) << system;
        EXPECT_GT(r.completed, 0) << system;
        EXPECT_EQ(r.arrived, r.completed) << system;
    }
}

TEST(SystemsIntegration, SteadyClusterNeedsNoRecovery)
{
    // Without preemptions nothing should ever restart a request.
    const auto spec = model::ModelSpec::gpt20b();
    for (const char *system :
         {"SpotServe", "Reparallelization", "Rerouting"}) {
        const auto r = run(spec, steadyTrace(8), system);
        for (const auto &c : r.perRequest)
            EXPECT_EQ(c.restarts, 0) << system;
    }
}

TEST(SystemsIntegration, DeterministicAcrossRuns)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto a = run(spec, cluster::traceBS(), "SpotServe");
    const auto b = run(spec, cluster::traceBS(), "SpotServe");
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
        EXPECT_DOUBLE_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
    }
    EXPECT_DOUBLE_EQ(a.costUsd, b.costUsd);
}

TEST(SystemsIntegration, SpotServeRecoversStatefully)
{
    // On the hostile trace, SpotServe's stateful recovery must carry the
    // vast majority of interrupted requests across reconfigurations
    // without recomputation (restarts == 0).
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, cluster::traceBS(), "SpotServe");
    long restarted = 0;
    for (const auto &c : r.perRequest)
        restarted += c.restarts > 0 ? 1 : 0;
    EXPECT_LT(static_cast<double>(restarted), 0.1 * r.completed);
    EXPECT_EQ(r.unfinished, 0);
}

TEST(SystemsIntegration, ReparallelizationRestartsEverythingInFlight)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto spot = run(spec, cluster::traceBS(), "SpotServe");
    const auto repar = run(spec, cluster::traceBS(), "Reparallelization");
    auto restarted = [](const serving::ExperimentResult &r) {
        long n = 0;
        for (const auto &c : r.perRequest)
            n += c.restarts > 0 ? 1 : 0;
        return n;
    };
    EXPECT_GT(restarted(repar), restarted(spot));
}

TEST(SystemsIntegration, SpotServeBeatsBaselinesOnHostileTrace)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto spot = run(spec, cluster::traceBS(), "SpotServe");
    const auto repar = run(spec, cluster::traceBS(), "Reparallelization");
    const auto rerout = run(spec, cluster::traceBS(), "Rerouting");
    EXPECT_LT(spot.latencies.percentile(99),
              repar.latencies.percentile(99));
    EXPECT_LT(spot.latencies.percentile(99),
              rerout.latencies.percentile(99));
    EXPECT_LT(spot.latencies.mean(), repar.latencies.mean());
}

TEST(SystemsIntegration, SpotCheaperThanOnDemand)
{
    // Figure 7's premise: the same fleet costs less on spot prices.
    const auto spec = model::ModelSpec::gpt20b();
    AvailabilityTrace spot_trace = steadyTrace(8);
    AvailabilityTrace od_trace(
        "od", 1200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::OnDemand, 8}});
    const auto s = run(spec, spot_trace, "SpotServe");
    const auto o = run(spec, od_trace, "SpotServe");
    EXPECT_LT(s.costUsd, o.costUsd);
    EXPECT_NEAR(s.costUsd / o.costUsd,
                kParams.spotPricePerHour / kParams.ondemandPricePerHour,
                0.01);
}

TEST(SystemsIntegration, SurvivesFleetCollapseAndRecovery)
{
    // Drop below the model's minimum, then recover: the system must
    // suspend, keep the requests queued, and finish them all after the
    // fleet returns.
    const auto spec = model::ModelSpec::gpt20b(); // needs 3 instances
    AvailabilityTrace trace(
        "collapse", 1500.0,
        {
            TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 4},
            TraceEvent{300.0, TraceEventKind::PreemptNotice,
                       InstanceType::Spot, 2},
            TraceEvent{600.0, TraceEventKind::Join, InstanceType::Spot, 4},
        });
    sim::Rng rng(3);
    const auto workload = wl::stationaryGamma(0.2, 2.0, 1500.0, kSeq, rng);
    const auto factory =
        presets::factoryByName("SpotServe", spec, kParams, kSeq, 0.2);
    const auto r =
        serving::runExperiment(spec, kParams, trace, workload, factory);
    EXPECT_EQ(r.unfinished, 0);
}

TEST(SystemsIntegration, AblationOrderingOnHostileTrace)
{
    // Figure 9: cumulatively disabling components must not improve tail
    // latency, and the fully ablated variant must be clearly worse.
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = cluster::traceBS();
    const auto workload = workloadFor(spec, trace.duration());

    auto run_options = [&](core::SpotServeOptions options) {
        options.designArrivalRate = 0.35;
        const auto factory =
            presets::spotServeFactory(spec, kParams, kSeq, options);
        return serving::runExperiment(spec, kParams, trace, workload,
                                      factory);
    };

    core::SpotServeOptions full;
    core::SpotServeOptions ablated;
    ablated.enableController = false;
    ablated.enableMigrationPlanner = false;
    ablated.enableArranger = false;
    ablated.enableDeviceMapper = false;

    const auto r_full = run_options(full);
    const auto r_ablated = run_options(ablated);
    EXPECT_LT(r_full.latencies.percentile(99),
              r_ablated.latencies.percentile(99));
}

TEST(SystemsIntegration, ReroutingKeepsFixedParallelism)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, cluster::traceBS(), "Rerouting");
    ASSERT_FALSE(r.configHistory.empty());
    // Exactly one configuration decision, never re-parallelized.
    EXPECT_EQ(r.configHistory.size(), 1u);
}

TEST(SystemsIntegration, SpotServeAdaptsConfiguration)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, cluster::traceBS(), "SpotServe");
    EXPECT_GT(r.configHistory.size(), 1u);
    // First decision at high availability is the paper's (2,2,8).
    EXPECT_EQ(r.configHistory.front().config.pp, 2);
    EXPECT_EQ(r.configHistory.front().config.tp, 8);
}

TEST(SystemsIntegration, TokensAccountedForCost)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto r = run(spec, steadyTrace(8), "SpotServe");
    EXPECT_DOUBLE_EQ(r.tokensGenerated,
                     static_cast<double>(r.completed) * kSeq.outputLen);
    EXPECT_GT(r.costPerToken(), 0.0);
}

TEST(SystemsIntegration, OverlappingGracePeriodsSurvived)
{
    // B_S's 240 s / 255 s notices overlap (§4.2); the system must not
    // deadlock or lose requests.
    const auto spec = model::ModelSpec::opt6_7b();
    const auto r = run(spec, cluster::traceBS(), "SpotServe");
    EXPECT_EQ(r.unfinished, 0);
}

/** Engine knobs (serving::EngineOptions or a pipeline's
 *  engine::BatchingOptions) must equal the serving::EngineOptions
 *  defaults: 16-token blocks, prefix sharing on, Optimistic, unchunked. */
template <typename Knobs>
void
expectDefaultEngine(const Knobs &b, const std::string &who)
{
    EXPECT_EQ(b.kvBlockTokens, 16) << who;
    EXPECT_TRUE(b.prefixSharing) << who;
    EXPECT_EQ(b.kvAdmissionMode, engine::KvAdmissionMode::Optimistic) << who;
    EXPECT_EQ(b.prefillChunkTokens, 0) << who;
}

/** A bare BaseServingSystem subclass: the engine defaults come from the
 *  base class alone, with no system-level option struct in between. */
struct BareSystem : serving::BaseServingSystem
{
    BareSystem(sim::Executor &s, cluster::InstanceManager &im,
               serving::RequestManager &rm, const model::ModelSpec &spec)
        : BaseServingSystem(s, im, rm, spec, kParams, kSeq)
    {
    }
    std::string name() const override { return "Bare"; }
    void onInstanceReady(const cluster::Instance &) override {}
    void onPreemptionNotice(const cluster::Instance &, sim::SimTime) override
    {
    }
    void onInstancePreempted(const cluster::Instance &) override {}
    void onInstanceReleased(const cluster::Instance &) override {}

    using BaseServingSystem::deployment;
    using BaseServingSystem::installDeployment;
    using BaseServingSystem::packedMesh;
};

TEST(SystemsIntegration, EverySystemBuildsPipelinesWithTheSameEngineDefaults)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const auto trace = steadyTrace(4, 120.0);
    const auto workload = workloadFor(spec, trace.duration());
    for (const char *system :
         {"SpotServe", "Rerouting", "Reparallelization"}) {
        long pipelines_seen = 0;
        const auto inner = presets::factoryByName(
            system, spec, kParams, kSeq, wl::defaultRateForModel(spec.name()));
        const serving::SystemFactory factory =
            [&](sim::Executor &exec, cluster::InstanceManager &inst,
                serving::RequestManager &req) {
                auto sys = inner(exec, inst, req);
                auto *base = dynamic_cast<serving::BaseServingSystem *>(
                    sys.get());
                EXPECT_NE(base, nullptr) << system;
                if (base) {
                    expectDefaultEngine(base->engineOptions(), system);
                    base->setKvObserver(
                        [&](const engine::InferencePipeline &p) {
                            ++pipelines_seen;
                            expectDefaultEngine(p.batching(), system);
                        });
                }
                return sys;
            };
        const auto r =
            serving::runExperiment(spec, kParams, trace, workload, factory);
        EXPECT_GT(r.completed, 0) << system;
        EXPECT_GT(pipelines_seen, 0) << system;
    }

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions zero_blocks;
    zero_blocks.engine.kvBlockTokens = 0;
    EXPECT_THROW(core::SpotServeSystem(sim, instances, requests, spec,
                                       kParams, kSeq, zero_blocks),
                 std::invalid_argument);
    BareSystem bare(sim, instances, requests, spec);
    instances.loadTrace(steadyTrace(2, 100.0));
    sim.run(1.0);
    const par::ParallelConfig config{2, 2, 2, 8};
    bare.installDeployment(config,
                           bare.packedMesh(config, instances.usableInstances()));
    wl::Request request = workload.front();
    request.arrival = sim.now();
    bare.onRequestArrival(request);
    sim.run();
    EXPECT_EQ(requests.completedCount(), 1);
    expectDefaultEngine(bare.engineOptions(), "BaseServingSystem");
    for (const auto &p : bare.deployment().pipelines)
        expectDefaultEngine(p->batching(), "BaseServingSystem");
}

// Conservation over every library trace, model and system: each arrival
// ends completed, rejected or unfinished exactly once, and a run that
// leaves nothing unfinished leaks no KV block reference.
std::vector<AvailabilityTrace>
libraryTraces()
{
    return {
        cluster::traceAS(),
        cluster::traceBS(),
        cluster::traceASPlusO(),
        cluster::traceBSPlusO(),
        cluster::traceFig8A(),
        cluster::traceFig8B(),
        cluster::hardenPreemptions(cluster::traceFig8B(), 0.5, 3),
    };
}

TEST(SystemsIntegration, EveryTraceConservesRequestsAndKvRefs)
{
    for (const auto &trace : libraryTraces()) {
        for (const auto &spec : presets::evaluatedModels()) {
            for (const char *system : {"SpotServe", "Rerouting",
                                       "Reparallelization",
                                       "SpotServe-sync"}) {
                SCOPED_TRACE(trace.name() + " / " + spec.name() + " / " +
                             system);
                const auto r = presets::runStable(spec, trace, system);
                EXPECT_GT(r.arrived, 0);
                EXPECT_EQ(r.arrived,
                          r.completed + r.rejected + r.unfinished);
                EXPECT_EQ(static_cast<long>(r.perRequest.size()),
                          r.completed);
                std::set<wl::RequestId> ids;
                for (const auto &c : r.perRequest)
                    EXPECT_TRUE(ids.insert(c.id).second)
                        << "request " << c.id << " completed twice";
                if (r.unfinished == 0)
                    EXPECT_EQ(r.liveKvRefsAtEnd, 0);
            }
        }
    }
}

/** How runStableCounted drives the replicas. */
enum class Drive
{
    Strides,      ///< plain Simulation
    Observed,     ///< a no-op KV observer: one iteration per event
    PlainOrder,   ///< no order keys: one iteration per event, as before
};

/** runStable's experiment on a caller-held Simulation; @p events
 *  receives the events the run fired. */
serving::ExperimentResult
runStableCounted(const model::ModelSpec &spec, const AvailabilityTrace &trace,
                 const std::string &system, Drive drive,
                 std::uint64_t &events)
{
    const double rate = presets::stableRate(spec);
    sim::Rng rng(7);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), kSeq, rng);
    const auto inner =
        presets::factoryByName(system, spec, kParams, kSeq, rate);
    const serving::SystemFactory factory =
        [&](sim::Executor &exec, cluster::InstanceManager &inst,
            serving::RequestManager &req) {
            auto sys = inner(exec, inst, req);
            if (drive == Drive::Observed) {
                dynamic_cast<serving::BaseServingSystem &>(*sys)
                    .setKvObserver([](const engine::InferencePipeline &) {});
            }
            return sys;
        };
    sim::Simulation simulation;
    PlainOrderExecutor plain(simulation);
    sim::Executor &exec = drive == Drive::PlainOrder
                              ? static_cast<sim::Executor &>(plain)
                              : simulation;
    auto r = serving::runExperimentOn(exec, spec, kParams, trace, workload,
                                      factory);
    events = simulation.eventsFired();
    return r;
}

void
expectIdenticalResults(const serving::ExperimentResult &a,
                       const serving::ExperimentResult &b)
{
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        SCOPED_TRACE("completion " + std::to_string(i));
        EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
        EXPECT_EQ(a.perRequest[i].arrival, b.perRequest[i].arrival);
        EXPECT_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
        EXPECT_EQ(a.perRequest[i].restarts, b.perRequest[i].restarts);
    }
    EXPECT_EQ(a.latencies.samples(), b.latencies.samples());
    ASSERT_EQ(a.configHistory.size(), b.configHistory.size());
    for (std::size_t i = 0; i < a.configHistory.size(); ++i) {
        EXPECT_EQ(a.configHistory[i].time, b.configHistory[i].time);
        EXPECT_EQ(a.configHistory[i].config, b.configHistory[i].config);
        EXPECT_EQ(a.configHistory[i].reason, b.configHistory[i].reason);
    }
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.unfinished, b.unfinished);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.tokensGenerated, b.tokensGenerated);
    EXPECT_EQ(a.costUsd, b.costUsd);
    EXPECT_EQ(a.spotInstanceHours, b.spotInstanceHours);
    EXPECT_EQ(a.ondemandInstanceHours, b.ondemandInstanceHours);
    EXPECT_EQ(a.peakKvReservedTokens, b.peakKvReservedTokens);
    EXPECT_EQ(a.peakKvHeldTokens, b.peakKvHeldTokens);
    EXPECT_EQ(a.peakKvHeldBlocks, b.peakKvHeldBlocks);
    EXPECT_EQ(a.peakKvPhysicalBlocks, b.peakKvPhysicalBlocks);
    EXPECT_EQ(a.prefixHits, b.prefixHits);
    EXPECT_EQ(a.prefixMatchedTokens, b.prefixMatchedTokens);
    EXPECT_EQ(a.cowCopies, b.cowCopies);
    EXPECT_EQ(a.savedPrefillSeconds, b.savedPrefillSeconds);
    EXPECT_EQ(a.peakConcurrentRequests, b.peakConcurrentRequests);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.evictedWorkSeconds, b.evictedWorkSeconds);
    EXPECT_EQ(a.migrationsCompleted, b.migrationsCompleted);
    EXPECT_EQ(a.migrationMakespanTotal, b.migrationMakespanTotal);
    EXPECT_EQ(a.contendedMigrations, b.contendedMigrations);
    EXPECT_EQ(a.hardPreemptions, b.hardPreemptions);
    EXPECT_EQ(a.migrationAborts, b.migrationAborts);
    EXPECT_EQ(a.migrationRetries, b.migrationRetries);
    EXPECT_EQ(a.requestsRecovered, b.requestsRecovered);
    EXPECT_EQ(a.salvagedBlocks, b.salvagedBlocks);
    EXPECT_EQ(a.restartedRequeues, b.restartedRequeues);
    EXPECT_EQ(a.migrationKillsFired, b.migrationKillsFired);
    EXPECT_EQ(a.migrationKillFallbacks, b.migrationKillFallbacks);
    EXPECT_EQ(a.liveKvRefsAtEnd, b.liveKvRefsAtEnd);
}

// Strides change no decision.  Each library trace x model x system runs
// plain (replicas advance several iterations per event), with a no-op
// KV observer attached (one iteration per event under the same order
// keys), and on an executor without order keys (one iteration per
// event in schedule order): every result field must match, down to
// completion order, and the plain run must fire fewer events.
TEST(SystemsIntegration, StridesMatchOneIterationPerEvent)
{
    for (const auto &trace : libraryTraces()) {
        for (const auto &spec : presets::evaluatedModels()) {
            for (const char *system : {"SpotServe", "Rerouting",
                                       "Reparallelization",
                                       "SpotServe-sync"}) {
                SCOPED_TRACE(trace.name() + " / " + spec.name() + " / " +
                             system);
                std::uint64_t strided = 0, stepped = 0, plain = 0;
                const auto a = runStableCounted(spec, trace, system,
                                                Drive::Strides, strided);
                const auto b = runStableCounted(spec, trace, system,
                                                Drive::Observed, stepped);
                const auto c = runStableCounted(spec, trace, system,
                                                Drive::PlainOrder, plain);
                expectIdenticalResults(a, b);
                expectIdenticalResults(a, c);
                EXPECT_LT(strided, stepped);
                EXPECT_EQ(stepped, plain);
            }
        }
    }
}

// A horizon that cuts strides: the peak getters settle every replica
// first, so the peaks read after the run include the boundaries before
// the horizon.  Four
// requests arrive together on a steady cluster and the run stops two
// seconds into their decode, while every replica's KV holding still grows.
TEST(SystemsIntegration, StridesCutByTheHorizonSettleTheirPeaks)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const auto trace = steadyTrace(4, 600.0);
    wl::Workload workload;
    for (int i = 0; i < 4; ++i) {
        wl::Request r;
        r.id = i + 1;
        r.arrival = 300.0;
        workload.push_back(r);
    }
    serving::ExperimentOptions options;
    options.drainTimeout = 302.0 - trace.duration();
    for (const char *system : {"SpotServe", "Rerouting"}) {
        SCOPED_TRACE(system);
        const auto inner = presets::factoryByName(
            system, spec, kParams, kSeq, presets::stableRate(spec));
        auto run = [&](bool observed) {
            const serving::SystemFactory factory =
                [&](sim::Executor &exec, cluster::InstanceManager &inst,
                    serving::RequestManager &req) {
                    auto sys = inner(exec, inst, req);
                    if (observed) {
                        dynamic_cast<serving::BaseServingSystem &>(*sys)
                            .setKvObserver(
                                [](const engine::InferencePipeline &) {});
                    }
                    return sys;
                };
            return serving::runExperiment(spec, kParams, trace, workload,
                                          factory, options);
        };
        const auto a = run(false);
        const auto b = run(true);
        EXPECT_EQ(a.unfinished, 4);
        // One request per replica, tens of tokens into its decode.
        EXPECT_GT(a.peakKvHeldTokens, 512 + 10);
        expectIdenticalResults(a, b);
    }
}

} // namespace
} // namespace spotserve
