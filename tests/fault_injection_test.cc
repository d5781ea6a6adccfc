/**
 * @file
 * Fault-injection plane and crash-consistent recovery tests.
 *
 * Four layers:
 *  - trace/cluster: HardPreempt validation and replay, the zero-notice
 *    kill path through InstanceManager, hardenPreemptions determinism;
 *  - data plane: partial-completion accounting on instance death,
 *    blackout/degrade delays, per-plan deadlines, link release;
 *  - a golden regression proving an armed-but-empty FaultInjector leaves
 *    the pinned fig8-A run byte-identical;
 *  - seeded chaos sweeps: hostile traces x random fault schedules x
 *    admission modes x prefix sharing, asserting the crash-consistency
 *    invariants (nothing lost, nothing served twice, no leaked KV refs)
 *    and that recovery beats the abort-and-cold-restart ablation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "cluster/fault_injector.h"
#include "cluster/fault_plan.h"
#include "cluster/trace_library.h"
#include "core/transfer_data_plane.h"
#include "serving/presets.h"
#include "simcore/simulation.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

// ---------------------------------------------------------------------
// Trace layer: HardPreempt events.
// ---------------------------------------------------------------------

TEST(HardPreemptTraceTest, ValidatesEvents)
{
    using cluster::AvailabilityTrace;
    using cluster::TraceEvent;
    using cluster::TraceEventKind;
    // HardPreempt of on-demand capacity is not a thing.
    EXPECT_THROW(
        AvailabilityTrace("x", 10.0,
                          {TraceEvent{1.0, TraceEventKind::HardPreempt,
                                      cluster::InstanceType::OnDemand, 1}}),
        std::invalid_argument);
    // noticeOverride is meaningful only on PreemptNotice.
    TraceEvent bad{1.0, TraceEventKind::Join, cluster::InstanceType::Spot, 1};
    bad.noticeOverride = 5.0;
    EXPECT_THROW(AvailabilityTrace("x", 10.0, {bad}), std::invalid_argument);

    TraceEvent ok{1.0, TraceEventKind::PreemptNotice,
                  cluster::InstanceType::Spot, 1};
    ok.noticeOverride = 0.0; // notice and kill in the same instant
    EXPECT_NO_THROW(AvailabilityTrace(
        "x", 10.0,
        {TraceEvent{0.0, TraceEventKind::Join, cluster::InstanceType::Spot, 1},
         ok}));
}

TEST(HardPreemptTraceTest, SeriesAndCountsSeeHardKills)
{
    using cluster::TraceEvent;
    using cluster::TraceEventKind;
    cluster::AvailabilityTrace trace(
        "t", 100.0,
        {
            TraceEvent{0.0, TraceEventKind::Join,
                       cluster::InstanceType::Spot, 4},
            TraceEvent{30.0, TraceEventKind::HardPreempt,
                       cluster::InstanceType::Spot, 2},
        });
    EXPECT_EQ(trace.totalPreemptions(), 2);
    EXPECT_EQ(trace.totalHardPreemptions(), 2);
    const auto series = trace.series(10.0, 30.0);
    // A hard kill drops capacity at its own time, not one grace later.
    for (const auto &s : series) {
        if (s.time < 30.0)
            EXPECT_EQ(s.spot, 4);
        else
            EXPECT_EQ(s.spot, 2);
    }
}

TEST(HardenPreemptionsTest, DeterministicAndCountPreserving)
{
    const auto base = cluster::traceBS();
    const auto hard = cluster::hardenPreemptions(base, 0.5, 11);
    const auto again = cluster::hardenPreemptions(base, 0.5, 11);
    ASSERT_EQ(hard.events().size(), base.events().size());
    int notices = 0, kills = 0, killed_instances = 0;
    for (std::size_t i = 0; i < hard.events().size(); ++i) {
        EXPECT_EQ(hard.events()[i].kind, again.events()[i].kind);
        EXPECT_EQ(hard.events()[i].time, base.events()[i].time);
        EXPECT_EQ(hard.events()[i].count, base.events()[i].count);
        if (hard.events()[i].kind == cluster::TraceEventKind::PreemptNotice)
            ++notices;
        if (hard.events()[i].kind == cluster::TraceEventKind::HardPreempt) {
            ++kills;
            killed_instances += hard.events()[i].count;
        }
    }
    // Half the notices (rounded) hardened; total churn unchanged.
    EXPECT_GT(kills, 0);
    EXPECT_EQ(hard.totalPreemptions(), base.totalPreemptions());
    EXPECT_EQ(hard.totalHardPreemptions(), killed_instances);
    EXPECT_NE(hard.name(), base.name());
    // fraction 0 is the identity.
    const auto same = cluster::hardenPreemptions(base, 0.0, 11);
    EXPECT_EQ(same.totalHardPreemptions(), 0);
    EXPECT_EQ(notices + kills,
              static_cast<int>([&] {
                  int n = 0;
                  for (const auto &e : base.events())
                      if (e.kind == cluster::TraceEventKind::PreemptNotice)
                          ++n;
                  return n;
              }()));
}

// ---------------------------------------------------------------------
// Cluster layer: the zero-notice kill path.
// ---------------------------------------------------------------------

struct RecordingListener : cluster::ClusterListener
{
    std::vector<int> ready, noticed, preempted, released;
    void onInstanceReady(const cluster::Instance &i) override
    {
        ready.push_back(i.id());
    }
    void onPreemptionNotice(const cluster::Instance &i, sim::SimTime) override
    {
        noticed.push_back(i.id());
    }
    void onInstancePreempted(const cluster::Instance &i) override
    {
        preempted.push_back(i.id());
    }
    void onInstanceReleased(const cluster::Instance &i) override
    {
        released.push_back(i.id());
    }
};

TEST(InstanceManagerFaultTest, HardPreemptSkipsTheNotice)
{
    sim::Simulation simulation;
    cluster::InstanceManager manager(simulation, kParams);
    RecordingListener listener;
    manager.setListener(&listener);
    manager.requestInstances(3, cluster::InstanceType::Spot);
    simulation.run(kParams.acquisitionLeadTime + 1.0);
    ASSERT_EQ(listener.ready.size(), 3u);

    const auto victims = manager.hardPreempt(2);
    EXPECT_EQ(victims.size(), 2u);
    EXPECT_TRUE(listener.noticed.empty());
    EXPECT_EQ(listener.preempted.size(), 2u);
    EXPECT_EQ(manager.hardPreemptions(), 2);
    EXPECT_EQ(manager.usableCount(), 1);
    for (int id : victims)
        EXPECT_FALSE(manager.get(id)->usable());

    // Killing a dead instance is a no-op, not an error.
    EXPECT_FALSE(manager.hardPreemptInstance(victims.front()));
    EXPECT_EQ(manager.hardPreemptions(), 2);
}

TEST(InstanceManagerFaultTest, TraceReplayDeliversHardKillsAndOverrides)
{
    using cluster::TraceEvent;
    using cluster::TraceEventKind;
    TraceEvent instant{40.0, TraceEventKind::PreemptNotice,
                       cluster::InstanceType::Spot, 1};
    instant.noticeOverride = 2.0; // provider honors 2 s, not the default
    cluster::AvailabilityTrace trace(
        "t", 100.0,
        {
            TraceEvent{0.0, TraceEventKind::Join,
                       cluster::InstanceType::Spot, 3},
            TraceEvent{20.0, TraceEventKind::HardPreempt,
                       cluster::InstanceType::Spot, 1},
            instant,
        });
    sim::Simulation simulation;
    cluster::InstanceManager manager(simulation, kParams);
    RecordingListener listener;
    manager.setListener(&listener);
    manager.loadTrace(trace);

    simulation.run(21.0);
    EXPECT_EQ(listener.preempted.size(), 1u); // hard kill, no notice
    EXPECT_TRUE(listener.noticed.empty());

    simulation.run(41.0);
    EXPECT_EQ(listener.noticed.size(), 1u);
    EXPECT_EQ(listener.preempted.size(), 1u); // grace still running
    simulation.run(43.0);
    EXPECT_EQ(listener.preempted.size(), 2u); // 2 s override, not default
}

// ---------------------------------------------------------------------
// Data plane: cancellable in-flight transfers.
// ---------------------------------------------------------------------

cost::TransferStep
step(int src, int dst, double bytes)
{
    cost::TransferStep s;
    s.transfers.push_back(cost::Transfer{src, dst, bytes});
    return s;
}

TEST(DataPlaneFaultTest, FailInstancePartialCompletionAccounting)
{
    sim::Simulation simulation;
    core::TransferDataPlane plane(simulation, kParams);

    const double bw = kParams.interBandwidth;
    std::vector<cost::TransferStep> steps = {
        step(0, 1, 2.0 * bw), // 2 s
        step(0, 1, 4.0 * bw), // 2..6 s
    };
    core::TransferDataPlane::PlanFailure seen;
    int done = 0, failed = 0;
    core::TransferDataPlane::SubmitOptions so;
    so.onDone = [&] { ++done; };
    so.onFail = [&](const core::TransferDataPlane::PlanFailure &f) {
        ++failed;
        seen = f;
    };
    const auto committed =
        plane.submit(steps, 0.0, /*interleave=*/false, std::move(so));
    EXPECT_GE(committed.planId, 0);
    EXPECT_NEAR(committed.makespan, 6.0, 1e-9);
    EXPECT_EQ(plane.inFlightCount(), 1);
    const auto sources = plane.inFlightInstances(/*sources_only=*/true);
    EXPECT_EQ(sources, std::vector<int>{0});

    // Kill the source at t=3: step 0 landed, step 1 is lost.
    simulation.run(3.0);
    EXPECT_EQ(plane.failInstance(0), 1);
    simulation.run(10.0);
    EXPECT_EQ(done, 0);
    EXPECT_EQ(failed, 1);
    EXPECT_EQ(seen.failedInstance, 0);
    EXPECT_FALSE(seen.timedOut);
    ASSERT_EQ(seen.stepLanded.size(), 2u);
    EXPECT_TRUE(seen.stepLanded[0]);
    EXPECT_FALSE(seen.stepLanded[1]);
    EXPECT_NEAR(seen.landedBytes, 2.0 * bw, 1e-6);
    EXPECT_NEAR(seen.lostBytes, 4.0 * bw, 1e-6);
    EXPECT_EQ(plane.inFlightCount(), 0);
    EXPECT_EQ(plane.plansCancelled(), 1);

    // The dead plan's links are free again: a fresh submit starts now.
    const auto after = plane.preview({step(2, 1, bw)}, 0.0, false);
    EXPECT_NEAR(after.makespan, 1.0, 1e-9);
}

TEST(DataPlaneFaultTest, UnrelatedPlansSurviveAnInstanceDeath)
{
    sim::Simulation simulation;
    core::TransferDataPlane plane(simulation, kParams);
    const double bw = kParams.interBandwidth;
    int done02 = 0;
    plane.submit({step(0, 1, 2.0 * bw)}, 0.0, false);
    plane.submit({step(2, 3, 2.0 * bw)}, 0.0, false,
                 [&] { ++done02; });
    EXPECT_EQ(plane.inFlightCount(), 2);
    EXPECT_EQ(plane.failInstance(0), 1);
    EXPECT_EQ(plane.inFlightCount(), 1);
    simulation.run(10.0);
    EXPECT_EQ(done02, 1);
}

TEST(DataPlaneFaultTest, BlackoutDelaysAndDeadlineTrips)
{
    sim::Simulation simulation;
    core::TransferDataPlane plane(simulation, kParams);
    const double bw = kParams.interBandwidth;

    int done = 0, failed = 0;
    bool sawTimeout = false;
    core::TransferDataPlane::SubmitOptions so;
    so.onDone = [&] { ++done; };
    so.onFail = [&](const core::TransferDataPlane::PlanFailure &f) {
        ++failed;
        sawTimeout = f.timedOut;
    };
    so.deadline = 5.0; // quote is 2 s; plenty — unless a fault stretches it
    plane.submit({step(0, 1, 2.0 * bw)}, 0.0, false, std::move(so));

    simulation.run(1.0);
    plane.stallInstanceLinks(0, 2.5); // finishes at 4.5 < 5: survives
    simulation.run(6.0);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(failed, 0);

    core::TransferDataPlane::SubmitOptions so2;
    so2.onDone = [&] { ++done; };
    so2.onFail = [&](const core::TransferDataPlane::PlanFailure &f) {
        ++failed;
        sawTimeout = f.timedOut;
    };
    so2.deadline = 4.0;
    plane.submit({step(2, 3, 2.0 * bw)}, 0.0, false, std::move(so2));
    simulation.run(7.0);
    plane.degradeInstanceLinks(2, 0.25); // 1 s left becomes 4 s: misses
    simulation.run(20.0);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(failed, 1);
    EXPECT_TRUE(sawTimeout);
    EXPECT_EQ(plane.planTimeouts(), 1);
}

// ---------------------------------------------------------------------
// Golden regression: the fault plane is invisible when unused.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h;
}

// Same pinned run as wallclock_test's golden regression, but driven with
// an armed (empty-plan) FaultInjector and the recovery-era system: proves
// the whole fault plane is a byte-identical no-op on fault-free runs.
TEST(FaultInjectionGoldenTest, EmptyPlanLeavesFig8ARunByteIdentical)
{
    const cluster::FaultPlan empty;
    serving::ExperimentOptions options;
    options.faultPlan = &empty;
    const auto result =
        presets::runStable(model::ModelSpec::opt6_7b(),
                           cluster::traceFig8A(), "SpotServe", 7, options);

    EXPECT_EQ(result.arrived, 1709);
    EXPECT_EQ(result.completed, 1709);
    EXPECT_EQ(result.unfinished, 0);
    EXPECT_EQ(result.tokensGenerated, 218752.0);
    EXPECT_EQ(result.configHistory.size(), 6u);
    EXPECT_EQ(result.hardPreemptions, 0);
    EXPECT_EQ(result.migrationAborts, 0);
    EXPECT_EQ(result.migrationRetries, 0);
    EXPECT_EQ(result.requestsRecovered, 0);
    EXPECT_EQ(result.salvagedBlocks, 0);
    EXPECT_EQ(result.liveKvRefsAtEnd, 0);

    std::uint64_t h = 14695981039346656037ULL;
    for (const auto &rec : result.perRequest) {
        h = fnv1a(h, static_cast<std::uint64_t>(rec.id));
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(rec.latency));
        std::memcpy(&bits, &rec.latency, sizeof(bits));
        h = fnv1a(h, bits);
    }
    EXPECT_EQ(h, 0xad0427b5a185a7f7ULL);
}

// ---------------------------------------------------------------------
// Chaos sweeps: crash consistency under random fault schedules.
// ---------------------------------------------------------------------

struct ChaosCase
{
    std::uint64_t seed;
    engine::KvAdmissionMode admission;
    bool prefixSharing;
};

serving::ExperimentResult
runChaos(const ChaosCase &c, bool fault_recovery = true)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::SeqSpec seq{};
    const double rate = presets::stableRate(spec);

    // Hostile availability (half the notices become zero-notice kills)
    // plus a seeded schedule of mid-migration kills and link faults.
    const auto trace =
        cluster::hardenPreemptions(cluster::traceBS(), 0.5, c.seed);
    const auto plan = cluster::FaultPlan::chaos(
        c.seed, trace.duration(), /*hard_kills=*/1, /*migration_kills=*/1,
        /*link_faults=*/2);

    core::SpotServeOptions options;
    options.designArrivalRate = rate;
    options.kvAdmissionMode = c.admission;
    options.prefixSharing = c.prefixSharing;
    options.faultRecovery = fault_recovery;

    sim::Rng rng(c.seed);
    const auto workload =
        wl::stationaryGamma(rate, 6.0, trace.duration(), seq, rng);

    serving::ExperimentOptions eo;
    eo.faultPlan = &plan;
    return serving::runExperiment(
        spec, cost::CostParams::awsG4dn(), trace, workload,
        presets::spotServeFactory(spec, cost::CostParams::awsG4dn(), seq,
                                  options),
        eo);
}

void
expectCrashConsistent(const serving::ExperimentResult &r)
{
    // Conservation: every arrival is accounted for exactly once.
    EXPECT_EQ(r.arrived, r.completed + r.rejected + r.unfinished);
    EXPECT_EQ(r.unfinished, 0) << "requests lost under faults";
    // No request served twice.
    std::set<wl::RequestId> ids;
    for (const auto &rec : r.perRequest)
        EXPECT_TRUE(ids.insert(rec.id).second)
            << "request " << rec.id << " completed twice";
    // No leaked KV block references once the queue drained.
    EXPECT_EQ(r.liveKvRefsAtEnd, 0);
    // The faults actually happened.
    EXPECT_GT(r.hardPreemptions, 0);
}

TEST(ChaosSweepTest, SpotServeSurvivesRandomFaultSchedules)
{
    const std::vector<ChaosCase> cases = {
        {101, engine::KvAdmissionMode::Optimistic, true},
        {202, engine::KvAdmissionMode::Optimistic, false},
        {303, engine::KvAdmissionMode::Reserve, true},
        {404, engine::KvAdmissionMode::Reserve, false},
    };
    long aborts = 0, recovered = 0, restarts = 0;
    for (const auto &c : cases) {
        SCOPED_TRACE("seed=" + std::to_string(c.seed));
        const auto r = runChaos(c);
        expectCrashConsistent(r);
        aborts += r.migrationAborts;
        recovered += r.requestsRecovered;
        restarts += r.restartedRequeues;
    }
    // The sweep must exercise the recovery machinery, not merely survive
    // quiet runs: across the cases some migration died mid-flight and
    // some knocked-off work crossed the restart path.
    EXPECT_GT(aborts, 0);
    EXPECT_GT(restarts, 0);
    (void)recovered; // may be 0 if every abort salvaged in-flight work
}

TEST(ChaosSweepTest, ArmedMidMigrationKillIsReported)
{
    // Every chaos plan arms one mid-migration kill; the result reports
    // whether it hit an in-flight transfer or fell back to a plain kill.
    const ChaosCase c{101, engine::KvAdmissionMode::Optimistic, true};
    const auto r = runChaos(c);
    EXPECT_GE(r.migrationKillsFired, 1);
    EXPECT_LE(r.migrationKillsFired + r.migrationKillFallbacks, 1);
}

TEST(ChaosSweepTest, AblationWithoutRecoveryStaysConsistent)
{
    // faultRecovery=false gives up salvage and pays cold restarts, but
    // the conservation invariants are not allowed to depend on the flag.
    const ChaosCase c{505, engine::KvAdmissionMode::Optimistic, true};
    const auto r = runChaos(c, /*fault_recovery=*/false);
    expectCrashConsistent(r);
    EXPECT_EQ(r.salvagedBlocks, 0);
    EXPECT_EQ(r.migrationRetries, 0);
}

TEST(ChaosSweepTest, ChaosRunsAreDeterministic)
{
    const ChaosCase c{606, engine::KvAdmissionMode::Optimistic, true};
    const auto a = runChaos(c);
    const auto b = runChaos(c);
    ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
    for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
        EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
        EXPECT_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
    }
    EXPECT_EQ(a.hardPreemptions, b.hardPreemptions);
    EXPECT_EQ(a.migrationAborts, b.migrationAborts);
    EXPECT_EQ(a.requestsRecovered, b.requestsRecovered);
}

} // namespace
} // namespace spotserve
