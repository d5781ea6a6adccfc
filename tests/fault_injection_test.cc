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
 *    the pinned fig8-A run byte-identical, and a link fault reaching a
 *    baseline's cold restart;
 *  - seeded chaos sweeps: hostile traces x random fault schedules x
 *    admission modes x prefix sharing, asserting the crash-consistency
 *    invariants (nothing lost, nothing served twice, no leaked KV refs)
 *    and that recovery beats the abort-and-cold-restart ablation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "cluster/fault_injector.h"
#include "cluster/fault_plan.h"
#include "cluster/trace_library.h"
#include "core/transfer_data_plane.h"
#include "serving/presets.h"
#include "simcore/simulation.h"
#include "workload/workload.h"

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

// Faults reach a baseline's data plane too: Reparallelization loads its
// weights over the disk links, so a straggling disk during the first
// load holds the link past its quote and the restart that follows (the
// second half of the fleet joined while the first was loading) queues
// behind it.  Without the injector attached to the baseline's data
// plane the fault cannot fire and both runs activate at the same time.
TEST(BaselineFaultTest, LinkDegradeSlowsAReparallelizationColdRestart)
{
    using cluster::TraceEventKind;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::SeqSpec seq{};
    const double rate = 2.0;
    const cluster::AvailabilityTrace trace(
        "join-twice", 600.0,
        {{0.0, TraceEventKind::Join, cluster::InstanceType::Spot, 2},
         {10.0, TraceEventKind::Join, cluster::InstanceType::Spot, 2}});
    sim::Rng rng(5);
    const auto workload = wl::stationaryGamma(rate, 1.0, 600.0, seq, rng);
    const auto factory =
        presets::reparallelizationFactory(spec, kParams, seq, rate);

    cluster::FaultPlan degrade;
    cluster::FaultEvent e;
    e.time = 5.0;
    e.kind = cluster::FaultEvent::Kind::LinkDegrade;
    e.instance = 0;
    e.factor = 0.1;
    degrade.events.push_back(e);
    const cluster::FaultPlan none;

    serving::ExperimentOptions options;
    options.faultPlan = &none;
    const auto clean = serving::runExperiment(spec, kParams, trace, workload,
                                              factory, options);
    options.faultPlan = &degrade;
    const auto slowed = serving::runExperiment(spec, kParams, trace,
                                               workload, factory, options);

    // Both runs restart twice: the first load, then the full fleet.
    ASSERT_EQ(clean.configHistory.size(), 2u);
    ASSERT_EQ(slowed.configHistory.size(), 2u);
    EXPECT_EQ(slowed.configHistory[0].time, clean.configHistory[0].time);
    // The second restart waited for instance 0's degraded disk.
    EXPECT_GT(slowed.configHistory[1].time,
              clean.configHistory[1].time + 60.0);
    for (const auto *r : {&clean, &slowed}) {
        EXPECT_EQ(r->unfinished, 0);
        EXPECT_EQ(r->arrived, r->completed + r->rejected);
    }
}

// ---------------------------------------------------------------------
// Chaos sweeps: crash consistency under random fault schedules.
// ---------------------------------------------------------------------

struct ChaosCase
{
    std::uint64_t seed;
    engine::KvAdmissionMode admission;
    bool prefixSharing;
    /** The system variant under chaos; the case sets the rate and engine. */
    core::SpotServeOptions options{};
};

/**
 * The five ablated cumulative Figure 9 variants (bench/fig9_ablation.cpp):
 * synchronous reconfiguration, then the controller, migration planner,
 * interruption arranger and device mapper disabled in turn.
 */
std::vector<core::SpotServeOptions>
ablatedFig9Variants()
{
    std::vector<core::SpotServeOptions> out;
    core::SpotServeOptions o;
    o.overlappedReconfig = false;
    out.push_back(o);
    o.enableController = false;
    out.push_back(o);
    o.enableMigrationPlanner = false;
    out.push_back(o);
    o.enableArranger = false;
    out.push_back(o);
    o.enableDeviceMapper = false;
    out.push_back(o);
    return out;
}

/**
 * Move the plan's mid-migration kill to the hardened trace's first
 * availability change after the initial fleet joined, with a 30 s
 * patience.  On trace BS that change (a notice or, once hardened, a
 * zero-notice kill) starts a reconfiguration whose transfers are in
 * flight for about four seconds within ten seconds of it, on every
 * seed; the plan's random time often found no transfer in flight and
 * lapsed into a plain kill.  The first noticed preemption is no anchor
 * here: OPT-6.7B's notice-driven migrations late in the trace last
 * under a second, between two of the injector's once-a-second checks.
 */
void
armMigrationKillAtFirstChange(cluster::FaultPlan &plan,
                              const cluster::AvailabilityTrace &trace)
{
    const auto change = std::find_if(
        trace.events().begin(), trace.events().end(),
        [](const cluster::TraceEvent &e) { return e.time > 0.0; });
    ASSERT_NE(change, trace.events().end()) << "no availability change";
    for (auto &e : plan.events) {
        if (e.kind == cluster::FaultEvent::Kind::KillMigrationSource ||
            e.kind == cluster::FaultEvent::Kind::KillMigrationTarget) {
            e.time = change->time;
            e.patience = 30.0;
        }
    }
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const cluster::FaultEvent &a,
                        const cluster::FaultEvent &b) {
                         return a.time < b.time;
                     });
}

serving::ExperimentResult
runChaos(const ChaosCase &c)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::SeqSpec seq{};
    const double rate = presets::stableRate(spec);

    // Hostile availability (half the notices become zero-notice kills)
    // plus a seeded schedule of mid-migration kills and link faults.
    const auto trace =
        cluster::hardenPreemptions(cluster::traceBS(), 0.5, c.seed);
    auto plan = cluster::FaultPlan::chaos(
        c.seed, trace.duration(), /*hard_kills=*/1, /*migration_kills=*/1,
        /*link_faults=*/2);
    armMigrationKillAtFirstChange(plan, trace);

    core::SpotServeOptions options = c.options;
    options.designArrivalRate = rate;
    options.engine.kvAdmissionMode = c.admission;
    options.engine.prefixSharing = c.prefixSharing;

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
    std::vector<ChaosCase> cases = {
        {101, engine::KvAdmissionMode::Optimistic, true},
        {202, engine::KvAdmissionMode::Optimistic, false},
        {303, engine::KvAdmissionMode::Reserve, true},
        {404, engine::KvAdmissionMode::Reserve, false},
    };
    // Every Figure 9 variant, synchronous reconfiguration included,
    // commits its migrations on the transfer data plane, so the armed
    // kill must fire in each: one hardened seed per ablated variant.
    const auto variants = ablatedFig9Variants();
    const std::size_t seeded = cases.size();
    for (std::size_t v = 0; v < variants.size(); ++v) {
        ChaosCase c = cases[v % seeded];
        c.options = variants[v];
        cases.push_back(c);
    }
    long aborts = 0, recovered = 0, restarts = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &c = cases[i];
        SCOPED_TRACE("case " + std::to_string(i) +
                     " seed=" + std::to_string(c.seed));
        const auto r = runChaos(c);
        expectCrashConsistent(r);
        // The armed mid-migration kill hit an in-flight transfer.
        EXPECT_GE(r.migrationKillsFired, 1);
        EXPECT_EQ(r.migrationKillFallbacks, 0);
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
    ChaosCase c{505, engine::KvAdmissionMode::Optimistic, true};
    c.options.faultRecovery = false;
    const auto r = runChaos(c);
    expectCrashConsistent(r);
    EXPECT_EQ(r.salvagedBlocks, 0);
    EXPECT_EQ(r.migrationRetries, 0);
    EXPECT_GE(r.migrationKillsFired, 1);
    EXPECT_EQ(r.migrationKillFallbacks, 0);
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
    EXPECT_GE(a.migrationKillsFired, 1);
    EXPECT_EQ(a.migrationKillsFired, b.migrationKillsFired);
    EXPECT_EQ(a.migrationAborts, b.migrationAborts);
    EXPECT_EQ(a.requestsRecovered, b.requestsRecovered);
}

} // namespace
} // namespace spotserve
