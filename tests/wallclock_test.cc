/**
 * @file
 * Wall-clock execution mode tests.
 *
 * Three layers:
 *  - a golden regression pinning the exact latency series of a fig8-style
 *    simulated run of each system, proving the Executor seam left the
 *    deterministic mode byte-identical;
 *  - unit tests for WallClockExecutor (ordering, cancellation, horizon,
 *    cross-thread injection, idle parking, time scaling);
 *  - a sim-vs-wallclock equivalence run: the same workload through
 *    runExperimentOn on both executors must complete the same request set
 *    with the same token counts (latencies carry real scheduling jitter,
 *    so the comparison is ordering- and timing-insensitive).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "cluster/trace_library.h"
#include "serving/presets.h"
#include "simcore/simulation.h"
#include "simcore/wallclock_executor.h"

namespace spotserve {
namespace {

// ---------------------------------------------------------------------
// Golden regression: deterministic mode is byte-identical.
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

// Pinned against the pre-refactor seed (commit 9bd1ce2 lineage): a full
// OPT-6.7B x fig8-A stable run of each system — SpotServe, and the two
// baselines that share its engine and reconfiguration loop.  The hash
// folds every completion's (id, latency double-bits) in completion
// order, so any change to event ordering, admission, or the engine shows
// up here.
TEST(GoldenRegressionTest, Fig8ASimulatedRunIsByteIdentical)
{
    struct Golden
    {
        const char *system;
        std::size_t configs;
        std::uint64_t hash;
        double mean;
        double p50;
        double p99;
        double max;
        double firstLatency;
    };
    const Golden goldens[] = {
        {"SpotServe", 6, 0xad0427b5a185a7f7ULL, 10.536114459068898,
         7.8199505191198568, 26.902070907237714, 31.408894704852401,
         65.094772131456239},
        {"Rerouting", 1, 0x4e99630197b68bf1ULL, 9.8153041473222533,
         7.8181655796103655, 24.840164931915307, 25.846609546815898,
         64.594772131456239},
        {"Reparallelization", 4, 0x20ed271444b4c467ULL, 27.865592630158609,
         16.023271738571566, 72.221930071826336, 77.104140153250228,
         64.594772131456239},
    };
    const auto spec = model::ModelSpec::opt6_7b();
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.system);
        const auto result =
            presets::runStable(spec, cluster::traceFig8A(), g.system);

        EXPECT_EQ(result.arrived, 1709);
        EXPECT_EQ(result.completed, 1709);
        EXPECT_EQ(result.unfinished, 0);
        EXPECT_EQ(result.rejected, 0);
        EXPECT_EQ(result.tokensGenerated, 218752.0);
        EXPECT_EQ(result.configHistory.size(), g.configs);

        std::uint64_t h = 14695981039346656037ULL;
        for (const auto &rec : result.perRequest) {
            h = fnv1a(h, static_cast<std::uint64_t>(rec.id));
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(rec.latency));
            std::memcpy(&bits, &rec.latency, sizeof(bits));
            h = fnv1a(h, bits);
        }
        EXPECT_EQ(h, g.hash);

        // Redundant with the hash, but these localize a breakage
        // instantly.
        EXPECT_EQ(result.latencies.count(), 1504u);
        EXPECT_EQ(result.latencies.mean(), g.mean);
        EXPECT_EQ(result.latencies.percentile(50), g.p50);
        EXPECT_EQ(result.latencies.percentile(99), g.p99);
        EXPECT_EQ(result.latencies.max(), g.max);
        ASSERT_FALSE(result.perRequest.empty());
        EXPECT_EQ(result.perRequest.front().id, 0);
        EXPECT_EQ(result.perRequest.front().latency, g.firstLatency);
        EXPECT_EQ(result.perRequest.back().id, 1708);
        EXPECT_EQ(result.perRequest.back().latency, 7.1847216489154562);
    }
}

// ---------------------------------------------------------------------
// WallClockExecutor unit tests.  timeScale >= 100 keeps every sleep in
// the low-millisecond range; all timing assertions are loose enough for
// a loaded CI machine.
// ---------------------------------------------------------------------

using sim::WallClockExecutor;

WallClockExecutor::Options
scaled(double scale)
{
    WallClockExecutor::Options o;
    o.timeScale = scale;
    return o;
}

TEST(WallClockExecutorTest, NowAdvancesWithRealTime)
{
    WallClockExecutor exec(scaled(100.0));
    const double t0 = exec.now();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double t1 = exec.now();
    EXPECT_GE(t1, t0);
    EXPECT_GE(t1 - t0, 0.5);  // >= 5 ms real elapsed at scale 100
    EXPECT_LT(t1 - t0, 60.0); // < 600 ms real: no runaway clock
}

TEST(WallClockExecutorTest, RunFiresInTimeOrder)
{
    WallClockExecutor exec(scaled(200.0));
    std::vector<int> order;
    exec.scheduleAfter(3.0, [&] { order.push_back(3); });
    exec.scheduleAfter(1.0, [&] { order.push_back(1); });
    exec.scheduleAfter(2.0, [&] { order.push_back(2); });
    EXPECT_EQ(exec.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(exec.idle());
    EXPECT_EQ(exec.eventsFired(), 3u);
}

TEST(WallClockExecutorTest, CallbackSeesNowPastItsDeadline)
{
    WallClockExecutor exec(scaled(500.0));
    double seen = -1.0;
    exec.scheduleAfter(2.0, [&] { seen = exec.now(); });
    exec.run();
    EXPECT_GE(seen, 2.0);
}

TEST(WallClockExecutorTest, PastDeadlinesFireImmediately)
{
    // Unlike Simulation, scheduling at/before now() is legal: the wall
    // clock can't revisit the past, so the event fires as soon as the
    // driver reaches it.
    WallClockExecutor exec(scaled(1000.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    bool fired = false;
    exec.schedule(0.0, [&] { fired = true; });
    const auto before = std::chrono::steady_clock::now();
    exec.run();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      before)
            .count();
    EXPECT_TRUE(fired);
    EXPECT_LT(elapsed, 1.0); // served immediately, not after 5 virtual s
}

TEST(WallClockExecutorTest, CancelPendingButNotFired)
{
    WallClockExecutor exec(scaled(500.0));
    bool cancelledFired = false;
    const sim::EventId doomed =
        exec.scheduleAfter(2.0, [&] { cancelledFired = true; });
    const sim::EventId kept = exec.scheduleAfter(1.0, [] {});
    EXPECT_TRUE(exec.cancel(doomed));
    EXPECT_EQ(exec.run(), 1u);
    EXPECT_FALSE(cancelledFired);
    EXPECT_FALSE(exec.cancel(kept));   // already fired: true no-op
    EXPECT_FALSE(exec.cancel(doomed)); // already cancelled
}

TEST(WallClockExecutorTest, RunHonoursHorizon)
{
    WallClockExecutor exec(scaled(500.0));
    bool late = false;
    exec.scheduleAfter(1.0, [] {});
    exec.scheduleAfter(100.0, [&] { late = true; });
    EXPECT_EQ(exec.run(50.0), 1u);
    EXPECT_FALSE(late);
    EXPECT_FALSE(exec.idle()); // the late event is still pending
    EXPECT_EQ(exec.run(), 1u);
    EXPECT_TRUE(late);
}

TEST(WallClockExecutorTest, StepFiresExactlyOne)
{
    WallClockExecutor exec(scaled(500.0));
    int fired = 0;
    exec.scheduleAfter(1.0, [&] { ++fired; });
    exec.scheduleAfter(2.0, [&] { ++fired; });
    EXPECT_TRUE(exec.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(exec.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(exec.step());
}

TEST(WallClockExecutorTest, EventsCanScheduleMoreEvents)
{
    WallClockExecutor exec(scaled(1000.0));
    std::vector<double> fireTimes;
    exec.scheduleAfter(1.0, [&] {
        fireTimes.push_back(exec.now());
        exec.scheduleAfter(1.0, [&] { fireTimes.push_back(exec.now()); });
    });
    EXPECT_EQ(exec.run(), 2u);
    ASSERT_EQ(fireTimes.size(), 2u);
    EXPECT_GE(fireTimes[1], fireTimes[0] + 1.0);
}

TEST(WallClockExecutorTest, InvalidTimesThrow)
{
    WallClockExecutor exec;
    EXPECT_THROW(exec.scheduleAfter(-1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(
        exec.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
        std::invalid_argument);
}

TEST(WallClockExecutorTest, TimeScaleCompressesRealTime)
{
    WallClockExecutor exec(scaled(200.0));
    exec.scheduleAfter(1.0, [] {}); // 1 virtual s = 5 ms real
    const auto before = std::chrono::steady_clock::now();
    exec.run();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      before)
            .count();
    EXPECT_GE(elapsed, 0.002);
    EXPECT_LT(elapsed, 2.0);
}

TEST(WallClockExecutorTest, StartParksWhenIdleAndAcceptsInjections)
{
    WallClockExecutor exec(scaled(1000.0));
    exec.start();
    EXPECT_TRUE(exec.running());

    // Inject from another thread while the driver is parked on an empty
    // queue — exactly what the socket ingress does.
    std::atomic<int> fired{0};
    std::thread injector([&] {
        for (int i = 0; i < 5; ++i)
            exec.scheduleAfter(0.5, [&] { fired.fetch_add(1); });
    });
    injector.join();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fired.load() < 5 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(fired.load(), 5);

    exec.stop();
    EXPECT_FALSE(exec.running());
}

TEST(WallClockExecutorTest, EarlierInjectionWakesSleepingDriver)
{
    WallClockExecutor exec; // timeScale 1: the far event is hours away
    exec.scheduleAfter(3600.0, [] {});
    exec.start();
    // Give the driver a moment to go to sleep on the far deadline, then
    // inject an event due (almost) immediately.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<bool> fired{false};
    exec.scheduleAfter(0.0, [&] { fired.store(true); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!fired.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(fired.load());
    exec.stop(); // far event still pending; destructor discards it
}

TEST(WallClockExecutorTest, StopInterruptsRun)
{
    WallClockExecutor exec;
    exec.scheduleAfter(3600.0, [] {});
    std::thread stopper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        exec.requestStop();
    });
    const std::uint64_t n = exec.run();
    stopper.join();
    EXPECT_EQ(n, 0u);
    EXPECT_FALSE(exec.idle());
}

// ---------------------------------------------------------------------
// Sim-vs-wallclock equivalence.
// ---------------------------------------------------------------------

// The same small stable-fleet workload through runExperimentOn on the
// deterministic Simulation and on a heavily time-compressed
// WallClockExecutor.  Real scheduling jitter shifts individual
// latencies (and anything derived from clock readings, e.g. arrival-rate
// estimates), so the invariants compared are timing-insensitive: which
// requests completed and how many tokens each produced.
TEST(SimWallClockEquivalenceTest, SameCompletionsAndTokens)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::CostParams params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};

    cluster::AvailabilityTrace trace(
        "stable-4", 60.0,
        {{0.0, cluster::TraceEventKind::Join, cluster::InstanceType::Spot,
          4}});

    wl::Workload workload;
    for (int i = 0; i < 24; ++i) {
        wl::Request r;
        r.id = i;
        r.arrival = 2.0 + 1.5 * i;
        r.inputLen = 512;
        r.outputLen = 8;
        workload.push_back(r);
    }

    core::SpotServeOptions options;
    options.designArrivalRate = presets::stableRate(spec);
    const auto factory =
        presets::spotServeFactory(spec, params, seq, options);

    serving::ExperimentOptions expOptions;
    expOptions.drainTimeout = 120.0;
    expOptions.warmupCutoff = 0.0;

    sim::Simulation simulation;
    const auto simResult = serving::runExperimentOn(
        simulation, spec, params, trace, workload, factory, expOptions);

    // 500x compression: the 180 virtual seconds replay in well under a
    // real second.
    sim::WallClockExecutor wall(scaled(500.0));
    const auto wallResult = serving::runExperimentOn(
        wall, spec, params, trace, workload, factory, expOptions);

    EXPECT_EQ(simResult.arrived, 24);
    EXPECT_EQ(wallResult.arrived, 24);
    EXPECT_EQ(simResult.completed, 24);
    EXPECT_EQ(wallResult.completed, 24);
    EXPECT_EQ(simResult.rejected, 0);
    EXPECT_EQ(wallResult.rejected, 0);
    EXPECT_EQ(simResult.tokensGenerated, wallResult.tokensGenerated);

    auto completedIds = [](const serving::ExperimentResult &r) {
        std::set<wl::RequestId> ids;
        for (const auto &rec : r.perRequest)
            ids.insert(rec.id);
        return ids;
    };
    EXPECT_EQ(completedIds(simResult), completedIds(wallResult));

    for (const auto &rec : wallResult.perRequest) {
        EXPECT_GT(rec.latency, 0.0);
        EXPECT_EQ(rec.restarts, 0);
    }
}

} // namespace
} // namespace spotserve
