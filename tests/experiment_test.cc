/**
 * @file
 * Tests for the request manager and the experiment driver.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "plain_order_executor.h"
#include "simcore/simulation.h"
#include "cluster/trace_library.h"
#include "serving/presets.h"
#include "serving/request_manager.h"

namespace spotserve::serving {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

wl::Request
req(wl::RequestId id, sim::SimTime arrival)
{
    wl::Request r;
    r.id = id;
    r.arrival = arrival;
    return r;
}

TEST(RequestManagerTest, FifoBatching)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    for (int i = 0; i < 5; ++i)
        mgr.submit(req(i, 0.0));
    EXPECT_EQ(mgr.pendingCount(), 5u);
    const auto batch = mgr.nextBatch(3);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].request.id, 0);
    EXPECT_EQ(batch[2].request.id, 2);
    EXPECT_EQ(mgr.pendingCount(), 2u);
}

TEST(RequestManagerTest, RequeueRestoresArrivalOrder)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    mgr.submit(req(0, 0.0));
    mgr.submit(req(1, 1.0));
    mgr.submit(req(2, 2.0));
    auto batch = mgr.nextBatch(2); // ids 0, 1 leave the queue
    // They get interrupted and restarted.
    for (auto &r : batch)
        r.resetForRestart();
    mgr.requeue(batch);
    const auto next = mgr.nextBatch(3);
    ASSERT_EQ(next.size(), 3u);
    EXPECT_EQ(next[0].request.id, 0);
    EXPECT_EQ(next[1].request.id, 1);
    EXPECT_EQ(next[2].request.id, 2);
}

TEST(RequestManagerTest, RequeueRejectsUncommittedProgress)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    engine::ActiveRequest r;
    r.request = req(0, 0.0);
    r.committedTokens = 5;
    EXPECT_THROW(mgr.requeue({r}), std::invalid_argument);
}

TEST(RequestManagerTest, ArrivalRateWindows)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    // 1 req/s for 30 s, then silence for 30 s.
    for (int i = 0; i < 30; ++i) {
        sim.schedule(static_cast<double>(i),
                     [&mgr, i] { mgr.submit(req(i, i)); });
    }
    sim.run(30.0);
    EXPECT_NEAR(mgr.estimatedArrivalRate(), 1.0, 0.1);
    sim.run(60.0);
    // Short window decays; longer window remembers.
    EXPECT_LT(mgr.estimatedArrivalRate(30.0), 0.05);
    EXPECT_NEAR(mgr.estimatedArrivalRate(60.0), 0.5, 0.1);
}

TEST(RequestManagerTest, CompletionMetrics)
{
    sim::Simulation sim;
    RequestManager mgr(sim);
    mgr.submit(req(0, 0.0));
    auto batch = mgr.nextBatch(1);
    sim.schedule(12.5, [&] { mgr.complete(batch[0]); });
    sim.run();
    EXPECT_EQ(mgr.completedCount(), 1);
    EXPECT_DOUBLE_EQ(mgr.latencies().mean(), 12.5);
    EXPECT_DOUBLE_EQ(mgr.tokensGenerated(), 128.0);
    EXPECT_EQ(mgr.unfinishedCount(), 0);
}

TEST(ExperimentDriverTest, CountsAreConsistent)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const auto r = presets::runStable(spec, cluster::traceAS(), "SpotServe");
    EXPECT_EQ(r.arrived, r.completed + r.unfinished);
    EXPECT_EQ(static_cast<long>(r.perRequest.size()), r.completed);
    EXPECT_GT(r.costUsd, 0.0);
    EXPECT_EQ(r.modelName, "OPT-6.7B");
    EXPECT_EQ(r.traceName, "AS");
    EXPECT_EQ(r.systemName, "SpotServe");
}

TEST(ExperimentDriverTest, WarmupExcludedFromLatencyStats)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const auto trace = cluster::traceAS();
    sim::Rng rng(7);
    const auto workload = wl::stationaryGamma(1.5, 6.0, trace.duration(),
                                              kSeq, rng);
    const auto factory =
        presets::factoryByName("SpotServe", spec, kParams, kSeq, 1.5);

    ExperimentOptions with;
    with.warmupCutoff = 120.0;
    ExperimentOptions without;
    without.warmupCutoff = 0.0;
    const auto a = serving::runExperiment(spec, kParams, trace, workload,
                                          factory, with);
    const auto b = serving::runExperiment(spec, kParams, trace, workload,
                                          factory, without);
    EXPECT_LT(a.latencies.count(), b.latencies.count());
    // The cold start dominates the unwarmed tail.
    EXPECT_GE(b.latencies.max(), a.latencies.max());
}

TEST(ExperimentDriverTest, CostScalesWithFleet)
{
    using cluster::AvailabilityTrace;
    using cluster::InstanceType;
    using cluster::TraceEvent;
    using cluster::TraceEventKind;
    const auto spec = model::ModelSpec::gpt20b();
    auto fleet = [&](int n) {
        AvailabilityTrace trace(
            "t", 1200.0,
            {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, n}});
        return presets::runStable(spec, trace, "SpotServe").costUsd;
    };
    const double c4 = fleet(4);
    const double c8 = fleet(8);
    EXPECT_NEAR(c8 / c4, 2.0, 0.01);
}

/** A Simulation with its order keys, counting the scheduleOrdered calls
 *  and those that name a time before now(). */
class CheckedOrderExecutor : public PlainOrderExecutor
{
  public:
    explicit CheckedOrderExecutor(sim::Simulation &inner)
        : PlainOrderExecutor(inner), inner_(inner)
    {
    }
    bool supportsOrderKeys() const override { return true; }
    sim::EventId scheduleOrdered(sim::SimTime when, sim::SimTime after,
                                 sim::OrderKey &key,
                                 sim::EventCallback fn) override
    {
        ++ordered;
        if (when < inner_.now() || after > when)
            ++past;
        return inner_.scheduleOrdered(when, after, key, std::move(fn));
    }
    sim::EventOrder firingOrder() const override
    {
        return inner_.firingOrder();
    }

    long ordered = 0;
    long past = 0;

  private:
    sim::Simulation &inner_;
};

// The arrival cursor keeps one arrival pending at a time.  A hand-built
// workload out of arrival order, with runs of equal arrival times, must
// arrive in stable time order: the same completions, in the same order
// and with the same latencies, as the whole workload scheduled up front
// (an executor without order keys), and no arrival is scheduled in the
// past.  A marker event due at an arrival time, scheduled after setup
// but before the previous arrival, still fires after that arrival, as
// it did when every arrival was scheduled at setup.
TEST(ExperimentDriverTest, ArrivalCursorMatchesTheUpFrontSchedule)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cluster::AvailabilityTrace trace(
        "steady", 600.0,
        {cluster::TraceEvent{0.0, cluster::TraceEventKind::Join,
                             cluster::InstanceType::Spot, 2}});
    wl::Workload workload;
    for (int i = 0; i < 40; ++i) {
        wl::Request r = req(i, 60.0 + 5.0 * ((i * 7) % 6));
        r.inputLen = 128 + 64 * (i % 3);
        r.outputLen = 32 + 16 * (i % 5);
        workload.push_back(r);
    }
    ASSERT_FALSE(std::is_sorted(workload.begin(), workload.end(),
                                [](const wl::Request &a,
                                   const wl::Request &b) {
                                    return a.arrival < b.arrival;
                                }));
    for (const char *system : {"SpotServe", "Rerouting"}) {
        SCOPED_TRACE(system);
        const auto inner = presets::factoryByName(
            system, spec, kParams, kSeq, presets::stableRate(spec));
        const RequestManager *requests = nullptr;
        const SystemFactory factory = [&](sim::Executor &exec,
                                          cluster::InstanceManager &inst,
                                          RequestManager &reqs) {
            requests = &reqs;
            return inner(exec, inst, reqs);
        };
        long seen_at_marker[2] = {-1, -1};
        auto mark = [&](sim::Simulation &sim, long &seen) {
            sim.schedule(1.0, [&sim, &seen, &requests] {
                sim.schedule(65.0,
                             [&seen, &requests] {
                                 seen = requests->arrivedCount();
                             });
            });
        };
        sim::Simulation a_sim;
        CheckedOrderExecutor cursor(a_sim);
        mark(a_sim, seen_at_marker[0]);
        const auto a = runExperimentOn(cursor, spec, kParams, trace,
                                       workload, factory);
        sim::Simulation b_sim;
        PlainOrderExecutor upfront(b_sim);
        mark(b_sim, seen_at_marker[1]);
        const auto b = runExperimentOn(upfront, spec, kParams, trace,
                                       workload, factory);
        const long by_marker = std::count_if(
            workload.begin(), workload.end(),
            [](const wl::Request &r) { return r.arrival <= 65.0; });
        EXPECT_EQ(seen_at_marker[1], by_marker);
        EXPECT_EQ(seen_at_marker[0], by_marker);
        EXPECT_GE(cursor.ordered, static_cast<long>(workload.size()));
        EXPECT_EQ(cursor.past, 0);
        EXPECT_EQ(a.arrived, 40);
        EXPECT_EQ(a.completed, 40);
        ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
        for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
            EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
            EXPECT_EQ(a.perRequest[i].arrival, b.perRequest[i].arrival);
            EXPECT_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
        }
    }
}

} // namespace
} // namespace spotserve::serving
