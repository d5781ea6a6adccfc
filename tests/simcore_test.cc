/**
 * @file
 * Unit and property tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"
#include "simcore/stats.h"

namespace spotserve::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    while (!q.empty())
        q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5.0, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.pop().fn();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent)
{
    EventQueue q;
    EventId id = q.schedule(1.0, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(kInvalidEventId));
    EXPECT_FALSE(q.cancel(9999));
}

// Regression: cancelling an id that already fired used to insert a
// permanent tombstone and decrement the live count, so a later event
// could make the queue report empty() while still holding live work.
TEST(EventQueueTest, CancelAfterFireIsTrueNoOp)
{
    EventQueue q;
    EventId fired = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    q.pop().fn(); // fires `fired`
    EXPECT_FALSE(q.cancel(fired));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
    EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
    EXPECT_EQ(q.cancelledBacklog(), 0u); // no tombstone planted
    q.pop();
    EXPECT_TRUE(q.empty());
}

// Regression: repeated cancel-after-fire must not underflow the live
// count — a fresh event scheduled afterwards has to stay visible.
TEST(EventQueueTest, CancelAfterFireDoesNotCorruptLiveCount)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(q.schedule(1.0 + i, [] {}));
    while (!q.empty())
        q.pop();
    for (EventId id : ids)
        EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.size(), 0u);

    bool fired = false;
    q.schedule(50.0, [&] { fired = true; });
    EXPECT_EQ(q.size(), 1u);
    q.pop().fn();
    EXPECT_TRUE(fired);
}

// Tombstones from genuine cancellations are purged as their heap entries
// surface, so the cancelled-id set stays bounded on a long-running
// (wall-clock) process.
TEST(EventQueueTest, CancelledTombstonesArePurged)
{
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(static_cast<SimTime>(i), [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2)
        EXPECT_TRUE(q.cancel(ids[i]));
    EXPECT_EQ(q.cancelledBacklog(), 50u);
    while (!q.empty())
        q.pop();
    EXPECT_EQ(q.cancelledBacklog(), 0u);
}

TEST(EventQueueTest, SizeTracksLiveEvents)
{
    EventQueue q;
    EventId a = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    q.pop();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled)
{
    EventQueue q;
    EventId a = q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    q.cancel(a);
    EXPECT_DOUBLE_EQ(q.nextTime(), 2.0);
}

TEST(EventQueueTest, ClearEmptiesEverything)
{
    EventQueue q;
    q.schedule(1.0, [] {});
    q.schedule(2.0, [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(q.nextTime(), kTimeInfinity);
}

/** Slot index an EventId names (its low EventQueue::kSlotBits bits). */
std::size_t
slotOf(EventId id)
{
    return static_cast<std::size_t>(id % EventQueue::kMaxPending);
}

// A cancelled or fired event frees its slot for the next schedule; the
// old id must not reach the new occupant through the shared slot.
TEST(EventQueueTest, StaleIdCannotCancelSlotReuser)
{
    EventQueue q;
    bool fired = false;
    const EventId cancelled = q.schedule(1.0, [] {});
    EXPECT_TRUE(q.cancel(cancelled));
    const EventId reuser = q.schedule(2.0, [&] { fired = true; });
    ASSERT_EQ(slotOf(reuser), slotOf(cancelled));
    ASSERT_NE(reuser, cancelled);
    EXPECT_FALSE(q.cancel(cancelled));
    EXPECT_EQ(q.size(), 1u);

    // Same for an id that fired: the slot's next occupant survives.
    q.pop().fn();
    EXPECT_TRUE(fired);
    fired = false;
    const EventId next = q.schedule(3.0, [&] { fired = true; });
    ASSERT_EQ(slotOf(next), slotOf(reuser));
    EXPECT_FALSE(q.cancel(reuser));
    EXPECT_FALSE(q.cancel(cancelled));
    ASSERT_EQ(q.size(), 1u);
    EXPECT_DOUBLE_EQ(q.nextTime(), 3.0);
    q.pop().fn();
    EXPECT_TRUE(fired);
    EXPECT_TRUE(q.empty());
}

// Freed slots are reused out of index order; equal-time events must
// still fire in schedule order, not slot order.
TEST(EventQueueTest, TiesBreakByScheduleOrderAcrossSlotReuse)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(q.schedule(5.0, [&order, i] { order.push_back(i); }));
    EXPECT_TRUE(q.cancel(ids[1]));
    EXPECT_TRUE(q.cancel(ids[3]));
    // These two land in the freed slots 3 and 1, below slots 2 and 4.
    const EventId late5 =
        q.schedule(5.0, [&order] { order.push_back(5); });
    const EventId late6 =
        q.schedule(5.0, [&order] { order.push_back(6); });
    EXPECT_LT(slotOf(late6), slotOf(ids[2]));
    EXPECT_LT(slotOf(late5), slotOf(ids[4]));
    while (!q.empty())
        q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 5, 6}));
    EXPECT_EQ(q.cancelledBacklog(), 0u);
}

// An event that cancels itself, cancels a same-time peer, or
// reschedules from inside its own callback: its own id is already
// spent (cancel is a no-op even once the rescheduled event reuses its
// slot), the peer never fires, and the rescheduled event fires after
// every event already due at that time.
// Same-time events order by when they were scheduled, then by key.  A
// key drawn by one keyed event and reused by a later one places the later
// event where the first sat: ahead of a plain event scheduled in
// between.  An event planned early takes the place of a later schedule.
TEST(EventQueueTest, OrderKeysPlaceKeyedEventsAmongSameTimeEvents)
{
    EventQueue q;
    std::vector<int> order;
    OrderKey key = kFreshOrderKey;
    q.scheduleOrdered(5.0, 1.0, key, [&] { order.push_back(0); });
    ASSERT_NE(key, kFreshOrderKey);
    const OrderKey drawn = key;
    OrderKey plain = kFreshOrderKey;
    q.scheduleOrdered(5.0, 1.0, plain, [&] { order.push_back(1); });
    q.scheduleOrdered(5.0, 1.0, key, [&] { order.push_back(2); });
    EXPECT_EQ(key, drawn);
    q.schedule(4.0, [&] { order.push_back(3); });
    // Scheduled first, but taken to be scheduled at t=2 (after the rest).
    OrderKey early = kFreshOrderKey;
    q.scheduleOrdered(5.0, 2.0, early, [&] { order.push_back(4); });
    OrderKey late = kFreshOrderKey;
    q.scheduleOrdered(5.0, 0.5, late, [&] { order.push_back(5); });
    while (!q.empty())
        q.pop().fn();
    EXPECT_EQ(order, (std::vector<int>{3, 5, 0, 2, 1, 4}));
}

// Keys order events but never identify them: a cancelled keyed event and
// its replacement at the same time, key and slot still carry distinct
// ids, so the stale id cannot cancel the replacement.
TEST(EventQueueTest, KeyedReplacementKeepsIdsUnique)
{
    EventQueue q;
    OrderKey key = kFreshOrderKey;
    bool old_fired = false, new_fired = false;
    const EventId a =
        q.scheduleOrdered(5.0, 0.0, key, [&] { old_fired = true; });
    EXPECT_TRUE(q.cancel(a));
    const EventId b =
        q.scheduleOrdered(5.0, 0.0, key, [&] { new_fired = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.size(), 1u);
    q.pop().fn();
    EXPECT_TRUE(new_fired);
    EXPECT_FALSE(old_fired);
    EXPECT_TRUE(q.empty());
}

TEST(SimulationTest, FiringOrderIsTheRunningEventsOrder)
{
    Simulation sim;
    EXPECT_TRUE(sim.supportsOrderKeys());
    OrderKey key = kFreshOrderKey;
    EventOrder seen_keyed{}, seen_plain{};
    sim.scheduleOrdered(1.0, 0.5, key,
                        [&] { seen_keyed = sim.firingOrder(); });
    sim.schedule(1.0, [&] { seen_plain = sim.firingOrder(); });
    sim.run();
    EXPECT_EQ(seen_keyed.after, 0.5);
    EXPECT_EQ(seen_keyed.key, key);
    EXPECT_EQ(seen_plain.after, 0.0); // scheduled at now() = 0
    EXPECT_TRUE(seen_plain < seen_keyed);
    EXPECT_EQ(sim.firingOrder().after, kTimeInfinity);
    OrderKey past = kFreshOrderKey;
    EXPECT_THROW(sim.scheduleOrdered(0.5, 0.0, past, [] {}),
                 std::invalid_argument);
}

TEST(SimulationTest, CallbackCancelsAndReschedulesFromInside)
{
    Simulation sim;
    std::vector<std::string> order;
    EventId self = kInvalidEventId;
    EventId peer = kInvalidEventId;
    EventId again = kInvalidEventId;
    bool self_cancel = true;
    bool peer_cancel = false;
    self = sim.schedule(1.0, [&] {
        order.push_back("self");
        again = sim.schedule(1.0, [&] { order.push_back("again"); });
        self_cancel = sim.cancel(self);
        peer_cancel = sim.cancel(peer);
    });
    peer = sim.schedule(1.0, [&] { order.push_back("peer"); });
    sim.schedule(1.0, [&] { order.push_back("tail"); });
    sim.run();
    EXPECT_FALSE(self_cancel);
    EXPECT_TRUE(peer_cancel);
    EXPECT_EQ(slotOf(again), slotOf(self));
    EXPECT_EQ(order,
              (std::vector<std::string>{"self", "tail", "again"}));
    EXPECT_EQ(sim.eventsFired(), 3u);
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulationTest, ClockAdvancesWithEvents)
{
    Simulation sim;
    double seen = -1.0;
    sim.schedule(4.5, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 4.5);
    EXPECT_DOUBLE_EQ(sim.now(), 4.5);
}

TEST(SimulationTest, RunUntilStopsAtHorizon)
{
    Simulation sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(10.0, [&] { ++fired; });
    EXPECT_EQ(sim.run(5.0), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents)
{
    Simulation sim;
    int chain = 0;
    std::function<void()> tick = [&] {
        if (++chain < 5)
            sim.scheduleAfter(1.0, tick);
    };
    sim.scheduleAfter(1.0, tick);
    sim.run();
    EXPECT_EQ(chain, 5);
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulationTest, SchedulingInPastThrows)
{
    Simulation sim;
    sim.schedule(5.0, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule(1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.scheduleAfter(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulationTest, CancelledEventDoesNotFire)
{
    Simulation sim;
    bool fired = false;
    EventId id = sim.schedule(1.0, [&] { fired = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.eventsFired(), 0u);
}

TEST(SimulationTest, StepFiresExactlyOne)
{
    Simulation sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(RngTest, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
    EXPECT_NE(a.uniform(), c.uniform());
}

TEST(RngTest, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(RngTest, UniformIntInclusive)
{
    Rng rng(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesRate)
{
    Rng rng(3);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.exponential(2.0));
    EXPECT_NEAR(stat.mean(), 0.5, 0.02);
}

/** Gamma intervals must hit the requested mean and CV (paper: CV = 6). */
class GammaCvTest : public ::testing::TestWithParam<double>
{
};

TEST_P(GammaCvTest, MeanAndCvMatch)
{
    const double cv = GetParam();
    Rng rng(7);
    RunningStat stat;
    for (int i = 0; i < 200000; ++i)
        stat.add(rng.gammaInterval(2.0, cv));
    EXPECT_NEAR(stat.mean(), 2.0, 0.15 * cv);
    EXPECT_NEAR(stat.cv(), cv, 0.15 * cv);
}

INSTANTIATE_TEST_SUITE_P(CvSweep, GammaCvTest,
                         ::testing::Values(0.5, 1.0, 2.0, 6.0));

TEST(RngTest, GammaRejectsBadArgs)
{
    Rng rng(1);
    EXPECT_THROW(rng.gammaInterval(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(rng.gammaInterval(1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(LatencyRecorderTest, EmptyIsZero)
{
    LatencyRecorder r;
    EXPECT_EQ(r.count(), 0u);
    EXPECT_DOUBLE_EQ(r.mean(), 0.0);
    EXPECT_DOUBLE_EQ(r.percentile(99), 0.0);
    EXPECT_DOUBLE_EQ(r.max(), 0.0);
}

TEST(LatencyRecorderTest, BasicMoments)
{
    LatencyRecorder r;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        r.add(v);
    EXPECT_DOUBLE_EQ(r.mean(), 2.5);
    EXPECT_DOUBLE_EQ(r.min(), 1.0);
    EXPECT_DOUBLE_EQ(r.max(), 4.0);
    EXPECT_DOUBLE_EQ(r.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(r.percentile(100), 4.0);
    EXPECT_DOUBLE_EQ(r.percentile(50), 2.5);
}

TEST(LatencyRecorderTest, PercentileInterpolates)
{
    LatencyRecorder r;
    r.add(0.0);
    r.add(10.0);
    EXPECT_DOUBLE_EQ(r.percentile(25), 2.5);
    EXPECT_DOUBLE_EQ(r.percentile(99), 9.9);
}

TEST(LatencyRecorderTest, PercentileMonotone)
{
    LatencyRecorder r;
    Rng rng(11);
    for (int i = 0; i < 500; ++i)
        r.add(rng.uniform(0.0, 100.0));
    double prev = 0.0;
    for (double p = 0; p <= 100; p += 1.0) {
        const double v = r.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(LatencyRecorderTest, SummaryConsistent)
{
    LatencyRecorder r;
    for (int i = 1; i <= 100; ++i)
        r.add(static_cast<double>(i));
    const auto s = r.summary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.avg, 50.5);
    EXPECT_DOUBLE_EQ(s.p99, r.percentile(99));
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_LE(s.p90, s.p95);
    EXPECT_LE(s.p95, s.p99);
}

TEST(LatencyRecorderTest, InterleavedAddAndQuery)
{
    LatencyRecorder r;
    r.add(5.0);
    EXPECT_DOUBLE_EQ(r.percentile(50), 5.0);
    r.add(1.0);
    EXPECT_DOUBLE_EQ(r.percentile(0), 1.0);
    r.clear();
    EXPECT_EQ(r.count(), 0u);
}

TEST(RunningStatTest, MatchesClosedForm)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_NEAR(s.cv(), 0.4, 1e-12);
}

TEST(FormatSecondsTest, PicksUnits)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500s");
    EXPECT_EQ(formatSeconds(0.0421), "42.1ms");
}

} // namespace
} // namespace spotserve::sim
