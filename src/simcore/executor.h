/**
 * @file
 * Abstract execution substrate: the clock/scheduler seam every component
 * programs against.
 *
 * Two implementations exist.  sim::Simulation is the deterministic
 * discrete-event simulator (virtual clock, events fire back to back) used
 * by the experiments, benches and tests; sim::WallClockExecutor maps the
 * same event timeline onto the real monotonic clock (threaded event queue,
 * real sleeps) so the identical engine/controller/serving code can serve
 * live traffic.  Components hold a sim::Executor & and never know which
 * substrate is driving them.
 */

#ifndef SPOTSERVE_SIMCORE_EXECUTOR_H
#define SPOTSERVE_SIMCORE_EXECUTOR_H

#include <cstdint>
#include <stdexcept>

#include "simcore/event_queue.h"
#include "simcore/sim_time.h"

namespace spotserve {
namespace sim {

/**
 * Timed-callback scheduler with a monotonic clock.
 *
 * Contract shared by every implementation:
 *  - now() is monotonically non-decreasing.
 *  - Callbacks run one at a time (never concurrently with each other), in
 *    (time, schedule-order) sequence — (time, EventOrder) where order
 *    keys are supported, see below — with now() >= the scheduled time
 *    while the callback runs.  Components therefore need no internal
 *    locking; threaded implementations serialize callbacks on a single
 *    driver thread and only schedule()/scheduleAfter()/cancel()/now() may
 *    be called from other threads.
 *  - cancel() of an already-fired or unknown event is a harmless no-op.
 *
 * Ordered scheduling is an optional capability (supportsOrderKeys()).
 * An executor that has it orders same-time events by EventOrder: the
 * time each was scheduled, then a key.  A plain schedule() is ordered
 * (now(), its own sequence number), which is schedule order; with
 * scheduleOrdered() the caller states both, so an event planned ahead
 * can take the place it would have had if scheduled later (see
 * EventQueue, "Order keys").  The simulator has it; decorators and the
 * wall-clock executor keep the defaults, which mean "unsupported", and
 * callers then schedule one event at a time.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Current time in seconds (virtual or wall-derived). */
    virtual SimTime now() const = 0;

    /** Schedule @p fn at absolute time @p when. */
    virtual EventId schedule(SimTime when, EventCallback fn) = 0;

    /** Schedule @p fn @p delay seconds from now (delay >= 0). */
    virtual EventId scheduleAfter(SimTime delay, EventCallback fn) = 0;

    /** Cancel a pending event; no-op if already fired. */
    virtual bool cancel(EventId id) = 0;

    /**
     * Drive events on the calling thread until no event at or before
     * @p until remains (events at exactly @p until still fire).  The
     * simulator hops the clock between events; the wall-clock executor
     * sleeps the real gaps.
     * @return number of events fired by this call.
     */
    virtual std::uint64_t run(SimTime until = kTimeInfinity) = 0;

    /**
     * Fire exactly one pending event (the wall-clock executor first
     * sleeps until its deadline).
     * @retval true if an event fired.
     */
    virtual bool step() = 0;

    /** True when no events remain. */
    virtual bool idle() const = 0;

    /** Events fired since construction. */
    virtual std::uint64_t eventsFired() const = 0;

    /** True when scheduleOrdered() and firingOrder() are available. */
    virtual bool supportsOrderKeys() const { return false; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()), ordered among
     * same-time events by (@p after, @p key), @p after <= @p when: the
     * time the event is taken to have been scheduled, which may lie
     * ahead of now() for an event planned several steps early.  A
     * @p key of kFreshOrderKey draws a fresh key now and writes it
     * back.  The returned id is unique as schedule()'s is.
     * @throws std::logic_error unless supportsOrderKeys().
     */
    virtual EventId scheduleOrdered(SimTime when, SimTime after,
                                    OrderKey &key, EventCallback fn);

    /**
     * EventOrder of the event whose callback is running; kLastEventOrder
     * outside callbacks (after run() returns, every event at or before
     * now() counts as past).  Meaningful only if supportsOrderKeys().
     */
    virtual EventOrder firingOrder() const { return kLastEventOrder; }

  protected:
    Executor() = default;
    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;
};

inline EventId
Executor::scheduleOrdered(SimTime, SimTime, OrderKey &, EventCallback)
{
    throw std::logic_error("Executor: ordered scheduling unsupported");
}

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_EXECUTOR_H
