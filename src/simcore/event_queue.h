/**
 * @file
 * Deterministic pending-event set for the discrete-event simulator.
 *
 * Events are ordered by (time, EventOrder): among events due at the same
 * instant, by the time each was scheduled ("after"), then by an order key.
 * A plain schedule uses the event's own sequence number as its key (the
 * simulator passes its clock as "after", schedule() here -inf); since
 * clocks never run backwards, two plain events due at the same instant
 * fire in the order they were scheduled, independent of heap internals.
 * This determinism is load-bearing: the serving experiments and the
 * regression tests compare exact latency series across runs.
 *
 * Order keys.  scheduleOrdered() lets a caller state both levels.  A key
 * is a sequence number drawn from the same counter as the plain
 * schedules (pass kFreshOrderKey and the event's own number is used and
 * written back), so keyed and plain events interleave in the order their
 * keys were drawn.  An engine replica that plans k iterations ahead
 * schedules the k-th iteration's end with "after" set to the end of the
 * (k-1)-th — when one-iteration steps would have scheduled it — and with
 * the key it drew at its last batch change.  Among same-time events whose
 * "after" differs that is exactly the one-step order; only a tie on both
 * times falls back to the keys.  Keys order events; they never identify
 * them (see Ids).
 *
 * Layout.  The binary heap holds plain 32-byte (time, after, key, id)
 * nodes; the callbacks live in a slot table (a vector with a free list),
 * so sifting moves four words per level instead of a std::function, and
 * scheduling allocates nothing once the table has grown to the peak
 * pending count.
 *
 * Ids.  An EventId carries a fresh schedule sequence number in its high
 * 40 bits and the slot index in its low 24 bits, for keyed events too, so
 * an id names exactly one occupancy of its slot: a slot reused by a later
 * event carries a different sequence number, so a stale id can neither
 * cancel nor be mistaken for the new occupant.  Events equal on every
 * level (a keyed chain's cancelled node and its replacement) break the
 * tie by id.
 *
 * Lazy cancellation.  cancel() is O(1): it checks that the slot still
 * holds that id, then frees the slot (dropping the callback).  The heap
 * node stays behind and is discarded when it surfaces at the top, since
 * its id no longer matches its slot.  cancelledBacklog() counts these
 * stale nodes; each is purged the moment it reaches the top, so the
 * backlog is bounded by the cancelled-but-not-yet-due events.
 *
 * Limits.  At most 2^24 events may be pending at once and at most 2^40
 * may ever be scheduled on one queue; exceeding either throws
 * std::length_error rather than wrapping an id.
 */

#ifndef SPOTSERVE_SIMCORE_EVENT_QUEUE_H
#define SPOTSERVE_SIMCORE_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/sim_time.h"

namespace spotserve {
namespace sim {

/** Action executed when an event fires. */
using EventCallback = std::function<void()>;

/** Same-time ordering key of an event (see EventQueue, "Order keys"). */
using OrderKey = std::uint64_t;
/** Passed to scheduleOrdered(): draw a fresh key for this event. */
constexpr OrderKey kFreshOrderKey = 0;

/** Where an event sits among events due at the same time. */
struct EventOrder
{
    /** When the event was scheduled, or would have been. */
    SimTime after;
    OrderKey key;

    bool
    operator<(const EventOrder &o) const
    {
        return after != o.after ? after < o.after : key < o.key;
    }
};

/** Orders after every event (none is firing). */
constexpr EventOrder kLastEventOrder{kTimeInfinity, ~OrderKey{0}};

/**
 * Priority queue of timed callbacks with O(log n) schedule/pop and
 * O(1) lazy cancellation.
 */
class EventQueue
{
  public:
    /** Low EventId bits holding the slot index. */
    static constexpr int kSlotBits = 24;
    /** Most events that may be pending at once. */
    static constexpr std::size_t kMaxPending = std::size_t{1} << kSlotBits;

    /**
     * Schedule @p fn to fire at absolute time @p when, after every event
     * already scheduled for that instant.
     * @return a handle usable with cancel().
     * @throws std::length_error past kMaxPending pending events or
     *         2^40 schedules.
     */
    EventId schedule(SimTime when, EventCallback fn);

    /**
     * Schedule @p fn at @p when, ordered among same-time events by
     * (@p after, @p key).  A @p key of kFreshOrderKey is replaced by the
     * event's own sequence number, which the caller may reuse for later
     * events.  schedule() is scheduleOrdered(when, -inf, fresh key, fn).
     * @throws std::length_error as schedule().
     */
    EventId scheduleOrdered(SimTime when, SimTime after, OrderKey &key,
                            EventCallback fn);

    /**
     * Cancel a previously scheduled event.  Cancelling an already-fired or
     * unknown event is a harmless no-op.
     * @retval true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** @return true if no live (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live pending events. */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event; kTimeInfinity when empty. */
    SimTime nextTime() const;

    /**
     * Remove and return the earliest live event.
     * @pre !empty()
     */
    struct Fired
    {
        SimTime time;
        EventOrder order;
        EventId id;
        EventCallback fn;
    };
    Fired pop();

    /** Drop every pending event (used when tearing a simulation down). */
    void clear();

    /**
     * Cancelled events whose heap nodes have not surfaced yet
     * (diagnostic: this backlog must stay bounded).
     */
    std::size_t cancelledBacklog() const { return heap_.size() - live_; }

  private:
    struct Node
    {
        SimTime time;
        EventOrder order;
        EventId id;
    };

    struct Later
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            if (a.order.after != b.order.after)
                return a.order.after > b.order.after;
            if (a.order.key != b.order.key)
                return a.order.key > b.order.key;
            return a.id > b.id;
        }
    };

    struct Slot
    {
        EventCallback fn;
        /** Id of the live occupant; kInvalidEventId while free. */
        EventId id = kInvalidEventId;
    };

    static std::size_t slotOf(EventId id)
    {
        return static_cast<std::size_t>(id & (kMaxPending - 1));
    }

    /** Discard stale (cancelled) nodes sitting at the top of the heap.
     *  Const because it changes no observable state: nextTime() uses it
     *  to peek. */
    void skipStale() const;

    /** Store @p fn under a fresh id and push its heap node. */
    EventId push(SimTime when, SimTime after, OrderKey &key,
                 EventCallback fn);

    /** Min-heap under Later (std::push_heap / std::pop_heap). */
    mutable std::vector<Node> heap_;
    std::vector<Slot> slots_;
    std::vector<std::size_t> freeSlots_;
    std::size_t live_ = 0;
    /** Next schedule sequence number (starts at 1: no id is ever 0). */
    std::uint64_t nextSeq_ = 1;
};

} // namespace sim
} // namespace spotserve

#endif // SPOTSERVE_SIMCORE_EVENT_QUEUE_H
