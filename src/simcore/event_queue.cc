#include "simcore/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace spotserve {
namespace sim {

namespace {

/** Sequence numbers fill the EventId bits above the slot index. */
constexpr std::uint64_t kMaxSeq =
    (std::uint64_t{1} << (64 - EventQueue::kSlotBits)) - 1;

} // namespace

EventId
EventQueue::schedule(SimTime when, EventCallback fn)
{
    OrderKey key = kFreshOrderKey;
    return push(when, -kTimeInfinity, key, std::move(fn));
}

EventId
EventQueue::scheduleOrdered(SimTime when, SimTime after, OrderKey &key,
                            EventCallback fn)
{
    return push(when, after, key, std::move(fn));
}

EventId
EventQueue::push(SimTime when, SimTime after, OrderKey &key,
                 EventCallback fn)
{
    if (nextSeq_ > kMaxSeq)
        throw std::length_error("EventQueue: event sequence exhausted");
    std::size_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        if (slots_.size() >= kMaxPending)
            throw std::length_error("EventQueue: too many pending events");
        slot = slots_.size();
        slots_.emplace_back();
    }
    const std::uint64_t seq = nextSeq_++;
    const EventId id = (seq << kSlotBits) | slot;
    slots_[slot].fn = std::move(fn);
    slots_[slot].id = id;
    if (key == kFreshOrderKey)
        key = seq;
    heap_.push_back(Node{when, EventOrder{after, key}, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    // Only a live event can be cancelled: an id that never existed,
    // already fired, or was already cancelled no longer matches its slot
    // (the slot is free or holds a later occupant) and is a no-op.
    const std::size_t slot = slotOf(id);
    if (id == kInvalidEventId || slot >= slots_.size() ||
        slots_[slot].id != id)
        return false;
    slots_[slot].fn = nullptr;
    slots_[slot].id = kInvalidEventId;
    freeSlots_.push_back(slot);
    --live_;
    // Lazy cancellation: the heap node is discarded when it surfaces.
    return true;
}

SimTime
EventQueue::nextTime() const
{
    if (live_ == 0)
        return kTimeInfinity;
    skipStale();
    return heap_.front().time;
}

EventQueue::Fired
EventQueue::pop()
{
    skipStale();
    assert(!heap_.empty() && "pop() on empty EventQueue");
    const Node top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    Slot &s = slots_[slotOf(top.id)];
    Fired fired{top.time, top.order, top.id, std::move(s.fn)};
    s.fn = nullptr;
    s.id = kInvalidEventId;
    freeSlots_.push_back(slotOf(top.id));
    --live_;
    return fired;
}

void
EventQueue::clear()
{
    heap_.clear();
    slots_.clear();
    freeSlots_.clear();
    live_ = 0;
}

void
EventQueue::skipStale() const
{
    while (!heap_.empty() &&
           slots_[slotOf(heap_.front().id)].id != heap_.front().id) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

} // namespace sim
} // namespace spotserve
