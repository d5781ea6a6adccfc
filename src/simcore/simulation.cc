#include "simcore/simulation.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace spotserve {
namespace sim {

EventId
Simulation::schedule(SimTime when, EventCallback fn)
{
    if (when < now_)
        throw std::invalid_argument("Simulation::schedule: time in the past");
    OrderKey key = kFreshOrderKey;
    return queue_.scheduleOrdered(when, now_, key, std::move(fn));
}

EventId
Simulation::scheduleAfter(SimTime delay, EventCallback fn)
{
    if (delay < 0.0)
        throw std::invalid_argument("Simulation::scheduleAfter: negative delay");
    OrderKey key = kFreshOrderKey;
    return queue_.scheduleOrdered(now_ + delay, now_, key, std::move(fn));
}

EventId
Simulation::scheduleOrdered(SimTime when, SimTime after, OrderKey &key,
                            EventCallback fn)
{
    if (when < now_ || after > when)
        throw std::invalid_argument(
            "Simulation::scheduleOrdered: time in the past");
    return queue_.scheduleOrdered(when, after, key, std::move(fn));
}

void
Simulation::fireNext()
{
    auto ev = queue_.pop();
    assert(ev.time >= now_ && "event queue went backwards in time");
    now_ = ev.time;
    firing_ = ev.order;
    ev.fn();
    firing_ = kLastEventOrder;
    ++eventsFired_;
}

std::uint64_t
Simulation::run(SimTime until)
{
    std::uint64_t fired = 0;
    while (!queue_.empty() && queue_.nextTime() <= until) {
        fireNext();
        ++fired;
    }
    // Park the clock at the horizon so subsequent scheduling is relative to
    // the requested stop time, matching how callers reason about run(until).
    if (until != kTimeInfinity && until > now_)
        now_ = until;
    return fired;
}

bool
Simulation::step()
{
    if (queue_.empty())
        return false;
    fireNext();
    return true;
}

} // namespace sim
} // namespace spotserve
