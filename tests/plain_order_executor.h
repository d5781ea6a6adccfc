/**
 * @file
 * Test executor: forwards to a Simulation but lacks order keys, so every
 * pipeline on it schedules one iteration per event in plain schedule
 * order — the reference that strided runs must reproduce.
 */

#ifndef SPOTSERVE_TESTS_PLAIN_ORDER_EXECUTOR_H
#define SPOTSERVE_TESTS_PLAIN_ORDER_EXECUTOR_H

#include <utility>

#include "simcore/executor.h"
#include "simcore/simulation.h"

namespace spotserve {

class PlainOrderExecutor : public sim::Executor
{
  public:
    explicit PlainOrderExecutor(sim::Simulation &inner) : inner_(inner) {}
    sim::SimTime now() const override { return inner_.now(); }
    sim::EventId schedule(sim::SimTime when, sim::EventCallback fn) override
    {
        return inner_.schedule(when, std::move(fn));
    }
    sim::EventId scheduleAfter(sim::SimTime delay,
                               sim::EventCallback fn) override
    {
        return inner_.scheduleAfter(delay, std::move(fn));
    }
    bool cancel(sim::EventId id) override { return inner_.cancel(id); }
    std::uint64_t run(sim::SimTime until) override
    {
        return inner_.run(until);
    }
    bool step() override { return inner_.step(); }
    bool idle() const override { return inner_.idle(); }
    std::uint64_t eventsFired() const override
    {
        return inner_.eventsFired();
    }

  private:
    sim::Simulation &inner_;
};

} // namespace spotserve

#endif // SPOTSERVE_TESTS_PLAIN_ORDER_EXECUTOR_H
