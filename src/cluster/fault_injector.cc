#include "cluster/fault_injector.h"

#include "core/transfer_data_plane.h"
#include "simcore/logging.h"

namespace spotserve {
namespace sim {

FaultInjector::FaultInjector(Executor &executor,
                             cluster::InstanceManager &instances,
                             cluster::FaultPlan plan)
    : sim_(executor), instances_(instances), plan_(std::move(plan)),
      rng_(plan_.seed)
{
}

void
FaultInjector::attachDataPlane(core::TransferDataPlane *data_plane)
{
    dataPlane_ = data_plane;
}

void
FaultInjector::arm()
{
    if (armed_)
        return;
    armed_ = true;
    for (const auto &event : plan_.events)
        sim_.schedule(event.time, [this, event] { fire(event); });
}

int
FaultInjector::pickVictim(const std::vector<int> &candidates)
{
    if (candidates.empty())
        return -1;
    return candidates[rng_.uniformInt(
        0, static_cast<std::int64_t>(candidates.size()) - 1)];
}

void
FaultInjector::fire(const cluster::FaultEvent &event)
{
    using Kind = cluster::FaultEvent::Kind;
    switch (event.kind) {
      case Kind::HardPreempt:
        if (event.instance >= 0) {
            if (instances_.hardPreemptInstance(event.instance))
                ++hardKillsFired_;
        } else {
            hardKillsFired_ += static_cast<long>(
                instances_.hardPreempt(event.count).size());
        }
        break;
      case Kind::KillMigrationSource:
      case Kind::KillMigrationTarget:
        fireMigrationKill(event, sim_.now() + event.patience);
        break;
      case Kind::LinkBlackout:
      case Kind::LinkDegrade:
        fireLinkFault(event);
        break;
    }
}

void
FaultInjector::fireMigrationKill(const cluster::FaultEvent &event,
                                 SimTime deadline)
{
    using Kind = cluster::FaultEvent::Kind;
    int victim = event.instance;
    if (victim < 0 && dataPlane_) {
        const bool sources_only = event.kind == Kind::KillMigrationSource;
        auto candidates = dataPlane_->inFlightInstances(sources_only);
        // Only kill instances that are actually still alive.
        std::vector<int> alive;
        for (int id : candidates) {
            const auto *inst = instances_.get(id);
            if (inst && inst->usable())
                alive.push_back(id);
        }
        victim = pickVictim(alive);
    }
    if (victim >= 0 && instances_.hardPreemptInstance(victim)) {
        ++migrationKillsFired_;
        if (sim::logEnabled(sim::LogLevel::Debug)) {
            sim::logDebug("t=" + std::to_string(sim_.now()) +
                          " fault injector: mid-migration kill of instance " +
                          std::to_string(victim));
        }
        return;
    }
    // Nothing in flight yet: defer until a migration starts, so the
    // fault cannot silently miss its window.
    if (sim_.now() + event.retryInterval <= deadline) {
        sim_.scheduleAfter(event.retryInterval, [this, event, deadline] {
            fireMigrationKill(event, deadline);
        });
        return;
    }
    // Patience exhausted: degrade to a plain unannounced kill.
    ++migrationKillFallbacks_;
    hardKillsFired_ +=
        static_cast<long>(instances_.hardPreempt(1).size());
}

void
FaultInjector::fireLinkFault(const cluster::FaultEvent &event)
{
    using Kind = cluster::FaultEvent::Kind;
    if (!dataPlane_)
        return;
    int victim = event.instance;
    if (victim < 0) {
        auto candidates = dataPlane_->inFlightInstances(false);
        if (candidates.empty()) {
            for (const auto *inst : instances_.usableInstances())
                candidates.push_back(inst->id());
        }
        victim = pickVictim(candidates);
    }
    if (victim < 0)
        return;
    ++linkFaultsFired_;
    if (event.kind == Kind::LinkBlackout)
        dataPlane_->stallInstanceLinks(victim, event.duration);
    else
        dataPlane_->degradeInstanceLinks(victim, event.factor);
}

} // namespace sim
} // namespace spotserve
