#include "cluster/instance_manager.h"

#include <algorithm>
#include <stdexcept>

#include "simcore/logging.h"

namespace spotserve {
namespace cluster {

InstanceManager::InstanceManager(sim::Executor &executor,
                                 const cost::CostParams &params,
                                 std::uint64_t victim_seed)
    : sim_(executor), params_(params), victimRng_(victim_seed)
{
}

void
InstanceManager::loadTrace(const AvailabilityTrace &trace)
{
    for (const auto &event : trace.events()) {
        switch (event.kind) {
          case TraceEventKind::Join:
            for (int k = 0; k < event.count; ++k) {
                // Create lazily at fire time so ids reflect join order.
                sim_.schedule(event.time, [this, type = event.type] {
                    Instance &inst = create(type, sim_.now());
                    fireReady(inst.id());
                });
            }
            break;
          case TraceEventKind::PreemptNotice:
            sim_.schedule(event.time, [this, count = event.count,
                                       grace = event.noticeOverride] {
                firePreemptNotice(count, grace);
            });
            break;
          case TraceEventKind::HardPreempt:
            sim_.schedule(event.time, [this, count = event.count] {
                hardPreempt(count);
            });
            break;
          case TraceEventKind::Release:
            sim_.schedule(event.time,
                          [this, type = event.type, count = event.count] {
                              fireRelease(type, count);
                          });
            break;
        }
    }
}

std::vector<InstanceId>
InstanceManager::requestInstances(int count, InstanceType type)
{
    std::vector<InstanceId> ids;
    for (int k = 0; k < count; ++k) {
        const sim::SimTime ready = sim_.now() + params_.acquisitionLeadTime;
        Instance &inst = create(type, ready);
        ids.push_back(inst.id());
        sim_.schedule(ready, [this, id = inst.id()] { fireReady(id); });
    }
    return ids;
}

int
InstanceManager::releaseInstances(int count, bool ondemand_first)
{
    int released = 0;
    auto release_of_type = [&](InstanceType type) {
        // Youngest-first so long-lived instances keep their warm context.
        for (auto it = instances_.rbegin();
             it != instances_.rend() && released < count; ++it) {
            Instance &inst = **it;
            if (inst.type() == type &&
                inst.state() == InstanceState::Running) {
                releaseInstance(inst.id());
                ++released;
            }
        }
    };
    if (ondemand_first)
        release_of_type(InstanceType::OnDemand);
    release_of_type(InstanceType::Spot);
    if (ondemand_first && released < count)
        release_of_type(InstanceType::OnDemand);
    return released;
}

void
InstanceManager::releaseInstance(InstanceId id)
{
    Instance *inst = const_cast<Instance *>(get(id));
    if (!inst)
        throw std::out_of_range("InstanceManager::releaseInstance: bad id");
    if (inst->state() == InstanceState::Preempted ||
        inst->state() == InstanceState::Released) {
        return;
    }
    inst->markReleased(sim_.now());
    if (listener_)
        listener_->onInstanceReleased(*inst);
}

const Instance *
InstanceManager::get(InstanceId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= instances_.size())
        return nullptr;
    return instances_[id].get();
}

std::vector<const Instance *>
InstanceManager::usableInstances() const
{
    std::vector<const Instance *> out;
    for (const auto &inst : instances_) {
        if (inst->usable())
            out.push_back(inst.get());
    }
    return out;
}

std::vector<const Instance *>
InstanceManager::survivingInstances() const
{
    std::vector<const Instance *> out;
    for (const auto &inst : instances_) {
        if (inst->state() == InstanceState::Running)
            out.push_back(inst.get());
    }
    return out;
}

std::vector<const Instance *>
InstanceManager::provisioningInstances() const
{
    std::vector<const Instance *> out;
    for (const auto &inst : instances_) {
        if (inst->state() == InstanceState::Provisioning)
            out.push_back(inst.get());
    }
    return out;
}

int
InstanceManager::planningCount() const
{
    int n = 0;
    for (const auto &inst : instances_) {
        if (inst->state() == InstanceState::Running ||
            inst->state() == InstanceState::Provisioning) {
            ++n;
        }
    }
    return n;
}

int
InstanceManager::usableCount() const
{
    int n = 0;
    for (const auto &inst : instances_) {
        if (inst->usable())
            ++n;
    }
    return n;
}

double
InstanceManager::accruedCost(sim::SimTime now) const
{
    double usd = 0.0;
    for (const auto &inst : instances_) {
        const double hourly = inst->type() == InstanceType::Spot
                                  ? params_.spotPricePerHour
                                  : params_.ondemandPricePerHour;
        usd += billedSeconds(*inst, now) / 3600.0 * hourly;
    }
    return usd;
}

double
InstanceManager::spotInstanceHours(sim::SimTime now) const
{
    double secs = 0.0;
    for (const auto &inst : instances_) {
        if (inst->type() == InstanceType::Spot)
            secs += billedSeconds(*inst, now);
    }
    return secs / 3600.0;
}

double
InstanceManager::ondemandInstanceHours(sim::SimTime now) const
{
    double secs = 0.0;
    for (const auto &inst : instances_) {
        if (inst->type() == InstanceType::OnDemand)
            secs += billedSeconds(*inst, now);
    }
    return secs / 3600.0;
}

Instance &
InstanceManager::create(InstanceType type, sim::SimTime ready_time)
{
    const InstanceId id = static_cast<InstanceId>(instances_.size());
    instances_.push_back(std::make_unique<Instance>(
        id, type, params_.gpusPerInstance, ready_time));
    return *instances_.back();
}

void
InstanceManager::fireReady(InstanceId id)
{
    Instance *inst = const_cast<Instance *>(get(id));
    if (!inst || inst->state() != InstanceState::Provisioning)
        return; // Released while provisioning.
    inst->markRunning(sim_.now());
    if (sim::logEnabled(sim::LogLevel::Debug)) {
        sim::logDebug("t=" + std::to_string(sim_.now()) + " " +
                      inst->str() + " ready");
    }
    if (listener_)
        listener_->onInstanceReady(*inst);
}

void
InstanceManager::firePreemptNotice(int count, double grace_override)
{
    const double grace =
        grace_override >= 0.0 ? grace_override : params_.gracePeriod;
    for (int k = 0; k < count; ++k) {
        // The cloud reclaims arbitrary spare capacity: draw the victim
        // uniformly among running spot instances (seeded, reproducible).
        std::vector<Instance *> candidates;
        for (const auto &inst : instances_) {
            if (inst->type() == InstanceType::Spot &&
                inst->state() == InstanceState::Running) {
                candidates.push_back(inst.get());
            }
        }
        if (candidates.empty()) {
            sim::logWarn("preemption notice with no running spot instance");
            return;
        }
        Instance *victim = candidates[victimRng_.uniformInt(
            0, static_cast<std::int64_t>(candidates.size()) - 1)];
        const sim::SimTime preempt_at = sim_.now() + grace;
        victim->markGrace(sim_.now(), preempt_at);
        if (listener_)
            listener_->onPreemptionNotice(*victim, preempt_at);
        sim_.schedule(preempt_at,
                      [this, id = victim->id()] { firePreempt(id); });
    }
}

std::vector<InstanceId>
InstanceManager::hardPreempt(int count)
{
    std::vector<InstanceId> victims;
    for (int k = 0; k < count; ++k) {
        std::vector<Instance *> candidates;
        for (const auto &inst : instances_) {
            if (inst->type() == InstanceType::Spot &&
                inst->state() == InstanceState::Running) {
                candidates.push_back(inst.get());
            }
        }
        if (candidates.empty()) {
            sim::logWarn("hard preemption with no running spot instance");
            break;
        }
        Instance *victim = candidates[victimRng_.uniformInt(
            0, static_cast<std::int64_t>(candidates.size()) - 1)];
        victims.push_back(victim->id());
        hardPreemptInstance(victim->id());
    }
    return victims;
}

bool
InstanceManager::hardPreemptInstance(InstanceId id)
{
    Instance *inst = const_cast<Instance *>(get(id));
    if (!inst || !inst->usable())
        return false;
    // No notice: the listener learns of the death only after the fact.
    // An instance already in its grace period simply dies early.
    inst->markPreempted(sim_.now());
    ++hardPreemptions_;
    if (sim::logEnabled(sim::LogLevel::Debug)) {
        sim::logDebug("t=" + std::to_string(sim_.now()) + " " +
                      inst->str() + " hard-preempted (no notice)");
    }
    if (listener_)
        listener_->onInstancePreempted(*inst);
    return true;
}

void
InstanceManager::firePreempt(InstanceId id)
{
    Instance *inst = const_cast<Instance *>(get(id));
    if (!inst || inst->state() != InstanceState::GracePeriod)
        return;
    inst->markPreempted(sim_.now());
    if (listener_)
        listener_->onInstancePreempted(*inst);
}

void
InstanceManager::fireRelease(InstanceType type, int count)
{
    int released = 0;
    for (auto it = instances_.rbegin();
         it != instances_.rend() && released < count; ++it) {
        if ((*it)->type() == type &&
            (*it)->state() == InstanceState::Running) {
            releaseInstance((*it)->id());
            ++released;
        }
    }
    if (released < count)
        sim::logWarn("trace release found too few instances");
}

double
InstanceManager::billedSeconds(const Instance &inst, sim::SimTime now) const
{
    // Billing runs from readiness to termination (or `now` while alive).
    const sim::SimTime start = inst.readyTime();
    sim::SimTime end;
    switch (inst.state()) {
      case InstanceState::Provisioning:
        return 0.0;
      case InstanceState::Running:
      case InstanceState::GracePeriod:
        end = now;
        break;
      default:
        end = inst.endTime();
        break;
    }
    return std::max(0.0, end - start);
}

} // namespace cluster
} // namespace spotserve
