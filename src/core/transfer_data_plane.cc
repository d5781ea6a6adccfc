#include "core/transfer_data_plane.h"

#include <algorithm>
#include <cmath>

namespace spotserve {
namespace core {

namespace {
constexpr double kEps = 1e-9;

double
stepBytes(const cost::TransferStep &step)
{
    double bytes = 0.0;
    for (const auto &t : step.transfers)
        bytes += std::max(t.bytes, 0.0);
    for (const auto &[inst, b] : step.coldLoads)
        bytes += std::max(b, 0.0);
    return bytes;
}
} // namespace

TransferDataPlane::TransferDataPlane(sim::Executor &executor,
                                     const cost::CostParams &params)
    : executor_(executor), scheduler_(params)
{
}

bool
TransferDataPlane::touchesBusyLink(
    const std::vector<cost::TransferStep> &steps) const
{
    const double now = executor_.now();
    auto busy = [&](const cost::LinkId &l) {
        auto it = busyUntil_.find(l);
        return it != busyUntil_.end() && it->second > now + 1e-12;
    };
    for (const auto &s : steps) {
        for (const auto &t : s.transfers) {
            if (t.bytes <= 0.0)
                continue;
            if (t.srcInstance == t.dstInstance) {
                if (busy({cost::LinkType::Pcie, t.srcInstance}))
                    return true;
            } else if (busy({cost::LinkType::NicSend, t.srcInstance}) ||
                       busy({cost::LinkType::NicRecv, t.dstInstance})) {
                return true;
            }
        }
        for (const auto &[inst, bytes] : s.coldLoads) {
            if (bytes > 0.0 && busy({cost::LinkType::Disk, inst}))
                return true;
        }
    }
    return false;
}

bool
TransferDataPlane::stepTouches(const cost::TransferStep &step, int instance)
{
    for (const auto &t : step.transfers) {
        if (t.bytes > 0.0 &&
            (t.srcInstance == instance || t.dstInstance == instance)) {
            return true;
        }
    }
    for (const auto &[inst, bytes] : step.coldLoads) {
        if (bytes > 0.0 && inst == instance)
            return true;
    }
    return false;
}

bool
TransferDataPlane::planRemainderTouches(const InFlight &plan,
                                        int instance) const
{
    const double now = executor_.now();
    for (std::size_t s = 0; s < plan.steps.size(); ++s) {
        const double finish =
            s < plan.stepFinishAbs.size() ? plan.stepFinishAbs[s]
                                          : plan.finishAbs;
        if (finish > now + kEps && stepTouches(plan.steps[s], instance))
            return true;
    }
    return false;
}

TransferDataPlane::Quote
TransferDataPlane::preview(std::vector<cost::TransferStep> steps,
                           double setup_time, bool interleave) const
{
    const double now = executor_.now();
    cost::LinkScheduleOptions opts;
    opts.interleave = interleave;
    opts.startTime = now;
    opts.setupTime = setup_time;
    Quote out;
    out.schedule = scheduler_.build(steps, opts, busyUntil_);
    out.stepStart.reserve(out.schedule.stepStart.size());
    out.stepFinish.reserve(out.schedule.stepFinish.size());
    for (double s : out.schedule.stepStart)
        out.stepStart.push_back(s - now);
    for (double f : out.schedule.stepFinish)
        out.stepFinish.push_back(f - now);
    out.makespan = out.schedule.makespan - now;
    out.contended = touchesBusyLink(steps);
    out.steps = std::move(steps);
    out.setupTime = setup_time;
    out.interleave = interleave;
    out.builtAt = now;
    out.revision = busyRevision_;
    return out;
}

TransferDataPlane::Result
TransferDataPlane::submit(const std::vector<cost::TransferStep> &steps,
                          double setup_time, bool interleave,
                          std::function<void()> on_done)
{
    SubmitOptions options;
    options.onDone = std::move(on_done);
    return submit(preview(steps, setup_time, interleave), std::move(options));
}

TransferDataPlane::Result
TransferDataPlane::submit(const std::vector<cost::TransferStep> &steps,
                          double setup_time, bool interleave,
                          SubmitOptions options)
{
    return submit(preview(steps, setup_time, interleave), std::move(options));
}

TransferDataPlane::Result
TransferDataPlane::submit(Quote quote, SubmitOptions options)
{
    const double now = executor_.now();
    if (quote.revision != busyRevision_ || quote.builtAt != now) {
        // The links moved (or time passed) since the preview: quote again.
        quote = preview(std::move(quote.steps), quote.setupTime,
                        quote.interleave);
    }
    cost::LinkScheduleResult &sched = quote.schedule;

    InFlight plan;
    plan.id = nextPlanId_++;
    plan.stepFinishAbs = sched.stepFinish;
    plan.finishAbs = now + std::max(quote.makespan, 0.0);
    plan.onDone = std::move(options.onDone);
    plan.onFail = std::move(options.onFail);
    // Remember which links this plan extends (and from where), so an
    // abort can hand back the unused reservation tail.
    std::vector<std::pair<cost::LinkId, double>> finishes;
    finishes.reserve(2 * sched.slices.size());
    for (const auto &slice : sched.slices) {
        for (int k = 0; k < slice.numLinks; ++k)
            finishes.emplace_back(slice.links[k], slice.finish);
    }
    std::sort(finishes.begin(), finishes.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (std::size_t i = 0; i < finishes.size();) {
        InFlight::LinkHold hold;
        hold.link = finishes[i].first;
        for (; i < finishes.size() && finishes[i].first == hold.link; ++i)
            hold.horizon = std::max(hold.horizon, finishes[i].second);
        auto it = busyUntil_.find(hold.link);
        hold.before = it == busyUntil_.end() ? 0.0 : it->second;
        plan.holds.push_back(hold);
    }

    // Commit: the schedule's link occupancy becomes the new busy state.
    busyUntil_ = std::move(sched.linkBusyUntil);
    ++busyRevision_;
    prune();

    ++submissions_;
    if (quote.contended)
        ++contendedSubmissions_;
    plan.steps = std::move(quote.steps);

    Result out = std::move(static_cast<Result &>(quote));
    out.planId = plan.id;
    if (options.deadline > 0.0) {
        plan.deadlineAbs = now + options.deadline;
        executor_.schedule(plan.deadlineAbs, [this, id = plan.id] {
            auto it = inFlight_.find(id);
            if (it != inFlight_.end() &&
                it->second.finishAbs > it->second.deadlineAbs + kEps) {
                failPlan(id, -1, /*timed_out=*/true);
            }
        });
    }
    auto [it, inserted] = inFlight_.emplace(plan.id, std::move(plan));
    (void)inserted;
    scheduleCompletion(it->second);
    return out;
}

double
TransferDataPlane::submitColdLoad(
    const std::vector<std::pair<int, double>> &loads,
    std::function<void()> on_done)
{
    std::vector<cost::TransferStep> steps(1);
    steps[0].coldLoads = loads;
    const Result r =
        submit(steps, /*setup_time=*/0.0, /*interleave=*/true,
               std::move(on_done));
    return r.makespan;
}

void
TransferDataPlane::scheduleCompletion(InFlight &plan)
{
    const double delay = std::max(plan.finishAbs - executor_.now(), 0.0);
    executor_.scheduleAfter(delay, [this, id = plan.id, rev = plan.rev] {
        completePlan(id, rev);
    });
}

void
TransferDataPlane::completePlan(PlanId id, long rev)
{
    auto it = inFlight_.find(id);
    if (it == inFlight_.end() || it->second.rev != rev)
        return; // Cancelled, failed, or rescheduled behind a link fault.
    auto on_done = std::move(it->second.onDone);
    inFlight_.erase(it);
    if (on_done)
        on_done();
}

void
TransferDataPlane::failPlan(PlanId id, int failed_instance, bool timed_out)
{
    auto it = inFlight_.find(id);
    if (it == inFlight_.end())
        return;
    InFlight &plan = it->second;
    const double now = executor_.now();

    PlanFailure failure;
    failure.planId = id;
    failure.failedInstance = failed_instance;
    failure.timedOut = timed_out;
    failure.stepLanded.reserve(plan.steps.size());
    for (std::size_t s = 0; s < plan.steps.size(); ++s) {
        const double finish =
            s < plan.stepFinishAbs.size() ? plan.stepFinishAbs[s]
                                          : plan.finishAbs;
        const bool landed = finish <= now + kEps;
        failure.stepLanded.push_back(landed);
        const double bytes = stepBytes(plan.steps[s]);
        if (landed)
            failure.landedBytes += bytes;
        else
            failure.lostBytes += bytes;
    }
    if (timed_out)
        ++planTimeouts_;
    else
        ++plansCancelled_;

    releasePlanLinks(plan);
    auto on_fail = std::move(plan.onFail);
    inFlight_.erase(it);
    if (on_fail) {
        // Deliver in a fresh event: the failure often arrives from inside
        // a cluster-listener callback, and recovery wants a clean stack.
        executor_.schedule(now, [cb = std::move(on_fail),
                                 f = std::move(failure)] { cb(f); });
    }
}

void
TransferDataPlane::releasePlanLinks(const InFlight &plan)
{
    const double now = executor_.now();
    ++busyRevision_;
    for (const auto &hold : plan.holds) {
        auto it = busyUntil_.find(hold.link);
        if (it == busyUntil_.end())
            continue;
        // Only hand back the tail if no later plan extended this link.
        if (std::abs(it->second - hold.horizon) < kEps) {
            if (hold.before <= now)
                busyUntil_.erase(it);
            else
                it->second = hold.before;
        }
    }
}

int
TransferDataPlane::failInstance(int instance)
{
    std::vector<PlanId> doomed;
    for (const auto &[id, plan] : inFlight_) {
        if (planRemainderTouches(plan, instance))
            doomed.push_back(id);
    }
    for (PlanId id : doomed)
        failPlan(id, instance, /*timed_out=*/false);
    return static_cast<int>(doomed.size());
}

bool
TransferDataPlane::cancelPlan(PlanId id)
{
    auto it = inFlight_.find(id);
    if (it == inFlight_.end())
        return false;
    releasePlanLinks(it->second);
    inFlight_.erase(it);
    ++plansCancelled_;
    return true;
}

void
TransferDataPlane::delayPlan(InFlight &plan, double delay)
{
    const double now = executor_.now();
    for (double &finish : plan.stepFinishAbs) {
        if (finish > now + kEps)
            finish += delay;
    }
    plan.finishAbs += delay;
    ++busyRevision_;
    for (auto &hold : plan.holds) {
        if (hold.horizon > now + kEps) {
            hold.horizon += delay;
            auto it = busyUntil_.find(hold.link);
            if (it != busyUntil_.end())
                it->second = std::max(it->second, hold.horizon);
            else
                busyUntil_[hold.link] = hold.horizon;
        }
    }
    ++plan.rev;
    scheduleCompletion(plan);
}

void
TransferDataPlane::stallInstanceLinks(int instance, double duration)
{
    if (duration <= 0.0)
        return;
    const double now = executor_.now();
    ++busyRevision_;
    // The blackout also blocks plans submitted while it lasts.
    for (cost::LinkType type :
         {cost::LinkType::NicSend, cost::LinkType::NicRecv,
          cost::LinkType::Pcie, cost::LinkType::Disk}) {
        auto &horizon = busyUntil_[cost::LinkId{type, instance}];
        horizon = std::max(horizon, now + duration);
    }
    std::vector<PlanId> affected;
    for (const auto &[id, plan] : inFlight_) {
        if (planRemainderTouches(plan, instance))
            affected.push_back(id);
    }
    std::vector<PlanId> expired;
    for (PlanId id : affected) {
        auto it = inFlight_.find(id);
        if (it == inFlight_.end())
            continue;
        delayPlan(it->second, duration);
        if (it->second.deadlineAbs > 0.0 &&
            it->second.finishAbs > it->second.deadlineAbs + kEps) {
            expired.push_back(id);
        }
    }
    for (PlanId id : expired)
        failPlan(id, -1, /*timed_out=*/true);
}

void
TransferDataPlane::degradeInstanceLinks(int instance, double factor)
{
    if (factor <= 0.0) {
        // Zero bandwidth with no end is a death sentence for the plans.
        failInstance(instance);
        return;
    }
    if (factor >= 1.0)
        return;
    const double now = executor_.now();
    std::vector<PlanId> affected;
    for (const auto &[id, plan] : inFlight_) {
        if (planRemainderTouches(plan, instance))
            affected.push_back(id);
    }
    std::vector<PlanId> expired;
    for (PlanId id : affected) {
        auto it = inFlight_.find(id);
        if (it == inFlight_.end())
            continue;
        InFlight &plan = it->second;
        const double remaining = std::max(plan.finishAbs - now, 0.0);
        const double delay = remaining * (1.0 / factor - 1.0);
        if (delay <= 0.0)
            continue;
        delayPlan(plan, delay);
        if (plan.deadlineAbs > 0.0 &&
            plan.finishAbs > plan.deadlineAbs + kEps) {
            expired.push_back(id);
        }
    }
    for (PlanId id : expired)
        failPlan(id, -1, /*timed_out=*/true);
}

double
TransferDataPlane::busyUntil(cost::LinkType type, int instance) const
{
    auto it = busyUntil_.find(cost::LinkId{type, instance});
    const double now = executor_.now();
    return it == busyUntil_.end() ? now : std::max(it->second, now);
}

std::vector<int>
TransferDataPlane::inFlightInstances(bool sources_only) const
{
    const double now = executor_.now();
    std::vector<int> out;
    for (const auto &[id, plan] : inFlight_) {
        (void)id;
        for (std::size_t s = 0; s < plan.steps.size(); ++s) {
            const double finish =
                s < plan.stepFinishAbs.size() ? plan.stepFinishAbs[s]
                                              : plan.finishAbs;
            if (finish <= now + kEps)
                continue;
            for (const auto &t : plan.steps[s].transfers) {
                if (t.bytes <= 0.0)
                    continue;
                out.push_back(t.srcInstance);
                if (!sources_only)
                    out.push_back(t.dstInstance);
            }
            if (!sources_only) {
                for (const auto &[inst, bytes] : plan.steps[s].coldLoads) {
                    if (bytes > 0.0)
                        out.push_back(inst);
                }
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

void
TransferDataPlane::prune()
{
    const double now = executor_.now();
    for (auto it = busyUntil_.begin(); it != busyUntil_.end();) {
        if (it->second <= now) {
            it = busyUntil_.erase(it);
            ++busyRevision_;
        } else {
            ++it;
        }
    }
}

} // namespace core
} // namespace spotserve

