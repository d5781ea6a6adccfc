/**
 * @file
 * The migration transfer data plane.
 *
 * Executes link schedules (cost::LinkSchedule) as events on the
 * sim::Executor seam and keeps the fleet's per-link busy horizons across
 * submissions, so concurrent migrations — several replicas reconfiguring
 * in one churn window, or a baseline's cold weight loads — genuinely
 * contend for shared NIC/PCIe/disk links: a second migration touching an
 * instance whose ports are still draining is scheduled behind (or
 * interleaved around) the first, in both the deterministic simulator and
 * the wall-clock executor.
 *
 * Protocol: preview() quotes a schedule against the current link state
 * without reserving anything (the §4.2 grace-deadline decision wants a
 * quote for a plan it may discard); submit() commits a quote: it reserves
 * the links the schedule occupies and schedules a completion event at the
 * makespan.  A quote carries the schedule it was built from, the executor
 * time it was built at and the data plane's busy-state revision, which is
 * bumped by every change to the link horizons (a commit, pruning passed
 * horizons, releasing an aborted or cancelled plan's links, delaying or
 * stalling links).  While both still match, submit() commits the quoted
 * schedule as is; otherwise it rebuilds it from the quote's steps against
 * the current state.  Either way the committed timeline is what a fresh
 * build at submit time yields, so a preview followed by a submit in the
 * same executor event returns the identical timeline and costs one build.
 *
 * Every submission is tracked in flight until its completion event fires,
 * which makes transfers cancellable: failInstance() aborts any plan whose
 * remaining steps touch a dead instance (partial-completion accounting
 * says which steps landed before the kill), per-plan deadlines turn
 * straggling transfers into explicit failures, and stallInstanceLinks() /
 * degradeInstanceLinks() model link blackouts and realized bandwidth
 * below the schedule's quote.
 */

#ifndef SPOTSERVE_CORE_TRANSFER_DATA_PLANE_H
#define SPOTSERVE_CORE_TRANSFER_DATA_PLANE_H

#include <functional>
#include <map>
#include <vector>

#include "costmodel/link_schedule.h"
#include "simcore/executor.h"

namespace spotserve {
namespace core {

class TransferDataPlane
{
  public:
    TransferDataPlane(sim::Executor &executor,
                      const cost::CostParams &params);

    using PlanId = long;

    /** A quoted or committed schedule, as offsets from now. */
    struct Result
    {
        std::vector<double> stepStart;
        std::vector<double> stepFinish;
        /** Offset from now at which the last step's context has landed. */
        double makespan = 0.0;
        /** True when an already-busy link delayed part of the schedule. */
        bool contended = false;
        /** Handle of the committed plan (-1 for previews). */
        PlanId planId = -1;
    };

    /**
     * Why an in-flight plan died, and how much of it landed first.
     * Accounting is step-granular: a step counts as landed iff its finish
     * time had passed when the fault hit.
     */
    struct PlanFailure
    {
        PlanId planId = -1;
        /** Dead instance that doomed the plan (-1 on a pure timeout). */
        int failedInstance = -1;
        bool timedOut = false;
        /** Per submitted step: did it finish before the fault? */
        std::vector<bool> stepLanded;
        double landedBytes = 0.0;
        double lostBytes = 0.0;
    };

    /** Per-submission callbacks and policy. */
    struct SubmitOptions
    {
        std::function<void()> onDone;
        std::function<void(const PlanFailure &)> onFail;
        /**
         * Seconds after submission at which a still-unfinished plan is
         * failed (timedOut).  0 disables.  A quote-honoring plan never
         * times out when the deadline exceeds the makespan; link faults
         * that stretch the plan past the deadline trip it.
         */
        double deadline = 0.0;
    };

    /**
     * A preview: the quoted timeline plus what submit() needs to commit
     * it without a rebuild.
     */
    struct Quote : Result
    {
      private:
        friend class TransferDataPlane;
        std::vector<cost::TransferStep> steps;
        double setupTime = 0.0;
        bool interleave = true;
        /** The schedule behind the quote, in absolute times. */
        cost::LinkScheduleResult schedule;
        /** Executor time and busy-state revision it was built at. @{ */
        double builtAt = 0.0;
        long revision = -1;
        /** @} */
    };

    /**
     * Quote @p steps against the current link state without reserving
     * links.  @p setup_time is charged once at the front.
     */
    Quote preview(std::vector<cost::TransferStep> steps, double setup_time,
                  bool interleave = true) const;

    /**
     * Commit @p quote now: reserve every link slice its schedule occupies
     * and fire the callbacks per @p options.  The schedule is rebuilt
     * first only when the link state or the time changed since the
     * preview.
     */
    Result submit(Quote quote, SubmitOptions options);

    /** Preview and commit @p steps in one go; fires @p on_done (if any). */
    Result submit(const std::vector<cost::TransferStep> &steps,
                  double setup_time, bool interleave = true,
                  std::function<void()> on_done = {});

    /** As above, with failure callbacks and a per-plan deadline. */
    Result submit(const std::vector<cost::TransferStep> &steps,
                  double setup_time, bool interleave,
                  SubmitOptions options);

    /**
     * Convenience for the restart-style baselines: per-instance cold
     * weight loads on the disk links, no setup.  Returns the makespan
     * offset (equals bytes/diskBandwidth per instance when uncontended,
     * i.e. exactly the closed-form cold-load time).
     */
    double submitColdLoad(const std::vector<std::pair<int, double>> &loads,
                          std::function<void()> on_done = {});

    /**
     * An instance died: abort every in-flight plan whose *remaining*
     * steps touch it (as transfer endpoint or cold-load target), release
     * the links those plans still held, and fire each plan's onFail with
     * partial-completion accounting.  Plans whose remaining steps do not
     * involve the instance are untouched.  Returns plans aborted.
     */
    int failInstance(int instance);

    /** Cancel one plan (no callbacks fired). Returns false if unknown. */
    bool cancelPlan(PlanId id);

    /**
     * Link blackout: the instance's links carry no traffic for
     * @p duration seconds.  Remaining work of every in-flight plan
     * touching the instance slips by @p duration, and new submissions see
     * the links busy until the blackout lifts.
     */
    void stallInstanceLinks(int instance, double duration);

    /**
     * Straggler: the instance's links deliver @p factor (0 < factor <= 1)
     * of their quoted bandwidth from now on, stretching the remaining
     * time of every in-flight plan touching the instance by 1/factor.
     */
    void degradeInstanceLinks(int instance, double factor);

    /** Absolute time the given link is busy until (now if free). */
    double busyUntil(cost::LinkType type, int instance) const;

    /** Plans currently in flight. */
    int inFlightCount() const { return static_cast<int>(inFlight_.size()); }

    /**
     * Instances appearing in any remaining step of any in-flight plan
     * (sorted, unique).  @p sources_only restricts to transfer sources —
     * the mid-migration kill a fault plan aims for.
     */
    std::vector<int> inFlightInstances(bool sources_only = false) const;

    /** Submissions executed (migrations + cold-load batches). @{ */
    long submissions() const { return submissions_; }
    /** Submissions that found at least one of their links busy. */
    long contendedSubmissions() const { return contendedSubmissions_; }
    /** Plans aborted by instance death. */
    long plansCancelled() const { return plansCancelled_; }
    /** Plans failed by their deadline. */
    long planTimeouts() const { return planTimeouts_; }
    /** @} */

  private:
    struct InFlight
    {
        PlanId id = -1;
        std::vector<cost::TransferStep> steps;
        std::vector<double> stepFinishAbs;
        double finishAbs = 0.0;
        double deadlineAbs = 0.0; ///< 0: none.
        std::function<void()> onDone;
        std::function<void(const PlanFailure &)> onFail;
        /** A link this plan occupies: the plan's final horizon on it and
         *  the horizon the link had before this plan. */
        struct LinkHold
        {
            cost::LinkId link;
            double horizon = 0.0;
            double before = 0.0;
        };
        /** Ascending by link. */
        std::vector<LinkHold> holds;
        /** Bumped whenever the completion event is rescheduled. */
        long rev = 0;
    };

    bool touchesBusyLink(const std::vector<cost::TransferStep> &steps) const;
    static bool stepTouches(const cost::TransferStep &step, int instance);
    bool planRemainderTouches(const InFlight &plan, int instance) const;
    void scheduleCompletion(InFlight &plan);
    void completePlan(PlanId id, long rev);
    void failPlan(PlanId id, int failed_instance, bool timed_out);
    void releasePlanLinks(const InFlight &plan);
    void delayPlan(InFlight &plan, double delay);
    /** Drop horizons that have already passed (keeps the map bounded). */
    void prune();

    sim::Executor &executor_;
    cost::LinkSchedule scheduler_;
    std::map<cost::LinkId, double> busyUntil_;
    /** Bumped at every change to busyUntil_; quotes record it. */
    long busyRevision_ = 0;
    std::map<PlanId, InFlight> inFlight_;
    PlanId nextPlanId_ = 0;
    long submissions_ = 0;
    long contendedSubmissions_ = 0;
    long plansCancelled_ = 0;
    long planTimeouts_ = 0;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_TRANSFER_DATA_PLANE_H
