#include "costmodel/link_schedule.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>

namespace spotserve {
namespace cost {

namespace {

/** One schedulable work item: a wire transfer or a cold disk load. */
struct Item
{
    int step = 0;
    int index = 0; ///< transfer index, or cold-load index
    bool coldLoad = false;
    double remaining = 0.0;
    double rate = 1.0;
    LinkId links[2];
    int numLinks = 0;
    /** The links' entries in the dense link table. */
    int slots[2] = {0, 0};

    double firstStart = -1.0;
    double finish = 0.0;
    bool done = false;
    bool running = false;
    /** Open slice being extended while the item keeps running. */
    int openSlice = -1;
};

constexpr double kEps = 1e-12;

/**
 * The running set of the event-driven priority scan, kept current
 * between events instead of rescanned.
 *
 * The scan's rule: walking the unfinished items in priority order, an
 * item runs when it is eligible and none of its links is externally held
 * or already granted to an earlier item this event.  From one event to
 * the next that outcome changes only where its inputs changed: links
 * freed by a completion, a preemption or an external release, and steps
 * that became eligible (both only ever loosen).  Every item using a link
 * sits in that link's queue in priority order; a change re-decides the
 * items it can reach, and re-decisions run in priority order, so every
 * item is decided after all items ahead of it — exactly as in the scan.
 *
 *  - An item that starts running preempts the later owners of its links;
 *    their other links are freed.
 *  - A freed link re-decides the next item in its queue; if that item is
 *    still blocked elsewhere, the one after it, and so on until an item
 *    takes the link.
 */
class RunningSet
{
  public:
    RunningSet(std::vector<Item> &items, std::size_t num_links)
        : items_(items), next_(2 * items.size(), -1),
          prev_(2 * items.size(), -1), head_(num_links, -1),
          tail_(num_links, -1), owner_(num_links, -1),
          marks_(items.size(), 0)
    {
        for (std::size_t i = 0; i < items.size(); ++i) {
            for (int k = 0; k < items[i].numLinks; ++k) {
                const int node = static_cast<int>(2 * i) + k;
                const auto l = static_cast<std::size_t>(items[i].slots[k]);
                prev_[node] = tail_[l];
                if (tail_[l] >= 0)
                    next_[static_cast<std::size_t>(tail_[l])] = node;
                else
                    head_[l] = node;
                tail_[l] = node;
            }
        }
    }

    /** Re-decide @p item at the next settle(). */
    void decide(int item) { mark(item, kDecide); }

    /** Link @p slot lost an external hold: re-decide its queue head. */
    void
    externalRelease(int slot)
    {
        follow(head_[static_cast<std::size_t>(slot)]);
    }

    /** @p item finished: free its links and leave every queue. */
    void finish(int item)
    {
        stop(item);
        Item &it = items_[static_cast<std::size_t>(item)];
        for (int k = 0; k < it.numLinks; ++k) {
            const int node = 2 * item + k;
            const auto l = static_cast<std::size_t>(it.slots[k]);
            const int p = prev_[static_cast<std::size_t>(node)];
            const int n = next_[static_cast<std::size_t>(node)];
            (p >= 0 ? next_[static_cast<std::size_t>(p)] : head_[l]) = n;
            (n >= 0 ? prev_[static_cast<std::size_t>(n)] : tail_[l]) = p;
        }
    }

    /**
     * Re-decide every marked item, and everything that re-decision
     * reaches, in priority order.  @p held(item) tells whether the item
     * is ineligible or one of its links is externally held right now.
     * Items that start running are appended to @p started.
     */
    void settle(const std::function<bool(const Item &)> &held,
                std::vector<Item *> &started)
    {
        while (!queue_.empty()) {
            const int x = queue_.top();
            queue_.pop();
            const unsigned char reasons = marks_[static_cast<std::size_t>(x)];
            marks_[static_cast<std::size_t>(x)] = 0;
            Item &it = items_[static_cast<std::size_t>(x)];
            if (it.done)
                continue;
            bool free = !held(it);
            for (int k = 0; k < it.numLinks && free; ++k)
                free = freeAt(it.slots[k], x);
            if (free && !it.running) {
                for (int k = 0; k < it.numLinks; ++k) {
                    const int o = owner_[static_cast<std::size_t>(it.slots[k])];
                    if (o >= 0 && o != x)
                        stop(o);
                }
                for (int k = 0; k < it.numLinks; ++k)
                    owner_[static_cast<std::size_t>(it.slots[k])] = x;
                it.running = true;
                started.push_back(&it);
            } else if (!free && it.running) {
                stop(x);
            } else if (!free) {
                // Still blocked: a link freed up to here stays free for
                // the next item in its queue.
                for (int k = 0; k < it.numLinks; ++k) {
                    if ((reasons & (1u << k)) != 0 && freeAt(it.slots[k], x))
                        follow(next_[static_cast<std::size_t>(2 * x + k)]);
                }
            }
        }
    }

  private:
    static constexpr unsigned char kDecide = 4;

    void
    mark(int item, unsigned char reasons)
    {
        unsigned char &m = marks_[static_cast<std::size_t>(item)];
        if (m == 0)
            queue_.push(item);
        m |= reasons;
    }

    /** Re-decide the item at queue node @p node, following its link. */
    void
    follow(int node)
    {
        if (node >= 0)
            mark(node / 2, static_cast<unsigned char>(1u << (node % 2)));
    }

    /** No earlier item holds @p slot (item @p x may, or a later one). */
    bool
    freeAt(int slot, int x) const
    {
        const int o = owner_[static_cast<std::size_t>(slot)];
        return o < 0 || o >= x;
    }

    /** @p item stops running: its links free up behind it. */
    void
    stop(int item)
    {
        Item &it = items_[static_cast<std::size_t>(item)];
        if (!it.running)
            return;
        it.running = false;
        for (int k = 0; k < it.numLinks; ++k) {
            int &o = owner_[static_cast<std::size_t>(it.slots[k])];
            if (o == item) {
                o = -1;
                follow(next_[static_cast<std::size_t>(2 * item + k)]);
            }
        }
    }

    std::vector<Item> &items_;
    /** Per-link queues: node 2i+k is item i's k-th link. @{ */
    std::vector<int> next_, prev_;
    std::vector<int> head_, tail_;
    /** @} */
    /** Running item holding each link, or -1. */
    std::vector<int> owner_;
    /** Per item: re-decision pending (kDecide) / link k freed (1 << k). */
    std::vector<unsigned char> marks_;
    std::priority_queue<int, std::vector<int>, std::greater<>> queue_;
};

} // namespace

LinkSchedule::LinkSchedule(const CostParams &params) : params_(params) {}

LinkScheduleResult
LinkSchedule::build(const std::vector<TransferStep> &steps,
                    const LinkScheduleOptions &options,
                    const std::map<LinkId, double> &initial_busy) const
{
    LinkScheduleResult out;
    const double t0 = options.startTime + options.setupTime;

    // ------------------------------------------------------------------
    // Flatten the steps into prioritised items.  Priority is (step, wire
    // before disk, input order) — deterministic, and it is what makes an
    // earlier step's transfers immune to later steps at every grant.
    // ------------------------------------------------------------------
    std::vector<Item> items;
    for (std::size_t s = 0; s < steps.size(); ++s) {
        for (std::size_t i = 0; i < steps[s].transfers.size(); ++i) {
            const Transfer &t = steps[s].transfers[i];
            if (t.bytes <= 0.0)
                continue;
            Item item;
            item.step = static_cast<int>(s);
            item.index = static_cast<int>(i);
            item.remaining = t.bytes;
            if (t.srcInstance == t.dstInstance) {
                item.rate = params_.intraBandwidth;
                item.links[0] = LinkId{LinkType::Pcie, t.srcInstance};
                item.numLinks = 1;
            } else {
                item.rate = params_.interBandwidth;
                item.links[0] = LinkId{LinkType::NicSend, t.srcInstance};
                item.links[1] = LinkId{LinkType::NicRecv, t.dstInstance};
                item.numLinks = 2;
            }
            items.push_back(item);
        }
        for (std::size_t i = 0; i < steps[s].coldLoads.size(); ++i) {
            const auto &[inst, bytes] = steps[s].coldLoads[i];
            if (bytes <= 0.0)
                continue;
            Item item;
            item.step = static_cast<int>(s);
            item.index = static_cast<int>(i);
            item.coldLoad = true;
            item.remaining = bytes;
            item.rate = params_.diskBandwidth;
            item.links[0] = LinkId{LinkType::Disk, inst};
            item.numLinks = 1;
            items.push_back(item);
        }
    }

    // Per-step wire-item bookkeeping for the serialized barrier, and each
    // step's first item (items are flattened in step order).
    std::vector<int> wirePending(steps.size(), 0);
    std::vector<int> stepBegin(steps.size() + 1, 0);
    for (const Item &it : items) {
        if (!it.coldLoad)
            ++wirePending[static_cast<std::size_t>(it.step)];
        ++stepBegin[static_cast<std::size_t>(it.step) + 1];
    }
    for (std::size_t s = 0; s < steps.size(); ++s)
        stepBegin[s + 1] += stepBegin[s];

    // Dense link table: every link an item uses or an external hold names
    // gets a slot holding its external busy horizon.
    std::map<LinkId, int> slotOf;
    auto slot = [&slotOf](const LinkId &l) {
        return slotOf.emplace(l, static_cast<int>(slotOf.size()))
            .first->second;
    };
    for (Item &it : items) {
        for (int k = 0; k < it.numLinks; ++k)
            it.slots[k] = slot(it.links[k]);
    }
    for (const auto &[link, until] : initial_busy)
        slot(link);
    std::vector<double> externalUntil(
        slotOf.size(), -std::numeric_limits<double>::infinity());
    // External holds by release time: (until, slot), ascending.
    std::vector<std::pair<double, int>> releases;
    releases.reserve(initial_busy.size());
    for (const auto &[link, until] : initial_busy) {
        const int sl = slotOf[link];
        externalUntil[static_cast<std::size_t>(sl)] = until;
        releases.emplace_back(until, sl);
    }
    std::sort(releases.begin(), releases.end());
    std::size_t nextRelease = 0;

    // Serialized mode: the first step with wire items still pending.  A
    // step's wire items are eligible once every earlier step's wire items
    // completed; disk loads are always eligible — the legacy cursor
    // overlapped them with the whole wire schedule.
    std::size_t firstWirePending = 0;

    // ------------------------------------------------------------------
    // Event-driven preemptive list schedule.  At every event the running
    // set is the outcome of a priority-order scan over the unfinished
    // items (items were flattened in that order): an item runs when each
    // of its links is free and not granted to an earlier item.  The
    // RunningSet keeps that outcome current between events.
    // ------------------------------------------------------------------
    double t = t0;
    RunningSet runningSet(items, slotOf.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        runningSet.decide(static_cast<int>(i));
    auto held = [&](const Item &it) {
        if (!options.interleave && !it.coldLoad &&
            static_cast<std::size_t>(it.step) > firstWirePending)
            return true;
        for (int k = 0; k < it.numLinks; ++k) {
            if (externalUntil[static_cast<std::size_t>(it.slots[k])] >
                t + kEps)
                return true;
        }
        return false;
    };
    std::size_t unfinished = items.size();
    std::vector<Item *> running, started;
    while (unfinished > 0) {
        // External holds released by now can no longer bound an event.
        while (nextRelease < releases.size() &&
               releases[nextRelease].first <= t + kEps) {
            runningSet.externalRelease(releases[nextRelease].second);
            ++nextRelease;
        }
        while (firstWirePending < wirePending.size() &&
               wirePending[firstWirePending] == 0) {
            ++firstWirePending;
            if (!options.interleave && firstWirePending < steps.size()) {
                for (int i = stepBegin[firstWirePending];
                     i < stepBegin[firstWirePending + 1]; ++i)
                    runningSet.decide(i);
            }
        }

        started.clear();
        runningSet.settle(held, started);
        // Preempted/blocked: an item that stopped closes its open slice.
        std::erase_if(running, [](Item *it) {
            if (it->running)
                return false;
            it->openSlice = -1;
            return true;
        });
        running.insert(running.end(), started.begin(), started.end());
        std::sort(running.begin(), running.end());

        const double nextExternal =
            nextRelease < releases.size()
                ? releases[nextRelease].first
                : std::numeric_limits<double>::infinity();
        if (running.empty()) {
            // Everything pending is blocked on externally-busy links
            // (or, in serialized mode, on a barrier that resolves at a
            // completion — impossible without running items).  Hop to the
            // next external release.
            if (!std::isfinite(nextExternal))
                break; // defensive: nothing can ever run
            t = nextExternal;
            continue;
        }

        // Next event: earliest completion among running items or the
        // earliest external link release (which may unblock a
        // higher-priority item and preempt a running one).
        double tNext = std::numeric_limits<double>::infinity();
        for (const Item *it : running)
            tNext = std::min(tNext, t + it->remaining / it->rate);
        tNext = std::min(tNext, nextExternal);

        // Advance every running item to tNext, extending open slices.
        for (Item *it : running) {
            if (it->firstStart < 0.0)
                it->firstStart = t;
            if (it->openSlice >= 0 &&
                out.slices[static_cast<std::size_t>(it->openSlice)].finish >=
                    t - kEps) {
                LinkSlice &sl =
                    out.slices[static_cast<std::size_t>(it->openSlice)];
                sl.finish = tNext;
                sl.bytes += (tNext - t) * it->rate;
            } else {
                LinkSlice sl;
                sl.step = it->step;
                sl.transfer = it->index;
                sl.coldLoad = it->coldLoad;
                sl.start = t;
                sl.finish = tNext;
                sl.bytes = (tNext - t) * it->rate;
                sl.numLinks = it->numLinks;
                for (int k = 0; k < it->numLinks; ++k)
                    sl.links[k] = it->links[k];
                it->openSlice = static_cast<int>(out.slices.size());
                out.slices.push_back(sl);
            }
            const double span = it->remaining / it->rate;
            if (t + span <= tNext + kEps * (1.0 + span)) {
                // Completed at (numerically) this event.
                it->remaining = 0.0;
                it->done = true;
                it->finish = tNext;
                it->openSlice = -1;
                if (!it->coldLoad)
                    --wirePending[static_cast<std::size_t>(it->step)];
                --unfinished;
            } else {
                it->remaining -= (tNext - t) * it->rate;
            }
        }
        std::erase_if(running, [&runningSet, &items](Item *it) {
            if (!it->done)
                return false;
            runningSet.finish(static_cast<int>(it - items.data()));
            return true;
        });
        t = tNext;
    }

    // ------------------------------------------------------------------
    // Per-step start/finish and the busy horizons left behind.
    // ------------------------------------------------------------------
    out.stepStart.assign(steps.size(), t0);
    out.stepFinish.assign(steps.size(), t0);
    // Serialized mode: an idle step still waits behind its predecessors.
    if (!options.interleave) {
        std::vector<double> wireFinish(
            steps.size(), -std::numeric_limits<double>::infinity());
        for (const Item &it : items) {
            if (!it.coldLoad) {
                double &f = wireFinish[static_cast<std::size_t>(it.step)];
                f = std::max(f, it.finish);
            }
        }
        double barrier = t0;
        for (std::size_t s = 0; s < steps.size(); ++s) {
            out.stepStart[s] = barrier;
            out.stepFinish[s] = barrier;
            barrier = std::max(barrier, wireFinish[s]);
        }
    }
    for (const Item &it : items) {
        const auto s = static_cast<std::size_t>(it.step);
        if (it.firstStart >= 0.0) {
            out.stepStart[s] = out.stepStart[s] == t0
                                   ? it.firstStart
                                   : std::min(out.stepStart[s],
                                              it.firstStart);
        }
        out.stepFinish[s] = std::max(out.stepFinish[s], it.finish);
    }
    // An idle step's start must not precede setup nor exceed its finish.
    for (std::size_t s = 0; s < steps.size(); ++s) {
        out.stepStart[s] = std::min(std::max(out.stepStart[s], t0),
                                    std::max(out.stepFinish[s], t0));
        out.stepFinish[s] = std::max(out.stepFinish[s], out.stepStart[s]);
    }

    out.makespan = t0;
    for (double f : out.stepFinish)
        out.makespan = std::max(out.makespan, f);

    out.linkBusyUntil = initial_busy;
    for (const LinkSlice &sl : out.slices) {
        for (int k = 0; k < sl.numLinks; ++k) {
            double &until = out.linkBusyUntil[sl.links[k]];
            until = std::max(until, sl.finish);
        }
    }
    return out;
}

} // namespace cost
} // namespace spotserve
