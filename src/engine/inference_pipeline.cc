#include "engine/inference_pipeline.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace spotserve {
namespace engine {

const char *
toString(PipelinePhase phase)
{
    switch (phase) {
      case PipelinePhase::Idle:
        return "idle";
      case PipelinePhase::Prefill:
        return "prefill";
      case PipelinePhase::Decode:
        return "decode";
      case PipelinePhase::Halted:
        return "halted";
    }
    return "?";
}

const char *
toString(KvAdmissionMode mode)
{
    switch (mode) {
      case KvAdmissionMode::Reserve:
        return "reserve";
      case KvAdmissionMode::Optimistic:
        return "optimistic";
    }
    return "?";
}

InferencePipeline::InferencePipeline(sim::Executor &executor,
                                     const cost::LatencyModel &latency,
                                     const par::ParallelConfig &config,
                                     int index, Callbacks callbacks,
                                     BatchingOptions batching)
    : sim_(executor), latency_(latency), config_(config), index_(index),
      callbacks_(std::move(callbacks)), batching_(batching),
      ordered_(executor.supportsOrderKeys())
{
    if (batching_.kvBudgetTokens <= 0)
        throw std::invalid_argument(
            "InferencePipeline: KV budget must be positive "
            "(use kUnboundedKvTokens to disable)");
    if (batching_.prefillChunkTokens < 0)
        throw std::invalid_argument(
            "InferencePipeline: negative prefill chunk");
    if (batching_.kvBlockTokens < 1)
        throw std::invalid_argument(
            "InferencePipeline: kvBlockTokens must be >= 1");
    const bool bounded = batching_.kvBudgetTokens != kUnboundedKvTokens;
    if (bounded) {
        // Degenerate no-headroom budgets degrade to token granularity
        // (shared rule: effectiveKvBlockTokens), and a paged allocator
        // hands out whole blocks: floor the budget.
        batching_.kvBlockTokens = effectiveKvBlockTokens(
            batching_.kvBudgetTokens, batching_.kvBlockTokens);
        budgetBlocks_ =
            batching_.kvBudgetTokens / batching_.kvBlockTokens;
    }
    if (bounded &&
        batching_.kvAdmissionMode == KvAdmissionMode::Optimistic) {
        if (!callbacks_.onEvict)
            throw std::invalid_argument(
                "InferencePipeline: optimistic admission under a bounded "
                "budget requires the onEvict callback (evicted requests "
                "must be requeued, not dropped)");
        if (batching_.kvHighWatermarkBlocks <= 0 ||
            batching_.kvLowWatermarkBlocks <= 0) {
            const auto wm =
                cost::deriveKvWatermarks(budgetBlocks_, config_.batch);
            batching_.kvHighWatermarkBlocks = wm.high;
            batching_.kvLowWatermarkBlocks = wm.low;
        }
        if (batching_.kvLowWatermarkBlocks >
                batching_.kvHighWatermarkBlocks ||
            batching_.kvHighWatermarkBlocks > budgetBlocks_)
            throw std::invalid_argument(
                "InferencePipeline: need low <= high <= budget watermarks");
    }
    if (batching_.prefixSharing) {
        // The store's physical capacity IS the block budget: prefix
        // sharing may never let resident blocks exceed what admission
        // promised (allocation throws instead of over-committing).
        store_ = std::make_unique<KvBlockStore>(budgetBlocks_,
                                                batching_.kvBlockTokens);
    }
}

InferencePipeline::~InferencePipeline()
{
    if (pendingEvent_ != sim::kInvalidEventId)
        sim_.cancel(pendingEvent_);
    dropEndEvent();
}

void
InferencePipeline::startBatch(std::vector<ActiveRequest> batch)
{
    if (phase_ != PipelinePhase::Idle)
        throw std::logic_error("InferencePipeline::startBatch: not idle");
    if (haltPending_)
        throw std::logic_error(
            "InferencePipeline::startBatch: halt pending, refuse new work");
    if (batch.empty())
        throw std::invalid_argument("InferencePipeline::startBatch: empty");
    if (static_cast<int>(batch.size()) > config_.batch)
        throw std::invalid_argument(
            "InferencePipeline::startBatch: batch larger than B");
    for (const auto &r : batch) {
        if (r.done())
            throw std::invalid_argument(
                "InferencePipeline::startBatch: already-finished request");
    }

    batch_ = std::move(batch);
    orderKey_ = sim::kFreshOrderKey;
    // Committed tokens imply the KV cache of the prior tokens survived
    // (stateful recovery, §4): such requests resume decoding directly;
    // partially-prefilled ones resume from their last committed chunk and
    // the rest run their prefill first.
    for (auto &r : batch_) {
        normalizeProgress(r);
        attachToStore(r);
    }
    if (kvBlocksCharged() > budgetBlocks_)
        throw std::invalid_argument(
            "InferencePipeline::startBatch: batch exceeds the KV budget");
    observeBoundary();
    scheduleStep();
}

void
InferencePipeline::attachToStore(ActiveRequest &r)
{
    if (!store_)
        return;
    const int matched = store_->attach(r);
    if (matched > 0)
        savedPrefillSeconds_ += latency_.prefillSavedTime(config_, matched);
}

void
InferencePipeline::normalizeProgress(ActiveRequest &r)
{
    // Committed output tokens imply a complete, cached prefill.
    if (r.committedTokens > 0)
        r.prefillTokens = r.request.inputLen;
    r.prefilled = r.prefillTokens >= r.request.inputLen;
}

int
InferencePipeline::freeSlots() const
{
    return config_.batch - static_cast<int>(batch_.size());
}

long
InferencePipeline::kvTokensHeld() const
{
    settle();
    long held = 0;
    for (const auto &r : batch_)
        held += r.kvTokensHeld();
    return held;
}

long
InferencePipeline::kvTokensReserved() const
{
    settle();
    long reserved = 0;
    for (const auto &r : batch_)
        reserved += r.kvPeakTokens();
    return reserved;
}

long
InferencePipeline::kvTokensCharged() const
{
    settle();
    long charged = 0;
    for (const auto &r : batch_)
        charged += r.kvChargedTokens(batching_.kvAdmissionMode);
    return charged;
}

long
InferencePipeline::kvBlocksHeld() const
{
    settle();
    long held = 0;
    for (const auto &r : batch_)
        held += r.kvBlocksHeld(batching_.kvBlockTokens);
    return held;
}

long
InferencePipeline::kvBlocksReserved() const
{
    settle();
    const int blk = batching_.kvBlockTokens;
    if (store_) {
        // Physical form: resident live blocks (shared levels counted
        // once) plus each request's worst-case future growth — the
        // levels it has yet to allocate and the pending CoW copy.
        long reserved = store_->liveBlocks();
        for (const auto &r : batch_)
            reserved += r.kvPeakBlocks(blk) - r.kvBlocksHeld(blk) +
                        store_->pendingCowBlocks(r);
        return reserved;
    }
    long reserved = 0;
    for (const auto &r : batch_)
        reserved += r.kvPeakBlocks(blk);
    return reserved;
}

long
InferencePipeline::kvBlocksCharged() const
{
    settle();
    const int blk = batching_.kvBlockTokens;
    if (store_) {
        long charged = store_->liveBlocks();
        for (const auto &r : batch_)
            charged += r.kvChargedBlocks(batching_.kvAdmissionMode, blk) -
                       r.kvBlocksHeld(blk) + store_->pendingCowBlocks(r);
        return charged;
    }
    long charged = 0;
    for (const auto &r : batch_)
        charged += r.kvChargedBlocks(batching_.kvAdmissionMode, blk);
    return charged;
}

long
InferencePipeline::freeKvBlocks() const
{
    settle();
    if (budgetBlocks_ == kUnboundedKvBlocks)
        return kUnboundedKvBlocks;
    return std::max(0L, budgetBlocks_ - kvBlocksCharged());
}

long
InferencePipeline::freeKvTokens() const
{
    const long blocks = freeKvBlocks();
    if (blocks == kUnboundedKvBlocks)
        return kUnboundedKvTokens;
    return blocks * batching_.kvBlockTokens;
}

int
InferencePipeline::prefillChunkFor(const ActiveRequest &r) const
{
    const int remaining = r.request.inputLen - r.prefillTokens;
    if (batching_.prefillChunkTokens <= 0)
        return remaining;
    return std::min(batching_.prefillChunkTokens, remaining);
}

void
InferencePipeline::observeBoundary()
{
    if (callbacks_.onBoundary)
        callbacks_.onBoundary(*this);
}

void
InferencePipeline::haltAfter(int iterations)
{
    if (iterations < 0)
        throw std::invalid_argument("InferencePipeline::haltAfter: negative");
    settle();
    if (phase_ == PipelinePhase::Halted)
        return;
    haltPending_ = true;
    allowedIters_ = iterations;
    if (phase_ == PipelinePhase::Idle) {
        enterHalted();
        return;
    }
    // The drain counts boundaries one by one from the in-flight one on.
    cutStride();
    // During prefill with 0 allowed iterations we still let the prefill
    // boundary fire (it commits nothing) and halt there.
}

void
InferencePipeline::haltNow()
{
    settle();
    if (phase_ == PipelinePhase::Halted)
        return;
    if (pendingEvent_ != sim::kInvalidEventId) {
        sim_.cancel(pendingEvent_);
        pendingEvent_ = sim::kInvalidEventId;
    }
    // The in-flight iteration is dropped with the rest of the stride.
    dropEndEvent();
    strideEnds_.clear();
    strideDone_ = 0;
    strideStop_ = 0;
    haltPending_ = true;
    allowedIters_ = 0;
    enterHalted();
}

std::vector<ActiveRequest>
InferencePipeline::takeBatch()
{
    settle();
    if (executing())
        throw std::logic_error(
            "InferencePipeline::takeBatch: pipeline still executing");
    if (store_) {
        // Block ids are meaningless outside this pipeline's store: drop
        // the references (committed progress is untouched) and let the
        // inheriting replica's store rebuild — deduplicating shared
        // prefix levels — at attach.
        for (auto &r : batch_)
            store_->release(r);
    }
    return std::exchange(batch_, {});
}

bool
InferencePipeline::executing() const
{
    return phase_ == PipelinePhase::Prefill || phase_ == PipelinePhase::Decode;
}

bool
InferencePipeline::kvPressureCanBind() const
{
    if (batching_.kvAdmissionMode != KvAdmissionMode::Optimistic ||
        batching_.kvBudgetTokens == kUnboundedKvTokens)
        return false;
    // A fully-covered batch (every member charged its worst case) cannot
    // overflow: admission bounded the sum of peak blocks by the block
    // budget.  This keeps Reserve-equivalent workloads — cold predictor,
    // or outputs that run to their cap — on the exact Reserve schedule.
    // Coverage only grows as tokens commit (the optimistic charge never
    // falls below the committed progress), so it holds for a stride.
    const int blk = batching_.kvBlockTokens;
    for (const auto &r : batch_) {
        if (r.kvChargedBlocks(KvAdmissionMode::Optimistic, blk) <
            r.kvPeakBlocks(blk))
            return true;
    }
    return false;
}

void
InferencePipeline::enforceKvPressure()
{
    deferPrefill_ = false;
    if (batch_.empty() || !kvPressureCanBind())
        return;
    const int blk = batching_.kvBlockTokens;

    const long budget = budgetBlocks_;
    const long high = batching_.kvHighWatermarkBlocks;
    const long low = batching_.kvLowWatermarkBlocks;

    // Victim mask; empty until an eviction is actually needed (nothing
    // is gone then).
    std::vector<bool> gone;
    // Survivor scan, in block space, with the yield decision applied:
    // decode growth is at most one block per prefilled member (one token
    // may cross a block boundary); prefill growth is the blocks one
    // chunk adds per non-frozen prefiller — ceil-rounded against the
    // request's current holding, never per chunk, so chunks sharing a
    // block are not double-charged.
    struct Scan
    {
        long held = 0;
        long decodeGrowth = 0;
        long prefillGrowth = 0;
        bool anyDecoder = false;
        bool anyPrefiller = false;
    };
    auto scan = [&] {
        Scan s;
        std::vector<const ActiveRequest *> victims;
        for (std::size_t i = 0; i < batch_.size(); ++i) {
            if (!gone.empty() && gone[i]) {
                if (store_)
                    victims.push_back(&batch_[i]);
                continue;
            }
            const ActiveRequest &r = batch_[i];
            if (store_) {
                // Physical growth: new block levels plus the pending
                // tail CoW copy; the held count comes from the store's
                // refcount arithmetic below (shared levels once).
                if (r.prefilled) {
                    s.anyDecoder = true;
                    s.decodeGrowth += store_->projectedGrowthBlocks(r, 1);
                } else {
                    s.anyPrefiller = true;
                    s.prefillGrowth +=
                        store_->projectedGrowthBlocks(r, prefillChunkFor(r));
                }
                continue;
            }
            const long cur = r.kvBlocksHeld(blk);
            s.held += cur;
            if (r.prefilled) {
                s.anyDecoder = true;
                s.decodeGrowth +=
                    kvBlocksFor(r.kvTokensHeld() + 1, blk) - cur;
            } else {
                s.anyPrefiller = true;
                s.prefillGrowth +=
                    kvBlocksFor(r.kvTokensHeld() + prefillChunkFor(r),
                                blk) -
                    cur;
            }
        }
        if (store_) {
            // A block frees only when every live reference belongs to a
            // victim: shared prefix blocks survive partial evictions, so
            // evicting one sharer relieves exactly its sole blocks.
            s.held = store_->liveBlocksExcluding(victims);
        }
        return s;
    };
    // Decode-priority boundary scheduling: when the next step threatens
    // the eviction watermark, chunked prefills yield their slot and only
    // the incumbents' decode runs — near-complete deep decodes finish and
    // release their KV instead of being squeezed out by new prefill work.
    // Re-decided after every eviction: if the victims were the last
    // decoders, the yield is moot and prefill growth counts again.
    auto decideDefer = [&](const Scan &s) {
        const bool defer =
            s.anyDecoder && s.anyPrefiller && !haltPending_ &&
            s.held + s.decodeGrowth + s.prefillGrowth > high;
        deferPrefill_ = defer;
        return defer;
    };
    auto pressure = [&](const Scan &s) {
        long p = s.held + s.decodeGrowth;
        if (!haltPending_ && !decideDefer(s))
            p += s.prefillGrowth;
        return p;
    };

    // Most boundaries fit the budget: settle the yield and stop before
    // building the victim order, so only a boundary that has to evict
    // pays for the scratch below.
    const Scan before = scan();
    if (pressure(before) <= budget) {
        decideDefer(before);
        if (deferPrefill_)
            ++prefillYields_;
        return;
    }
    gone.assign(batch_.size(), false);

    // Victim order: LIFO — youngest arrival first, least progress first.
    // Restarted members are spared first (their full worst case is
    // already charged; evicting them again would forfeit the storm
    // guard), and the batch's oldest member is never evicted, which
    // bounds the loop and guarantees forward progress.  (An oldest
    // member admitted optimistically could in principle outgrow the
    // budget alone — the serving layer prevents that by rejecting any
    // request whose worst-case peak exceeds the replica budget on every
    // admission path.)
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < batch_.size(); ++i) {
        if (batch_[i].request.arrival < batch_[oldest].request.arrival ||
            (batch_[i].request.arrival == batch_[oldest].request.arrival &&
             batch_[i].request.id < batch_[oldest].request.id))
            oldest = i;
    }
    std::vector<std::size_t> order;
    order.reserve(batch_.size());
    for (std::size_t i = 0; i < batch_.size(); ++i) {
        if (i != oldest)
            order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         const ActiveRequest &ra = batch_[a];
                         const ActiveRequest &rb = batch_[b];
                         const int ca = ra.restarts > 0 ? 1 : 0;
                         const int cb = rb.restarts > 0 ? 1 : 0;
                         if (ca != cb)
                             return ca < cb; // fresh members go first
                         if (ra.request.arrival != rb.request.arrival)
                             return ra.request.arrival > rb.request.arrival;
                         if (ra.kvTokensHeld() != rb.kvTokensHeld())
                             return ra.kvTokensHeld() < rb.kvTokensHeld();
                         return ra.request.id > rb.request.id;
                     });

    std::vector<ActiveRequest> evicted;
    // Mandatory pass: the OOM-free invariant — evict one victim at a
    // time, re-deciding the yield after each, until the next step's held
    // tokens fit the budget.
    std::size_t next = 0;
    while (true) {
        const Scan s = scan();
        if (pressure(s) <= budget)
            break;
        if (next >= order.size()) {
            // Only the protected oldest remains.  Without sharing,
            // admission rejects any head whose worst-case peak exceeds
            // the replica budget, so this is unreachable.  A head
            // admitted into a prefix-sharing discount, however, can
            // outgrow the budget alone once its co-sharers leave —
            // evict it too rather than overflow physical memory (it
            // re-admits under the storm guard's full-peak charge).
            if (store_ && !gone[oldest]) {
                gone[oldest] = true;
                evicted.push_back(batch_[oldest]);
                continue;
            }
            break;
        }
        gone[order[next]] = true;
        evicted.push_back(batch_[order[next]]);
        ++next;
    }
    if (!evicted.empty()) {
        // Hysteresis pass: clear on down to the low watermark, but only
        // by shedding un-started decodes (no committed output tokens —
        // losing them costs at most their prefill).  Deep decodes are
        // never cut beyond what the budget strictly requires.
        for (std::size_t idx : order) {
            if (gone[idx] || batch_[idx].committedTokens > 0)
                continue;
            if (pressure(scan()) <= low)
                break;
            gone[idx] = true;
            evicted.push_back(batch_[idx]);
        }
        std::vector<ActiveRequest> survivors;
        survivors.reserve(batch_.size() - evicted.size());
        for (std::size_t i = 0; i < batch_.size(); ++i) {
            if (!gone[i])
                survivors.push_back(std::move(batch_[i]));
        }
        batch_ = std::move(survivors);
        orderKey_ = sim::kFreshOrderKey;
        evictions_ += static_cast<long>(evicted.size());
        if (store_) {
            // Drop the victims' references now, before the final yield
            // decision re-scans the store: their sole blocks free,
            // shared prefix blocks stay (cached once the last sharer
            // leaves, reclaimed LRU only under allocation pressure).
            for (auto &e : evicted)
                store_->release(e);
        }
    }
    // Final yield decision over the surviving batch: this is the flag the
    // upcoming scheduleStep honours.
    gone.clear();
    decideDefer(scan());
    if (deferPrefill_)
        ++prefillYields_;
    if (!evicted.empty() && callbacks_.onEvict)
        callbacks_.onEvict(*this, std::move(evicted));
}

void
InferencePipeline::scheduleStep()
{
    // Optimistic admission: decide yields and evict before sizing the
    // step, so the iteration that runs can never overflow the budget.
    enforceKvPressure();
    if (batch_.empty()) {
        // Defensive: eviction spares the oldest member, so this only
        // triggers on hand-built batches; fall through consistently.
        if (haltPending_) {
            enterHalted();
        } else {
            dropEndEvent();
            phase_ = PipelinePhase::Idle;
            if (callbacks_.onIdle)
                callbacks_.onIdle(*this);
        }
        return;
    }

    int prefillers = 0;
    int decoders = 0;
    int max_chunk = 0;
    int max_prefix = 0;
    int max_ctx = 0;
    for (const auto &r : batch_) {
        if (r.prefilled) {
            ++decoders;
            max_ctx = std::max(max_ctx, r.nextContextLen());
        } else if (!prefillFrozen()) {
            // While draining, requests still awaiting (the rest of) their
            // prefill are frozen: a prefill chunk cannot commit an output
            // token before the halt, so spending arranged grace time on
            // it would only delay the drain (already-committed chunks
            // migrate with the cache; the tail resumes or recomputes).
            // Under watermark pressure (deferPrefill_) prefills likewise
            // yield the step to the incumbents' decode.
            ++prefillers;
            max_chunk = std::max(max_chunk, prefillChunkFor(r));
            max_prefix = std::max(max_prefix, r.prefillTokens);
        }
    }
    if (prefillers == 0 && decoders == 0) {
        // Every survivor is a frozen prefiller.  During a drain nothing
        // left can commit a token before the halt, so drain now (eviction
        // may have removed the last decoder after onBoundary's check).
        // Outside a drain the yield requires a surviving decoder, so this
        // is unreachable — but never schedule an empty iteration.
        enterHalted();
        return;
    }
    stepRanPrefill_ = prefillers > 0;
    phase_ = prefillers > 0 ? PipelinePhase::Prefill : PipelinePhase::Decode;
    const long k = strideLength(prefillers);
    const std::size_t planned = strideEnds_.size() - strideDone_;
    if (orderKey_ == sim::kFreshOrderKey ||
        static_cast<std::size_t>(k) > planned) {
        // Plan the stride: iteration i runs at context max_ctx + i, and
        // each end time is the previous one plus that iteration's
        // mixedIterTime (decode only after the first: 0 + decodeIterTime),
        // the same sums as planning one iteration at a time.  Unless the
        // batch changed, the ends planned before a cut stay valid and
        // are reused instead.
        dropEndEvent();
        strideEnds_.clear();
        strideDone_ = 0;
        strideStart_ = sim_.now();
        sim::SimTime end =
            sim_.now() + latency_.mixedIterTime(config_, prefillers,
                                                max_chunk, max_prefix,
                                                decoders, max_ctx);
        strideEnds_.push_back(end);
        if (k > 1) {
            par::ParallelConfig decode = config_;
            decode.batch = decoders;
            for (long i = 1; i < k; ++i) {
                end += latency_.decodeIterTime(
                    decode, max_ctx + static_cast<int>(i));
                strideEnds_.push_back(end);
            }
        }
    }
    strideStop_ = strideDone_ + static_cast<std::size_t>(k) - 1;
    if (strideStop_ + 1 == strideEnds_.size() &&
        endEvent_ != sim::kInvalidEventId) {
        // Resume the cut stride: its event is still in place.
        pendingEvent_ = std::exchange(endEvent_, sim::kInvalidEventId);
        return;
    }
    scheduleStrideEnd();
}

void
InferencePipeline::dropEndEvent()
{
    if (endEvent_ != sim::kInvalidEventId)
        sim_.cancel(std::exchange(endEvent_, sim::kInvalidEventId));
}

long
InferencePipeline::strideLength(int prefillers) const
{
    if (!ordered_ || prefillers > 0 || haltPending_ || kvPressureCanBind())
        return 1;
    const bool every_iteration = callbacks_.everyIteration
                                     ? callbacks_.everyIteration()
                                     : static_cast<bool>(callbacks_.onToken);
    if (every_iteration)
        return 1;
    if (freeSlots() > 0 && callbacks_.onAdmit &&
        (!callbacks_.workQueued || callbacks_.workQueued()))
        return 1;
    // The batch is next free to change at its first completion.
    long k = std::numeric_limits<long>::max();
    for (const auto &r : batch_) {
        if (!r.prefilled)
            return 1; // a frozen prefiller resumes at a later boundary
        k = std::min<long>(k, r.request.outputLen - r.committedTokens);
    }
    return k;
}

sim::SimTime
InferencePipeline::strideAfter(std::size_t i) const
{
    return i == 0 ? strideStart_ : strideEnds_[i - 1];
}

void
InferencePipeline::scheduleStrideEnd()
{
    // Ordered as if scheduled when the iteration before it ended.
    const sim::SimTime end = strideEnds_[strideStop_];
    auto fire = [this] { onBoundary(); };
    pendingEvent_ =
        ordered_ ? sim_.scheduleOrdered(end, strideAfter(strideStop_),
                                        orderKey_, fire)
                 : sim_.schedule(end, fire);
}

void
InferencePipeline::cutStride()
{
    settle();
    if (strideDone_ >= strideStop_)
        return;
    // Park the event at the stride's planned end rather than cancel it:
    // if the batch is unchanged at the cut, the stride resumes with it.
    if (strideStop_ + 1 == strideEnds_.size())
        endEvent_ = pendingEvent_;
    else
        sim_.cancel(pendingEvent_);
    strideStop_ = strideDone_;
    scheduleStrideEnd();
}

std::size_t
InferencePipeline::firstPendingBoundary() const
{
    // A boundary precedes the firing event when it is earlier, or at the
    // same time in a smaller EventOrder, as its own event would have
    // been.  Ends rise with the index, so those form a prefix.  The
    // stride's last boundary is its event's to run.
    const sim::SimTime now = sim_.now();
    const auto ends = strideEnds_.begin();
    auto m = static_cast<std::size_t>(
        std::lower_bound(ends + static_cast<long>(strideDone_),
                         ends + static_cast<long>(strideStop_), now) -
        ends);
    if (m < strideStop_ && strideEnds_[m] == now) {
        const sim::EventOrder firing = sim_.firingOrder();
        while (m < strideStop_ && strideEnds_[m] == now &&
               sim::EventOrder{strideAfter(m), orderKey_} < firing)
            ++m;
    }
    return m;
}

void
InferencePipeline::commitElapsed()
{
    commitIterations(firstPendingBoundary() - strideDone_);
}

std::optional<InferencePipeline::NextBoundary>
InferencePipeline::nextBoundary() const
{
    if (pendingEvent_ == sim::kInvalidEventId)
        return std::nullopt;
    const std::size_t m = firstPendingBoundary();
    return NextBoundary{strideEnds_[m],
                        sim::EventOrder{strideAfter(m), orderKey_},
                        m < strideStop_};
}

void
InferencePipeline::commitIterations(std::size_t n)
{
    if (n == 0)
        return;
    // Plain decode boundaries: every member commits one token each, none
    // completes, nothing is admitted (queue empty or batch full) and the
    // KV-pressure check returns early (the batch is fully covered).
    const long steps = static_cast<long>(n);
    if (store_) {
        advanceStore(steps);
    } else {
        for (auto &r : batch_)
            r.committedTokens += static_cast<int>(steps);
    }
    itersExecuted_ += steps;
    tokensCommitted_ += steps * static_cast<long>(batch_.size());
    strideDone_ += n;
    observeBoundary();
}

void
InferencePipeline::advanceStore(long n)
{
    // Single boundaries commit iteration-major, members in batch order
    // within an iteration; block ids and the LRU clock depend on that
    // order.  Visit (iteration, member) pairs in the same order but only
    // where the store has work; workAt_ holds each member's next.
    const std::size_t size = batch_.size();
    workAt_.resize(size);
    synced_.assign(size, 0);
    for (std::size_t j = 0; j < size; ++j)
        workAt_[j] = store_->tokensUntilWork(batch_[j]);
    long reclaims = store_->cachedReclaims();
    while (true) {
        const long it = *std::min_element(workAt_.begin(), workAt_.end());
        if (it > n)
            break;
        for (std::size_t j = 0; j < size; ++j) {
            if (workAt_[j] != it)
                continue;
            ActiveRequest &r = batch_[j];
            r.committedTokens += static_cast<int>(it - synced_[j]);
            store_->commitProgress(r, it - synced_[j]);
            synced_[j] = it;
            workAt_[j] = it + store_->tokensUntilWork(r);
            if (store_->cachedReclaims() == reclaims)
                continue;
            // A reclaim may unblock anyone's promotion or tail: members
            // after this one commit this token, the rest the next.
            reclaims = store_->cachedReclaims();
            for (std::size_t o = 0; o < size; ++o)
                workAt_[o] = std::min(workAt_[o], o > j ? it : it + 1);
        }
    }
    for (std::size_t j = 0; j < size; ++j)
        batch_[j].committedTokens += static_cast<int>(n - synced_[j]);
}

void
InferencePipeline::onBoundary()
{
    pendingEvent_ = sim::kInvalidEventId;
    // A stride's earlier boundaries are plain decode boundaries; this
    // event runs its last one in full.
    commitIterations(strideStop_ - strideDone_);
    strideDone_ = strideStop_ + 1;

    // Requests already prefilled when the elapsed step began were
    // decoding: each commits one token.  The rest committed one prefill
    // chunk (which yields no output token); a request whose final chunk
    // just landed decodes from the next step on.
    int decoded = 0;
    for (auto &r : batch_) {
        if (r.prefilled) {
            ++r.committedTokens;
            ++decoded;
            if (callbacks_.onToken)
                callbacks_.onToken(r);
        } else if (stepRanPrefill_) {
            r.prefillTokens += prefillChunkFor(r);
            r.prefilled = r.prefillTokens >= r.request.inputLen;
        }
    }
    if (stepRanPrefill_)
        orderKey_ = sim::kFreshOrderKey;
    if (decoded > 0) {
        ++itersExecuted_;
        tokensCommitted_ += decoded;
    }
    if (store_) {
        // Extend every request's physical blocks over the tokens that
        // just committed: first divergence past a shared tail fires the
        // CoW copy, freshly completed prefix levels publish to the index.
        for (auto &r : batch_)
            store_->commitProgress(r);
    }

    // Requests leave the batch individually on completion.  Completions
    // fire against the intact batch, then the survivors are compacted in
    // place, keeping their order (victim order and admission depend on
    // it) without a per-boundary copy of the batch.
    bool any_done = false;
    for (auto &r : batch_) {
        if (!r.done())
            continue;
        any_done = true;
        if (store_)
            store_->release(r);
        if (callbacks_.onRequestComplete)
            callbacks_.onRequestComplete(r);
    }
    if (any_done) {
        orderKey_ = sim::kFreshOrderKey;
        batch_.erase(std::remove_if(batch_.begin(), batch_.end(),
                                    [](const ActiveRequest &r) {
                                        return r.done();
                                    }),
                     batch_.end());
    }

    if (haltPending_) {
        observeBoundary();
        // Draining: no admission; spend the arranged decode budget, then
        // halt with whatever mixed-progress batch remains.
        if (batch_.empty() || allowedIters_ <= 0) {
            enterHalted();
            return;
        }
        // Only prefilled requests can commit tokens before the halt; if
        // none remain (frozen newcomers only), drain immediately.
        const bool any_decoder =
            std::any_of(batch_.begin(), batch_.end(),
                        [](const ActiveRequest &r) { return r.prefilled; });
        if (!any_decoder) {
            enterHalted();
            return;
        }
        if (decoded > 0)
            --allowedIters_;
        scheduleStep();
        return;
    }

    // Iteration-level admission into the freed slots.
    admitNewWork();
    observeBoundary();

    if (batch_.empty()) {
        dropEndEvent();
        phase_ = PipelinePhase::Idle;
        if (callbacks_.onIdle)
            callbacks_.onIdle(*this);
        return;
    }
    scheduleStep();
}

void
InferencePipeline::admitNewWork()
{
    if (!callbacks_.onAdmit)
        return;
    const int free = freeSlots();
    if (free <= 0)
        return;
    auto admitted = callbacks_.onAdmit(*this, free);
    if (admitted.empty())
        return;
    if (static_cast<int>(admitted.size()) > free)
        throw std::logic_error(
            "InferencePipeline::onAdmit returned more than the free slots");
    for (auto &r : admitted) {
        if (r.done())
            throw std::invalid_argument(
                "InferencePipeline: admitted already-finished request");
        normalizeProgress(r);
        attachToStore(r);
        batch_.push_back(std::move(r));
        ++admittedMidBatch_;
    }
    orderKey_ = sim::kFreshOrderKey;
    if (kvBlocksCharged() > budgetBlocks_)
        throw std::logic_error(
            "InferencePipeline::onAdmit overflowed the KV budget");
}

void
InferencePipeline::enterHalted()
{
    dropEndEvent();
    phase_ = PipelinePhase::Halted;
    if (callbacks_.onHalted)
        callbacks_.onHalted(*this);
}

} // namespace engine
} // namespace spotserve
