/**
 * @file
 * Simulated distributed inference pipeline (one data-parallel replica).
 *
 * Executes batches at iteration granularity with continuous (iteration-
 * level) batching: at every decode-iteration boundary, requests that
 * finished all their output tokens leave the batch individually, and new
 * requests are admitted into the free slots through the onAdmit callback
 * (ORCA-style).  Newly admitted requests run their prefill alongside the
 * incumbents' decode step — in bounded chunks when chunked prefill is
 * enabled — and the pipeline enforces the per-replica KV-cache token
 * budget the memory model promised (BatchingOptions); durations come from
 * the analytical LatencyModel.  Supports the interruption arranger's
 * just-in-time
 * halting (run at most S_t more iterations, then drain) and immediate
 * suspension, both preserving committed token progress (§4.1) — a drained
 * batch may therefore carry mixed per-request progress.
 *
 * Strides.  Modelled time advances one iteration at a time, but on an
 * executor with order keys (sim::Executor::supportsOrderKeys) the host
 * does not pay one event per iteration.  When the pipeline plans a step
 * over a batch that nothing can change before its first completion, it
 * plans a stride of k iterations at once and schedules one event at the
 * end of the k-th: k is the fewest output tokens any member has left,
 * and the stride needs every member decoding, no halt pending, a batch
 * whose KV charge already covers its worst case (no eviction can
 * trigger), no admission possible (queue empty or batch full), and no
 * consumer of every iteration (Callbacks::everyIteration).  Otherwise
 * k = 1.  Iteration i of a stride ends at t_{i-1} plus its own
 * mixedIterTime, the sums a run of one-iteration steps forms, so every
 * boundary keeps its time.  The stride's event is ordered among
 * same-time events as if scheduled when the iteration before it ended
 * (sim::EventOrder); a tie on that time too falls to the order key the
 * pipeline drew at its last batch change (start, admission, completion,
 * eviction, prefill progress).
 *
 * Settle on access.  The iterations inside a stride are committed
 * lazily: every public entry that reads or changes batch state first
 * commits those whose boundary precedes the event now firing in
 * (time, EventOrder) order — after run(until) returns, every boundary
 * at or before now().  Committing advances each member's tokens and KV
 * blocks as boundaries run one per event would, in the same order, so
 * every read sees the same state.  haltNow() drops the in-flight
 * iteration as before; haltAfter() and cutStride() end the stride at the
 * next boundary, which then runs in full (admission, drain accounting)
 * and plans anew.
 */

#ifndef SPOTSERVE_ENGINE_INFERENCE_PIPELINE_H
#define SPOTSERVE_ENGINE_INFERENCE_PIPELINE_H

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "costmodel/latency_model.h"
#include "costmodel/memory_model.h"
#include "engine/active_request.h"
#include "engine/kv_block_store.h"
#include "simcore/executor.h"

namespace spotserve {
namespace engine {

/** Execution phase of a pipeline. */
enum class PipelinePhase
{
    Idle,    ///< No batch loaded.
    Prefill, ///< At least one request of the running step is in prefill.
    Decode,  ///< Incremental decoding, one token per iteration.
    Halted,  ///< Drained by the arranger; batch retained, not executing.
};

const char *toString(PipelinePhase phase);

/**
 * Engine-level batching knobs, shared by every serving system.
 */
struct BatchingOptions
{
    /**
     * Per-replica KV-cache budget in tokens (MemoryModel::kvBudgetTokens).
     * The pipeline enforces sum of kvChargedBlocks() over the live batch
     * <= the block budget (floor(kvBudgetTokens / kvBlockTokens)) at
     * startBatch and at every admission, and (optimistic mode) keeps the
     * *held* blocks under the block budget at every iteration boundary
     * by evicting victims.  kUnboundedKvTokens disables the check (for
     * direct engine users; serving systems always pass a budget).
     */
    long kvBudgetTokens = kUnboundedKvTokens;

    /**
     * KV allocation granularity in tokens per block (paged KV cache).
     * Every request is charged ceil-rounded whole blocks — held,
     * predicted and worst-case peak alike, rounded per request, not per
     * prefill chunk — and the budget is floored to whole blocks, exactly
     * what a PagedAttention-style allocator can hand out.  1 reproduces
     * token-granular accounting bit-for-bit (the ablation); serving
     * systems default to 16.
     */
    int kvBlockTokens = 1;

    /**
     * Chunked prefill: at most this many input tokens of one request are
     * prefilled per iteration, bounding how long a long-input newcomer
     * can stall the incumbents' decode (Sarathi-style).  0 = the whole
     * input prefills in a single iteration.
     */
    int prefillChunkTokens = 0;

    /**
     * How requests are charged against the budget (default-on optimistic
     * admission; Reserve keeps the worst-case reservation for the
     * ablation).  A bounded-budget Optimistic pipeline requires the
     * onEvict callback.
     */
    KvAdmissionMode kvAdmissionMode = KvAdmissionMode::Optimistic;

    /**
     * Eviction watermarks over the held KV *blocks* (optimistic mode;
     * see cost::KvWatermarks — with kvBlockTokens = 1 a block is a
     * token).  Leave 0 to derive both from the block budget and batch
     * size via cost::deriveKvWatermarks.
     */
    long kvHighWatermarkBlocks = 0;
    long kvLowWatermarkBlocks = 0;

    /**
     * Block-level prefix sharing + copy-on-write: the pipeline owns a
     * refcounted KvBlockStore, requests hold physical block-id sequences
     * (deduplicated across shared prefixes, published to a radix index as
     * prefix levels commit), admission and watermark eviction charge
     * *physical* blocks, full prefix hits skip the matched prefill
     * compute, and divergence from a shared partial tail copies the
     * split block.  false (the ablation) keeps the PR 5 scalar block
     * counters bit-for-bit; serving systems default it on.
     */
    bool prefixSharing = false;
};

/**
 * One inference pipeline bound to a (D-index of a) deployment.
 *
 * The pipeline does not know about instances; the serving system owns the
 * device mesh and rebuilds pipelines on reconfiguration, carrying the
 * ActiveRequests (and their committed progress) across.
 */
class InferencePipeline
{
  public:
    struct Callbacks
    {
        /** A request finished all its output tokens. */
        std::function<void(const ActiveRequest &)> onRequestComplete;
        /**
         * A request committed one output token (fired per decoding
         * request at each iteration boundary, before the completion
         * check).  A live ingress streams tokens to clients from here;
         * simulated experiments leave it unset.  Fired only while the
         * pipeline runs one iteration per event (see everyIteration).
         */
        std::function<void(const ActiveRequest &)> onToken;
        /**
         * Queried when a step is planned: true while some consumer must
         * see every iteration as its own event — onToken timestamps
         * each token, a per-boundary observer samples each boundary.
         * The pipeline then plans strides of one iteration.  Unset:
         * true exactly when onToken is set.
         */
        std::function<bool()> everyIteration;
        /**
         * Queried when a step is planned while the batch has a free
         * slot: true when onAdmit could return work at the next
         * boundary, which then runs as its own event.  Unset: true
         * whenever onAdmit is set.  An owner that answers false keeps
         * queued work reachable itself: when work is queued later it
         * cuts, among its replicas that could admit it, the one whose
         * nextBoundary() comes first, and each admission that leaves
         * work queued cuts the next one (serving::BaseServingSystem).
         */
        std::function<bool()> workQueued;
        /** The whole batch completed; the pipeline is Idle again. */
        std::function<void(InferencePipeline &)> onIdle;
        /** haltAfter() drained; the pipeline is Halted with its batch. */
        std::function<void(InferencePipeline &)> onHalted;
        /**
         * Iteration-level admission: called at every iteration boundary
         * with the number of free batch slots; the returned requests (at
         * most @p free_slots, none finished) join the live batch, entering
         * prefill unless they carry committed progress.  Leave unset for
         * rigid FasterTransformer-style run-to-completion batching (engine
         * tests only; serving systems always wire it).
         */
        std::function<std::vector<ActiveRequest>(InferencePipeline &,
                                                 int free_slots)>
            onAdmit;
        /**
         * Observer of the post-boundary batch state: fired at batch
         * start, at every boundary that runs as its own event (before
         * the next step is scheduled), and once for each run of stride
         * iterations committed together, with the state after the last
         * of them.  Within a stride the batch keeps its members and
         * no held or reserved KV count falls, so a maximum tracked here
         * equals the one over every boundary.  KV-
         * accounting invariants (tests) and peak-memory statistics hang
         * off this; a consumer that needs each boundary sets
         * everyIteration.
         */
        std::function<void(const InferencePipeline &)> onBoundary;
        /**
         * Optimistic admission evicted the given requests to keep the
         * held KV tokens under the budget.  Their cache context is gone;
         * committed progress is still intact when the callback fires (so
         * the receiver can cost the lost work) and the receiver MUST
         * reset it via ActiveRequest::resetForRestart before requeueing
         * (RequestManager::requeueRestarted does both).  Required when
         * kvAdmissionMode is Optimistic and the budget is bounded.
         */
        std::function<void(InferencePipeline &,
                           std::vector<ActiveRequest>)>
            onEvict;
    };

    InferencePipeline(sim::Executor &executor,
                      const cost::LatencyModel &latency,
                      const par::ParallelConfig &config, int index,
                      Callbacks callbacks, BatchingOptions batching = {});

    ~InferencePipeline();

    InferencePipeline(const InferencePipeline &) = delete;
    InferencePipeline &operator=(const InferencePipeline &) = delete;

    /**
     * Load and start a batch.  Requests may carry mixed committed
     * progress: those with committed tokens resume decoding from their
     * cached state (stateful recovery) while the rest run their prefill
     * first.
     * @pre phase() == Idle and batch size <= config.batch.
     */
    void startBatch(std::vector<ActiveRequest> batch);

    /**
     * JIT arrangement: allow at most @p iterations more decode-iteration
     * boundaries, then drain to Halted and fire onHalted.  If the batch
     * finishes earlier the pipeline halts at that point (it may not pick
     * up new work once a halt is pending).  Calling with 0 halts at the
     * next boundary (an in-flight iteration still commits its token); on
     * an Idle pipeline it halts immediately.
     */
    void haltAfter(int iterations);

    /**
     * Suspend immediately: the in-flight iteration (or prefill) is
     * abandoned and its token is NOT committed.  Committed progress from
     * earlier iterations is retained.
     */
    void haltNow();

    /** Remove and return the loaded batch. @pre Halted or Idle. */
    std::vector<ActiveRequest> takeBatch();

    /**
     * End the planned stride at its next boundary, which then runs in
     * full and plans again with the callbacks' current answers.  The
     * owner calls this on the one replica whose boundary is to admit
     * queued work (the first by nextBoundary()), or on every replica
     * when it attaches an observer of every iteration.
     */
    void cutStride();

    /** Where the next boundary of a planned step lies. */
    struct NextBoundary
    {
        sim::SimTime time;
        /** Its place among events due at the same time. */
        sim::EventOrder order;
        /** A plain boundary inside a stride: it runs as its own event
         *  only once cutStride() is called. */
        bool strided;
    };

    /**
     * The planned step's first boundary after the firing event (after
     * run(until): after now()), read without settling.  nullopt while
     * no step is planned: idle, halted, or inside its own boundary.
     */
    std::optional<NextBoundary> nextBoundary() const;

    /**
     * Commit the stride iterations whose boundary precedes the firing
     * event (after run(until): every boundary at or before now()).
     * Every public entry does this first; an owner calls it directly
     * before reading what the onBoundary observer accumulated.  Const
     * because it changes no observable state: it only brings forward
     * what every read would commit anyway.
     */
    void settle() const
    {
        if (strideDone_ < strideStop_)
            const_cast<InferencePipeline *>(this)->commitElapsed();
    }

    PipelinePhase phase() const { return phase_; }
    bool idle() const { return phase_ == PipelinePhase::Idle; }
    bool halted() const { return phase_ == PipelinePhase::Halted; }
    bool executing() const;
    /** True once a halt has been requested (pipeline won't take work). */
    bool haltPending() const { return haltPending_; }

    const std::vector<ActiveRequest> &batch() const
    {
        settle();
        return batch_;
    }
    /** Free batch slots (config batch size minus live requests). */
    int freeSlots() const;
    int index() const { return index_; }
    /**
     * Rebind the replica index.  Overlapped reconfiguration carries live
     * pipeline objects into the new deployment (they serve straight
     * through the transition), where the replica may land at a different
     * D-slot; the owner re-indexes at adoption so diagnostics and logs
     * stay truthful.  Execution state is unaffected.
     */
    void setIndex(int index) { index_ = index; }
    const par::ParallelConfig &config() const { return config_; }
    const BatchingOptions &batching() const { return batching_; }

    /** KV tokens the live batch holds right now (committed chunks). */
    long kvTokensHeld() const;
    /** Worst-case KV tokens reserved by the live batch (sum of peaks). */
    long kvTokensReserved() const;
    /** KV tokens the live batch is charged under the admission mode
     *  (== kvTokensReserved in Reserve mode). */
    long kvTokensCharged() const;
    /** KV blocks the live batch occupies (per-request ceil rounding). */
    long kvBlocksHeld() const;
    /** Worst-case KV blocks reserved by the live batch. */
    long kvBlocksReserved() const;
    /** KV blocks the live batch is charged under the admission mode. */
    long kvBlocksCharged() const;
    /** The token-denominated budget (kUnboundedKvTokens = none). */
    long kvBudgetTokens() const { return batching_.kvBudgetTokens; }
    /**
     * The enforced per-replica budget in whole KV blocks:
     * floor(kvBudgetTokens / kvBlockTokens), clamped to at least one
     * block for bounded budgets (kUnboundedKvBlocks = none).  This — not
     * the token budget — is what every admission and eviction decision
     * compares against.
     */
    long kvBudgetBlocks() const { return budgetBlocks_; }
    /** Tokens per KV block (1 = token-granular ablation). */
    int kvBlockTokens() const { return batching_.kvBlockTokens; }
    /** The admission mode this pipeline charges requests under. */
    KvAdmissionMode kvAdmissionMode() const
    {
        return batching_.kvAdmissionMode;
    }
    /**
     * Remaining admission headroom in blocks: block budget minus charged
     * blocks (kUnboundedKvBlocks when no budget is enforced).
     */
    long freeKvBlocks() const;
    /**
     * Token-space view of the headroom (freeKvBlocks * kvBlockTokens;
     * identical to the PR 3 token form when kvBlockTokens = 1).
     */
    long freeKvTokens() const;

    /** Decode iterations executed over this pipeline's lifetime. */
    long iterationsExecuted() const
    {
        settle();
        return itersExecuted_;
    }
    /** Output tokens committed over this pipeline's lifetime. */
    long tokensCommitted() const
    {
        settle();
        return tokensCommitted_;
    }
    /** Requests admitted at iteration boundaries (continuous batching). */
    long admittedMidBatch() const
    {
        settle();
        return admittedMidBatch_;
    }
    /** Requests evicted to keep the held KV under the budget.  The lost
     *  work is costed by the onEvict receiver (LatencyModel::
     *  recomputeTime — the victims' progress is intact at callback
     *  time), keeping eviction costing single-source at the serving
     *  layer. */
    long evictionsPerformed() const
    {
        settle();
        return evictions_;
    }
    /** Steps in which prefill chunks yielded to decode (watermark). */
    long prefillYields() const
    {
        settle();
        return prefillYields_;
    }

    /**
     * The prefix-sharing block store (nullptr when prefixSharing is off
     * and the scalar counters remain the source of truth).
     */
    const KvBlockStore *kvStore() const
    {
        settle();
        return store_.get();
    }

    /**
     * Admission quote: matched-and-live shared prefix blocks the given
     * (unattached) request would reference instead of allocating.  The
     * serving layers subtract this from the scalar block charge; 0
     * without a store.
     */
    long prefixQuoteBlocks(const ActiveRequest &r) const
    {
        settle();
        return store_ ? store_->quoteSharedBlocks(r) : 0;
    }

    /**
     * Physical (deduplicated) blocks the live batch holds: the store's
     * live blocks, or the scalar count when sharing is off.  This — not
     * the logical per-request sum — is what the budget bounds.
     */
    long kvPhysicalBlocksHeld() const
    {
        settle();
        return store_ ? store_->liveBlocks() : kvBlocksHeld();
    }

    /**
     * Token-space view of the physical holding, for migration volume:
     * shared blocks transfer once, so the bytes a snapshot moves are
     * bounded by the physical blocks, not the logical token sum.
     */
    long kvTokensHeldPhysical() const
    {
        settle();
        if (!store_)
            return kvTokensHeld();
        return std::min(kvTokensHeld(),
                        store_->liveBlocks() *
                            static_cast<long>(batching_.kvBlockTokens));
    }

    /** Attaches that matched prefix tokens from the store's index. */
    long prefixHits() const
    {
        settle();
        return store_ ? store_->prefixHits() : 0;
    }
    /** Prefix tokens whose prefill compute was skipped, total. */
    long prefixMatchedTokens() const
    {
        settle();
        return store_ ? store_->prefixMatchedTokens() : 0;
    }
    /** Copy-on-write block copies performed on divergence. */
    long cowCopies() const
    {
        settle();
        return store_ ? store_->cowCopies() : 0;
    }
    /** Prefill seconds skipped thanks to prefix hits (LatencyModel-
     *  costed diagnostic). */
    double savedPrefillSeconds() const
    {
        settle();
        return savedPrefillSeconds_;
    }

  private:
    /** Size, cost and schedule the next iteration (or stride) over the
     *  live batch. */
    void scheduleStep();
    /** Iterations the next step may run as one stride (>= 1). */
    long strideLength(int prefillers) const;
    /** Schedule the event at iteration strideStop_'s end. */
    void scheduleStrideEnd();
    /** When one-iteration steps would have scheduled iteration @p i's
     *  end: the end of the iteration before, or the stride's start. */
    sim::SimTime strideAfter(std::size_t i) const;
    /** Cancel the parked event of a cut stride, if any. */
    void dropEndEvent();
    void onBoundary();
    /** settle(): commit the stride boundaries preceding the firing event. */
    void commitElapsed();
    /** Index of the first stride boundary that does not precede the
     *  firing event (strideStop_ when all before it do). */
    std::size_t firstPendingBoundary() const;
    /** Commit @p n plain decode boundaries of the stride. */
    void commitIterations(std::size_t n);
    /** Advance the store over @p n decode tokens of every member, in the
     *  order single boundaries commit them, visiting only tokens where
     *  it has work. */
    void advanceStore(long n);
    /** Optimistic, bounded, and some member charged below its worst
     *  case: a later boundary may have to evict or yield. */
    bool kvPressureCanBind() const;
    /** Pull new work into the free slots through onAdmit. */
    void admitNewWork();
    void enterHalted();
    /** Input tokens the next prefill iteration processes for @p r. */
    int prefillChunkFor(const ActiveRequest &r) const;
    /** Recompute prefilled/prefillTokens consistency on (re)entry. */
    static void normalizeProgress(ActiveRequest &r);
    /** Give @p r its physical blocks (prefix hits skip prefill compute
     *  and are costed into savedPrefillSeconds_).  No-op without store. */
    void attachToStore(ActiveRequest &r);
    /** Fire the onBoundary observer. */
    void observeBoundary();
    /**
     * Optimistic mode, before each step: if the next iteration's KV
     * growth (in whole blocks) would cross the high watermark, make
     * prefills yield their slot to the decoders (decode-priority
     * boundary scheduling); if it would overflow the block budget, evict
     * LIFO victims (youngest arrival, least progress first; restarted
     * requests and the batch's oldest member are protected) until the
     * held blocks plus the remaining growth fall to the low watermark,
     * firing onEvict with the victims.
     */
    void enforceKvPressure();
    /** A prefiller is frozen this step (drain or decode-priority). */
    bool prefillFrozen() const { return haltPending_ || deferPrefill_; }

    sim::Executor &sim_;
    const cost::LatencyModel &latency_;
    par::ParallelConfig config_;
    int index_;
    Callbacks callbacks_;
    BatchingOptions batching_;
    /** floor(kvBudgetTokens / kvBlockTokens); the enforced budget. */
    long budgetBlocks_ = kUnboundedKvBlocks;
    /** Physical block pool + prefix index (only with prefixSharing). */
    std::unique_ptr<KvBlockStore> store_;
    double savedPrefillSeconds_ = 0.0;

    PipelinePhase phase_ = PipelinePhase::Idle;
    std::vector<ActiveRequest> batch_;
    sim::EventId pendingEvent_ = sim::kInvalidEventId;

    /** The executor supports order keys: strides are possible. */
    bool ordered_;
    /** Same-time key of this pipeline's events; kFreshOrderKey until the
     *  next schedule draws one (after every batch change). */
    sim::OrderKey orderKey_ = sim::kFreshOrderKey;
    /** End time of each planned stride iteration.  A cut stride keeps
     *  the ends past the cut: while the batch is unchanged the next
     *  stride reuses them. */
    std::vector<sim::SimTime> strideEnds_;
    /** When the stride was planned. */
    sim::SimTime strideStart_ = 0.0;
    /** Stride iterations committed so far. */
    std::size_t strideDone_ = 0;
    /** Index of the iteration whose end the pending event fires at;
     *  strideDone_ passes it once that event ran. */
    std::size_t strideStop_ = 0;
    /** A cut stride's event at its planned last end, parked until the
     *  stride resumes (batch unchanged) or is planned anew. */
    sim::EventId endEvent_ = sim::kInvalidEventId;
    /** advanceStore scratch: per member, the next stride token with
     *  store work and the tokens committed to the store so far. */
    std::vector<long> workAt_;
    std::vector<long> synced_;

    bool haltPending_ = false;
    long allowedIters_ = 0;
    /** The in-flight step includes prefill work (drain steps never do). */
    bool stepRanPrefill_ = false;
    /** Prefills yield the current step to decode (watermark pressure). */
    bool deferPrefill_ = false;

    long itersExecuted_ = 0;
    long tokensCommitted_ = 0;
    long admittedMidBatch_ = 0;
    long evictions_ = 0;
    long prefillYields_ = 0;
};

} // namespace engine
} // namespace spotserve

#endif // SPOTSERVE_ENGINE_INFERENCE_PIPELINE_H
