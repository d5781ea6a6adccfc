/**
 * @file
 * Refcounted paged-KV block store: radix prefix sharing + copy-on-write.
 *
 * Store unit tests pin the refcount/index semantics (full-block sharing,
 * partial-tail donation with CoW on divergence, cached-block LRU reclaim,
 * carry dedup for migrated-in batches).  The system-level matrix runs
 * SpotServe over the churn trace with shared-prefix workloads in both
 * admission modes, asserting at every boundary of every replica that the
 * *physical* (deduplicated) block holding fits the block budget and that
 * no reference leaks (the store's live refs equal the batch's block-id
 * holdings).  The ablation pin replays a prefix-free experiment with
 * sharing on and off and demands byte-identical results — sharing
 * default-on must reproduce the scalar (PR 5) accounting exactly when no
 * prefixes exist to share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <vector>

#include <stdexcept>

#include "cluster/trace_library.h"
#include "core/spotserve_system.h"
#include "costmodel/memory_model.h"
#include "engine/inference_pipeline.h"
#include "engine/kv_block_store.h"
#include "model/model_spec.h"
#include "serving/experiment.h"
#include "serving/request_manager.h"
#include "simcore/simulation.h"
#include "plain_order_executor.h"
#include "workload/workload.h"

namespace spotserve {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

/** Same CI hook as memory_admission_test: SPOTSERVE_TEST_KV_BLOCK_TOKENS
 *  reruns the whole binary at another block granularity. */
int
testBlockTokens()
{
    if (const char *env = std::getenv("SPOTSERVE_TEST_KV_BLOCK_TOKENS")) {
        const int v = std::atoi(env);
        if (v >= 1)
            return v;
    }
    return 16;
}

engine::ActiveRequest
makeActive(wl::RequestId id, int input_len, int output_len, int prefix_id,
           int prefix_len)
{
    engine::ActiveRequest r;
    r.request.id = id;
    r.request.inputLen = input_len;
    r.request.outputLen = output_len;
    r.request.prefixId = prefix_id;
    r.request.prefixLen = prefix_len;
    return r;
}

/** Commit @p r's progress up to @p prefill input and @p output tokens
 *  and extend its blocks, as a pipeline boundary would. */
void
commitTo(engine::KvBlockStore &store, engine::ActiveRequest &r, int prefill,
         int output)
{
    r.prefillTokens = prefill;
    r.prefilled = r.prefillTokens >= r.request.inputLen;
    r.committedTokens = output;
    store.commitProgress(r);
}

// ---------------------------------------------------------------------
// Store unit tests
// ---------------------------------------------------------------------

TEST(KvBlockStoreTest, FullBlockSharingRefcountsAndCaching)
{
    engine::KvBlockStore store(/*capacity=*/100, /*block_tokens=*/16);

    // First writer of class 0: no match, computes everything, publishes
    // the two complete prefix levels on commit.
    auto a = makeActive(1, /*input=*/64, /*output=*/8, /*prefix_id=*/0,
                        /*prefix_len=*/32);
    EXPECT_EQ(store.quoteSharedBlocks(a), 0);
    EXPECT_EQ(store.attach(a), 0);
    commitTo(store, a, 64, 0);
    EXPECT_EQ(store.liveBlocks(), 4);
    EXPECT_EQ(store.totalLiveRefs(), 4);
    EXPECT_EQ(store.prefixHits(), 0);

    // Classmate: both prefix levels are live -> quoted, matched without
    // compute; its non-prefix levels stay private.
    auto b = makeActive(2, 64, 8, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(b), 2);
    EXPECT_EQ(store.attach(b), 32);
    EXPECT_EQ(b.prefillTokens, 32);
    EXPECT_EQ(b.sharedPrefixTokens, 32);
    EXPECT_EQ(store.prefixHits(), 1);
    EXPECT_EQ(store.prefixMatchedTokens(), 32);
    EXPECT_EQ(store.liveBlocks(), 4); // shared levels counted once
    EXPECT_EQ(store.totalLiveRefs(), 6);
    commitTo(store, b, 64, 0);
    EXPECT_EQ(store.liveBlocks(), 6);
    ASSERT_EQ(b.kvBlockIds.size(), 4u);
    EXPECT_EQ(a.kvBlockIds[0], b.kvBlockIds[0]);
    EXPECT_EQ(a.kvBlockIds[1], b.kvBlockIds[1]);
    EXPECT_NE(a.kvBlockIds[2], b.kvBlockIds[2]);

    // Releasing one sharer keeps the shared levels live; releasing both
    // demotes them to cached (warm, still physical) instead of freeing.
    store.release(a);
    EXPECT_EQ(store.liveBlocks(), 4);
    EXPECT_EQ(store.cachedBlocks(), 0);
    store.release(b);
    EXPECT_EQ(store.liveBlocks(), 0);
    EXPECT_EQ(store.cachedBlocks(), 2);
    EXPECT_EQ(store.totalLiveRefs(), 0);

    // A cached hit still skips the compute but is NOT quoted: reviving
    // the blocks consumes budget again, so admission must charge them.
    auto c = makeActive(3, 64, 8, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(c), 0);
    EXPECT_EQ(store.attach(c), 32);
    EXPECT_EQ(store.prefixHits(), 2);
    EXPECT_EQ(store.liveBlocks(), 2);
    EXPECT_EQ(store.cachedBlocks(), 0);
    store.release(c);
}

TEST(KvBlockStoreTest, PartialTailCopyOnWriteAtDivergence)
{
    engine::KvBlockStore store(100, 16);

    // prefixLen 24 = one full level + an 8-token tail inside block 1.
    auto a = makeActive(1, /*input=*/40, /*output=*/8, 0, /*prefix_len=*/24);
    store.attach(a);
    commitTo(store, a, 40, 0); // 3 blocks; level 1 becomes the tail donor
    EXPECT_EQ(store.liveBlocks(), 3);

    // The sharer references the donor's tail (reading a strict prefix of
    // a block is sound) and is granted the whole 24-token prefix.
    auto b = makeActive(2, /*input=*/50, 8, 0, 24);
    EXPECT_EQ(store.quoteSharedBlocks(b), 1); // full levels only
    EXPECT_EQ(store.attach(b), 24);
    EXPECT_TRUE(b.kvTailShared);
    EXPECT_EQ(store.pendingCowBlocks(b), 1);
    EXPECT_EQ(store.liveBlocks(), 3);

    // First append past the shared prefix diverges from the donor's
    // continuation: exactly one copy-on-write, then growth is private.
    commitTo(store, b, 50, 0);
    EXPECT_EQ(store.cowCopies(), 1);
    EXPECT_FALSE(b.kvTailShared);
    EXPECT_EQ(store.pendingCowBlocks(b), 0);
    ASSERT_EQ(b.kvBlockIds.size(), 4u); // ceil(50/16)
    EXPECT_EQ(a.kvBlockIds[0], b.kvBlockIds[0]);
    EXPECT_NE(a.kvBlockIds[1], b.kvBlockIds[1]); // the copied split block
    // The swap replaced an entry of kvBlockIds; the shared full level in
    // front of it is still settled and still matchable.
    EXPECT_EQ(b.kvPromoteCursor, 1);
    commitTo(store, b, 50, 8);
    EXPECT_EQ(store.cowCopies(), 1); // never a second copy
    store.release(a);
    auto c = makeActive(3, 50, 8, 0, 24);
    EXPECT_EQ(store.quoteSharedBlocks(c), 1); // b still holds level 0
    store.release(b);
    EXPECT_EQ(store.totalLiveRefs(), 0);
}

TEST(KvBlockStoreTest, CachedBlocksReclaimedLruAndLiveOveruseThrows)
{
    engine::KvBlockStore store(/*capacity=*/4, 16);

    // Two classes fill the capacity with cached prefix blocks.
    auto a = makeActive(1, 32, 8, 0, 32);
    store.attach(a);
    commitTo(store, a, 32, 0);
    store.release(a); // class 0 levels cached (older)
    auto b = makeActive(2, 32, 8, 1, 32);
    store.attach(b);
    commitTo(store, b, 32, 0);
    store.release(b); // class 1 levels cached (newer)
    EXPECT_EQ(store.cachedBlocks(), 4);
    EXPECT_EQ(store.physicalBlocks(), 4);

    // A third class needs room: the LRU (class 0) blocks are reclaimed,
    // the warmer class 1 survives.
    auto c = makeActive(3, 32, 8, 2, 32);
    store.attach(c);
    commitTo(store, c, 32, 0);
    EXPECT_EQ(store.cachedReclaims(), 2);
    EXPECT_LE(store.physicalBlocks(), 4);
    auto d0 = makeActive(4, 32, 8, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(d0), 0); // class 0 evicted
    auto d1 = makeActive(5, 32, 8, 1, 32);
    store.attach(d1); // class 1 still matches (cached revival)
    EXPECT_EQ(d1.prefillTokens, 32);
    store.release(c);
    store.release(d1);

    // When every resident block is live, exceeding the capacity is an
    // accounting bug upstream and must throw, not over-allocate.
    engine::KvBlockStore tight(/*capacity=*/2, 16);
    auto big = makeActive(6, 48, 8, -1, 0);
    tight.attach(big);
    big.prefillTokens = 48;
    EXPECT_THROW(tight.commitProgress(big), std::logic_error);
}

TEST(KvBlockStoreTest, CarriedBatchesDeduplicateSharedLevels)
{
    engine::KvBlockStore store(100, 16);

    // Two migrated-in classmates arrive with committed progress (the
    // inherited-batch path): each shared prefix level materializes once
    // on the inheriting replica, later carriers take references.
    auto a = makeActive(1, 64, 8, 0, 32);
    a.prefillTokens = 64;
    EXPECT_EQ(store.attach(a), 0); // carries never count as prefix hits
    EXPECT_EQ(store.liveBlocks(), 4);
    auto b = makeActive(2, 64, 8, 0, 32);
    b.prefillTokens = 64;
    EXPECT_EQ(store.attach(b), 0);
    EXPECT_EQ(store.carryDedupBlocks(), 2);
    EXPECT_EQ(store.liveBlocks(), 6); // 2 shared + 2+2 private
    EXPECT_EQ(store.prefixHits(), 0);
    EXPECT_EQ(a.kvBlockIds[0], b.kvBlockIds[0]);
    EXPECT_EQ(a.kvBlockIds[1], b.kvBlockIds[1]);
    store.release(a);
    store.release(b);
    EXPECT_EQ(store.totalLiveRefs(), 0);
}

// A classmate publishes a level first, so this request's own copy of it
// stays private (blocked).  The promotion cursor must stop at the
// blocked level: once the classmate's cached copy is reclaimed LRU, the
// request's copy is the one to publish at its next boundary.
TEST(KvBlockStoreTest, BlockedLevelPublishesAfterClassmateReclaimed)
{
    engine::KvBlockStore store(/*capacity=*/4, 16);

    // Both classmates start prefilling before either completes level 0,
    // so each holds a private, partially written level-0 block.
    auto a = makeActive(1, /*input=*/32, /*output=*/4, 0, /*prefix_len=*/32);
    auto b = makeActive(2, /*input=*/48, /*output=*/4, 0, 32);
    store.attach(a);
    commitTo(store, a, 8, 0);
    store.attach(b);
    commitTo(store, b, 8, 0);

    // a completes the prefix first and publishes both levels.
    commitTo(store, a, 32, 0);
    // b's level 0 is blocked by a's key; its level 1 dedups onto a's.
    commitTo(store, b, 48, 0);
    ASSERT_EQ(b.kvBlockIds.size(), 3u);
    EXPECT_NE(a.kvBlockIds[0], b.kvBlockIds[0]);
    EXPECT_EQ(a.kvBlockIds[1], b.kvBlockIds[1]);
    EXPECT_EQ(b.kvPromoteCursor, 0);
    commitTo(store, b, 48, 0); // a quiet boundary changes nothing
    EXPECT_EQ(b.kvPromoteCursor, 0);

    // a leaves: its published level 0 becomes cached, and the next
    // allocation at full capacity reclaims it, dropping the key.
    store.release(a);
    EXPECT_EQ(store.cachedBlocks(), 1);
    auto other = makeActive(3, 16, 4, -1, 0);
    store.attach(other);
    commitTo(store, other, 16, 0);
    EXPECT_EQ(store.cachedReclaims(), 1);
    auto probe = makeActive(4, 32, 4, 0, 32);
    EXPECT_EQ(store.quoteSharedBlocks(probe), 0); // level 0 unindexed

    // b's next boundary publishes its own level 0: the whole prefix is
    // matchable (and live) again.
    commitTo(store, b, 48, 0);
    EXPECT_EQ(b.kvPromoteCursor, 2);
    EXPECT_EQ(store.quoteSharedBlocks(probe), 2);
    EXPECT_EQ(store.attach(probe), 32);
    EXPECT_EQ(probe.kvBlockIds[0], b.kvBlockIds[0]);
    store.release(b);
    store.release(other);
    store.release(probe);
    EXPECT_EQ(store.totalLiveRefs(), 0);
}

/** Everything observable about a store and the requests it serves. */
void
expectSameStoreState(const engine::KvBlockStore &x,
                     const std::vector<engine::ActiveRequest> &xs,
                     const engine::KvBlockStore &y,
                     const std::vector<engine::ActiveRequest> &ys)
{
    ASSERT_EQ(xs.size(), ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(xs[i].request.id));
        EXPECT_EQ(xs[i].kvBlockIds, ys[i].kvBlockIds);
        EXPECT_EQ(xs[i].kvPromoteCursor, ys[i].kvPromoteCursor);
        EXPECT_EQ(xs[i].kvTailShared, ys[i].kvTailShared);
        // The index: what a newcomer of the same class would match.
        auto px = makeActive(99, xs[i].request.inputLen, 4,
                             xs[i].request.prefixId, xs[i].request.prefixLen);
        auto py = px;
        EXPECT_EQ(x.quoteSharedBlocks(px), y.quoteSharedBlocks(py));
    }
    EXPECT_EQ(x.liveBlocks(), y.liveBlocks());
    EXPECT_EQ(x.cachedBlocks(), y.cachedBlocks());
    EXPECT_EQ(x.totalLiveRefs(), y.totalLiveRefs());
    EXPECT_EQ(x.prefixHits(), y.prefixHits());
    EXPECT_EQ(x.prefixMatchedTokens(), y.prefixMatchedTokens());
    EXPECT_EQ(x.cowCopies(), y.cowCopies());
    EXPECT_EQ(x.cachedReclaims(), y.cachedReclaims());
    EXPECT_EQ(x.lruClock(), y.lruClock());
}

// A multi-step commit over n decode tokens leaves exactly the state of n
// single-step commits: the same block ids (allocation order), LRU clock,
// index entries, copy-on-write and hit counters.  The sharer appends
// past a shared tail (CoW at its first token, for blocks of two or more
// tokens) and crosses several block boundaries.
TEST(KvBlockStoreTest, MultiStepCommitMatchesSingleSteps)
{
    const int blk = testBlockTokens();
    const int prefix = 3 * blk / 2 + 1; // not a block multiple for blk > 1
    auto build = [&](engine::KvBlockStore &store) {
        std::vector<engine::ActiveRequest> rs;
        rs.push_back(makeActive(1, 2 * blk + 5, 8, 0, prefix));
        rs.push_back(makeActive(2, prefix, 200, 0, prefix));
        rs.push_back(makeActive(3, blk + 3, 200, -1, 0));
        for (auto &r : rs) {
            store.attach(r);
            commitTo(store, r, r.request.inputLen, 0);
        }
        return rs;
    };
    const long cap = 64 * 16 / blk;
    engine::KvBlockStore one(cap, blk), many(cap, blk);
    auto c = build(one);
    auto d = build(many);
    expectSameStoreState(one, c, many, d);
    EXPECT_EQ(c[1].kvTailShared, blk > 1 && prefix % blk != 0);

    const int n = 3 * blk + 7;
    for (int t = 0; t < n; ++t) {
        ++c[1].committedTokens;
        one.commitProgress(c[1]);
    }
    d[1].committedTokens += n;
    many.commitProgress(d[1], n);
    expectSameStoreState(one, c, many, d);
    EXPECT_EQ(one.cowCopies(), blk > 1 ? 1 : 0);
    for (auto &r : c)
        one.release(r);
    for (auto &r : d)
        many.release(r);
    EXPECT_EQ(one.totalLiveRefs(), 0);
    EXPECT_EQ(many.totalLiveRefs(), 0);
}

// The blocked-level scenario above, advanced by one multi-step commit:
// the request's own allocation at a block boundary reclaims the
// classmate's cached copy of level 0, which unblocks its own copy — the
// commit ends with it published, exactly as single steps do.
TEST(KvBlockStoreTest, MultiStepCommitPublishesBlockedLevelAfterReclaim)
{
    const int blk = testBlockTokens();
    if (blk < 2)
        GTEST_SKIP() << "with one token per block a level completes at its "
                        "first token, so no level is ever blocked";
    auto build = [&](engine::KvBlockStore &store) {
        std::vector<engine::ActiveRequest> rs;
        rs.push_back(makeActive(1, 2 * blk, 4, 0, 2 * blk));
        rs.push_back(makeActive(2, 3 * blk, 100, 0, 2 * blk));
        store.attach(rs[0]);
        commitTo(store, rs[0], blk / 2, 0);
        store.attach(rs[1]);
        commitTo(store, rs[1], blk / 2, 0);
        commitTo(store, rs[0], 2 * blk, 0);
        commitTo(store, rs[1], 3 * blk, 0); // level 0 blocked by rs[0]
        store.release(rs[0]);               // its level 0 is now cached
        return rs;
    };
    engine::KvBlockStore single(/*capacity=*/4, blk), multi(4, blk);
    auto a = build(single);
    auto b = build(multi);
    EXPECT_EQ(a[1].kvPromoteCursor, 0);
    EXPECT_EQ(single.cachedBlocks(), 1);

    // The first token crosses into a fourth level: the store is full, so
    // the allocation reclaims the cached level 0 of rs[0].
    const int n = blk;
    for (int t = 0; t < n; ++t) {
        ++a[1].committedTokens;
        single.commitProgress(a[1]);
    }
    b[1].committedTokens += n;
    multi.commitProgress(b[1], n);
    EXPECT_EQ(single.cachedReclaims(), 1);
    EXPECT_EQ(a[1].kvPromoteCursor, 2); // published after the reclaim
    expectSameStoreState(single, a, multi, b);
}

// Inside a stride, a member's allocation reclaims the cached block whose
// key kept a prefix level of R private; R's level publishes at its next
// token, as it does one boundary at a time.  R and A prefill class 0
// together, A publishes first (R's two levels stay private) and leaves;
// S is admitted in A's place with the budget exactly spent, so late in
// the R+S stride S's allocation reclaims A's level 0 and then R's own
// reclaims A's level 1.  Admission quotes read between boundaries — at
// every boundary, or every other one so that one settle spans a reclaim
// and the token after it — must match one-iteration-per-event runs.
TEST(PrefixPipelineTest, StrideReclaimPublishesAClassmateLevelOnTime)
{
    const int blk = 16;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const auto probe = makeActive(99, 48, 4, 0, 32);
    engine::BatchingOptions batching;
    batching.kvBlockTokens = blk;
    batching.prefillChunkTokens = 8;
    batching.prefixSharing = true;
    batching.kvAdmissionMode = engine::KvAdmissionMode::Reserve;
    batching.kvBudgetTokens = 12 * blk; // R's peak 7 + S's peak 5 blocks

    struct Run
    {
        std::vector<double> times;   // each boundary, stepped run
        std::vector<long> quotes;    // the quote after it
        std::vector<long> midQuotes; // strided run, between boundaries
        long reclaims = 0;
        std::uint64_t events = 0;
    };
    auto run = [&](bool stepped, const std::vector<double> &reads) {
        Run out;
        sim::Simulation sim;
        bool admitted = false;
        engine::InferencePipeline::Callbacks cb;
        cb.everyIteration = [stepped] { return stepped; };
        cb.workQueued = [&admitted] { return !admitted; };
        cb.onAdmit = [&](engine::InferencePipeline &p, int) {
            std::vector<engine::ActiveRequest> in;
            if (!admitted && p.batch().size() == 1) {
                admitted = true;
                in.push_back(makeActive(3, 24, 50, -1, 0));
            }
            return in;
        };
        cb.onBoundary = [&](const engine::InferencePipeline &p) {
            if (!stepped)
                return;
            out.times.push_back(sim.now());
            out.quotes.push_back(p.prefixQuoteBlocks(probe));
        };
        engine::InferencePipeline pipeline(
            sim, latency, par::ParallelConfig{1, 1, 4, 8}, 0, cb, batching);
        pipeline.startBatch({makeActive(1, 32, 2, 0, 32),
                             makeActive(2, 48, 52, 0, 32)});
        for (double t : reads) {
            sim.schedule(t, [&] {
                out.midQuotes.push_back(pipeline.prefixQuoteBlocks(probe));
            });
        }
        sim.run();
        out.reclaims = pipeline.kvStore()->cachedReclaims();
        out.events = sim.eventsFired();
        return out;
    };
    const Run ref = run(true, {});
    ASSERT_GT(ref.times.size(), 2u);
    EXPECT_EQ(ref.reclaims, 2);
    // R's quote climbs back to 2 once both its levels are published.
    EXPECT_EQ(ref.quotes.back(), 0); // everyone has left
    EXPECT_EQ(*std::max_element(ref.quotes.begin() + 10, ref.quotes.end()),
              2);
    for (std::size_t every : {1, 2}) {
        for (std::size_t first = 0; first < every; ++first) {
            SCOPED_TRACE("reads every " + std::to_string(every) +
                         " from " + std::to_string(first));
            std::vector<double> reads;
            std::vector<std::size_t> after;
            for (std::size_t i = first; i + 1 < ref.times.size();
                 i += every) {
                reads.push_back((ref.times[i] + ref.times[i + 1]) / 2.0);
                after.push_back(i);
            }
            const Run strided = run(false, reads);
            EXPECT_EQ(strided.reclaims, 2);
            ASSERT_EQ(strided.midQuotes.size(), reads.size());
            for (std::size_t n = 0; n < reads.size(); ++n)
                EXPECT_EQ(strided.midQuotes[n], ref.quotes[after[n]])
                    << "after boundary " << after[n];
            EXPECT_LT(strided.events - reads.size(), ref.events);
        }
    }
}

// Copy-on-write inside a stride happens at the sharer's first token, in
// iteration order with the other members' allocations: block ids and
// the LRU clock match one-iteration-per-event runs at every boundary.
// D donates a 24-token tail, H attaches onto it with its whole input
// matched (CoW at its first decode token) and X crosses a block at its
// first token, ahead of H in batch order.
TEST(PrefixPipelineTest, StrideCommitsCopyOnWriteInIterationOrder)
{
    const int blk = 16;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    engine::BatchingOptions batching;
    batching.kvBlockTokens = blk;
    batching.prefixSharing = true;
    auto carried = [](engine::ActiveRequest r, int committed) {
        r.prefillTokens = r.request.inputLen;
        r.committedTokens = committed;
        return r;
    };
    struct Seen
    {
        std::vector<std::vector<int>> ids;
        long clock = 0;
        long cows = 0;
    };
    auto run = [&](bool stepped, const std::vector<double> &reads,
                   std::vector<double> *times) {
        std::vector<Seen> out;
        sim::Simulation sim;
        engine::InferencePipeline::Callbacks cb;
        cb.everyIteration = [stepped] { return stepped; };
        engine::InferencePipeline pipeline(
            sim, latency, par::ParallelConfig{1, 1, 4, 8}, 0, cb, batching);
        auto look = [&] {
            Seen s;
            for (const auto &r : pipeline.batch())
                s.ids.push_back(r.kvBlockIds);
            s.clock = pipeline.kvStore()->lruClock();
            s.cows = pipeline.cowCopies();
            out.push_back(s);
            if (times)
                times->push_back(sim.now());
        };
        pipeline.startBatch({carried(makeActive(1, 40, 60, 0, 24), 5),
                             carried(makeActive(2, 32, 60, -1, 0), 0),
                             makeActive(3, 24, 40, 0, 24)});
        if (stepped) {
            while (sim.step())
                look();
        }
        for (double t : reads)
            sim.schedule(t, look);
        sim.run();
        return out;
    };
    std::vector<double> times;
    const auto ref = run(true, {}, &times);
    ASSERT_GT(times.size(), 2u);
    EXPECT_EQ(ref.front().cows, 1);
    std::vector<double> reads;
    for (std::size_t i = 0; i + 1 < times.size(); ++i)
        reads.push_back((times[i] + times[i + 1]) / 2.0);
    const auto strided = run(false, reads, nullptr);
    ASSERT_EQ(strided.size(), reads.size());
    for (std::size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(strided[i].ids, ref[i].ids) << "after boundary " << i;
        EXPECT_EQ(strided[i].clock, ref[i].clock) << "after boundary " << i;
        EXPECT_EQ(strided[i].cows, ref[i].cows) << "after boundary " << i;
    }
}

// Chunked prefill through a pipeline: the prefix levels complete over
// several boundaries, and each is published (matchable by a classmate)
// at the boundary its last token commits.
TEST(PrefixPipelineTest, ChunkedPrefillPublishesLevelsAcrossBoundaries)
{
    const int blk = testBlockTokens();
    const int prefix_len = 96;
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    engine::BatchingOptions batching;
    batching.kvBlockTokens = blk;
    batching.prefillChunkTokens = 24;
    batching.prefixSharing = true;

    const auto probe = makeActive(99, 128, 4, 0, prefix_len);
    std::vector<long> quotes;
    engine::InferencePipeline::Callbacks cb;
    cb.onBoundary = [&](const engine::InferencePipeline &p) {
        if (p.batch().empty())
            return;
        const engine::ActiveRequest &r = p.batch().front();
        const long quote = p.prefixQuoteBlocks(probe);
        EXPECT_EQ(quote, std::min(r.prefillTokens, prefix_len) / blk);
        EXPECT_LE(r.kvPromoteCursor, quote);
        quotes.push_back(quote);
    };
    engine::InferencePipeline pipeline(sim, latency,
                                       par::ParallelConfig{1, 1, 4, 8}, 0,
                                       cb, batching);
    pipeline.startBatch({makeActive(1, 128, 4, 0, prefix_len)});
    sim.run();

    // 128 input tokens in chunks of 24: the prefix levels publish in
    // steps over at least four boundaries, ending with all of them.
    ASSERT_FALSE(quotes.empty());
    EXPECT_EQ(quotes.back(), prefix_len / blk);
    std::vector<long> distinct = quotes;
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    EXPECT_GE(distinct.size(), 4u);
    EXPECT_TRUE(std::is_sorted(quotes.begin(), quotes.end()));
    EXPECT_EQ(pipeline.kvStore()->totalLiveRefs(), 0);
}

// ---------------------------------------------------------------------
// System-level invariant matrix
// ---------------------------------------------------------------------

using cluster::AvailabilityTrace;
using cluster::InstanceType;
using cluster::TraceEvent;
using cluster::TraceEventKind;

/** Join 8, preempt one, join one, preempt another: the standard
 *  migration-churn backdrop the admission suites use. */
AvailabilityTrace
churnTrace()
{
    return AvailabilityTrace(
        "churn", 1200.0,
        {TraceEvent{0.0, TraceEventKind::Join, InstanceType::Spot, 8},
         TraceEvent{300.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    1},
         TraceEvent{500.0, TraceEventKind::Join, InstanceType::Spot, 1},
         TraceEvent{800.0, TraceEventKind::PreemptNotice, InstanceType::Spot,
                    1}});
}

struct PrefixInvariantResult
{
    long checks = 0;
    long violations = 0;
    long refLeaks = 0;
    long prefixHits = 0;
    long cowCopies = 0;
    int migrations = 0;
    long completed = 0;
    long arrived = 0;
};

/**
 * Run SpotServe with prefix sharing over the churn trace, asserting at
 * every boundary of every replica:
 *  - physical (deduplicated) blocks held fit the block budget — the
 *    CI-gated invariant;
 *  - the store's resident blocks fit its capacity and its live refs
 *    equal the batch's block-id holdings exactly (zero leaked refs; an
 *    empty batch therefore implies zero live blocks);
 *  - logical holdings fit the budget too (sharing only tightens).
 */
PrefixInvariantResult
runPrefixSystemInvariant(const wl::Workload &workload, int chunk_tokens,
                         engine::KvAdmissionMode mode, int block_tokens)
{
    const auto spec = model::ModelSpec::gpt20b();
    const auto trace = churnTrace();
    const cost::SeqSpec seq{};
    const cost::MemoryModel mem(spec, kParams);

    sim::Simulation sim;
    cluster::InstanceManager instances(sim, kParams);
    serving::RequestManager requests(sim);
    core::SpotServeOptions options;
    options.designArrivalRate = 0.35;
    options.engine.prefillChunkTokens = chunk_tokens;
    options.engine.kvAdmissionMode = mode;
    options.engine.kvBlockTokens = block_tokens;
    options.engine.prefixSharing = true;
    core::SpotServeSystem system(sim, instances, requests, spec, kParams,
                                 seq, options);

    PrefixInvariantResult out;
    system.setKvObserver([&](const engine::InferencePipeline &p) {
        ++out.checks;
        const long budget_blocks =
            mem.kvBudgetBlocks(p.config(), block_tokens);
        if (p.kvPhysicalBlocksHeld() > budget_blocks)
            ++out.violations;
        if (p.kvBlocksHeld() > budget_blocks)
            ++out.violations;
        if (const engine::KvBlockStore *store = p.kvStore()) {
            if (store->capacityBlocks() != engine::kUnboundedKvBlocks &&
                store->physicalBlocks() > store->capacityBlocks())
                ++out.violations;
            long held_refs = 0;
            for (const auto &r : p.batch())
                held_refs += static_cast<long>(r.kvBlockIds.size());
            if (held_refs != store->totalLiveRefs())
                ++out.refLeaks;
            if (p.batch().empty() && store->liveBlocks() != 0)
                ++out.refLeaks;
        }
    });

    instances.setListener(&system);
    instances.loadTrace(trace);
    for (const auto &req : workload) {
        sim.schedule(req.arrival,
                     [&system, req] { system.onRequestArrival(req); });
    }
    sim.run(trace.duration() + 900.0);

    out.prefixHits = system.prefixHitsTotal();
    out.cowCopies = system.cowCopiesTotal();
    out.migrations = system.migrationsCompleted();
    out.completed = requests.completedCount();
    out.arrived = requests.arrivedCount();
    return out;
}

/**
 * Poisson, spike and long-input early-stopping workloads — each with a
 * shared-prefix mix whose class length is deliberately NOT a block
 * multiple, so full-level sharing, tail donation and CoW all fire.
 */
std::vector<wl::Workload>
prefixWorkloads()
{
    const cost::SeqSpec seq{};
    auto poisson = [&] {
        sim::Rng rng(71);
        auto w = wl::stationaryPoisson(0.3, 900.0, seq, rng);
        wl::capOutputs(w, /*cap=*/512, /*min=*/16, /*max=*/128, rng);
        wl::withSharedPrefixes(w, {{200, 1.0}, {88, 1.0}}, rng,
                               /*no_prefix_weight=*/0.5);
        return w;
    };
    auto spike = [&] {
        sim::Rng rng(72);
        auto w = wl::fluctuating(
            [](sim::SimTime t) {
                return (t >= 300.0 && t < 420.0) ? 1.2 : 0.2;
            },
            1.0, 900.0, seq, rng);
        wl::capOutputs(w, 512, 16, 128, rng);
        wl::withSystemPrompt(w, /*prompt_tokens=*/152);
        return w;
    };
    auto longInput = [&] {
        sim::Rng rng(73);
        auto w = wl::stationaryPoisson(0.25, 900.0, seq, rng);
        wl::capOutputs(w, 512, 16, 128, rng);
        const int lens[] = {512, 1024, 2048};
        for (std::size_t i = 0; i < w.size(); ++i)
            w[i].inputLen = lens[i % 3];
        wl::withFewShotPrefixes(w, /*num_classes=*/3, /*class_tokens=*/168,
                                rng);
        return w;
    };
    return {poisson(), spike(), longInput()};
}

TEST(PrefixSystemTest, PhysicalBlocksAndRefsInvariantAcrossChurnMatrix)
{
    // The prefix workloads across preemption-driven migrations, in both
    // admission modes.
    const int blk = testBlockTokens();
    int variant = 0;
    for (const auto &workload : prefixWorkloads()) {
        for (int chunk : {0, 256}) {
            for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                    engine::KvAdmissionMode::Optimistic}) {
                const auto r =
                    runPrefixSystemInvariant(workload, chunk, mode, blk);
                EXPECT_EQ(r.violations, 0)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode) << " blk " << blk;
                EXPECT_EQ(r.refLeaks, 0)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode) << " blk " << blk;
                EXPECT_GT(r.checks, 0);
                EXPECT_GT(r.prefixHits, 0)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode);
                EXPECT_GE(r.migrations, 2); // initial + preemption-driven
                EXPECT_EQ(r.completed, r.arrived)
                    << "workload " << variant << " chunk " << chunk
                    << " mode " << engine::toString(mode) << " blk " << blk;
            }
        }
        ++variant;
    }
}

// Strides over shared prefixes: replicas that advance several decode
// iterations per event commit their KV blocks — CoW past shared tails,
// promotions, reclaims — exactly as replicas run one iteration per event,
// on every prefix workload, chunking and admission mode.  Two references:
// a KV observer holds the replicas to one iteration per event on the
// ordered Simulation, and an executor without order keys runs every
// event in plain schedule order, as the engine did before strides.
enum class PrefixDrive
{
    Strides,
    Observed,
    PlainOrder,
};

TEST(PrefixSystemTest, StridesMatchOneIterationPerEvent)
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::SeqSpec seq{};
    const int blk = testBlockTokens();
    auto run = [&](const wl::Workload &workload, int chunk,
                   engine::KvAdmissionMode mode, PrefixDrive drive,
                   std::uint64_t &events) {
        serving::SystemFactory factory =
            [&](sim::Executor &exec, cluster::InstanceManager &inst,
                serving::RequestManager &req) {
                core::SpotServeOptions options;
                options.designArrivalRate = 0.35;
                options.engine.prefillChunkTokens = chunk;
                options.engine.kvAdmissionMode = mode;
                options.engine.kvBlockTokens = blk;
                auto system = std::make_unique<core::SpotServeSystem>(
                    exec, inst, req, spec, kParams, seq, options);
                if (drive == PrefixDrive::Observed)
                    system->setKvObserver(
                        [](const engine::InferencePipeline &) {});
                return system;
            };
        sim::Simulation simulation;
        PlainOrderExecutor plain(simulation);
        sim::Executor &exec = drive == PrefixDrive::PlainOrder
                                  ? static_cast<sim::Executor &>(plain)
                                  : simulation;
        auto result = serving::runExperimentOn(exec, spec, kParams,
                                               churnTrace(), workload,
                                               factory);
        events = simulation.eventsFired();
        return result;
    };
    auto expectSame = [](const serving::ExperimentResult &a,
                         const serving::ExperimentResult &b) {
        ASSERT_EQ(a.perRequest.size(), b.perRequest.size());
        for (std::size_t i = 0; i < a.perRequest.size(); ++i) {
            EXPECT_EQ(a.perRequest[i].id, b.perRequest[i].id);
            EXPECT_EQ(a.perRequest[i].latency, b.perRequest[i].latency);
            EXPECT_EQ(a.perRequest[i].restarts, b.perRequest[i].restarts);
        }
        EXPECT_EQ(a.configHistory.size(), b.configHistory.size());
        EXPECT_EQ(a.prefixHits, b.prefixHits);
        EXPECT_EQ(a.prefixMatchedTokens, b.prefixMatchedTokens);
        EXPECT_EQ(a.cowCopies, b.cowCopies);
        EXPECT_EQ(a.evictions, b.evictions);
        EXPECT_EQ(a.peakKvHeldBlocks, b.peakKvHeldBlocks);
        EXPECT_EQ(a.peakKvPhysicalBlocks, b.peakKvPhysicalBlocks);
        EXPECT_EQ(a.liveKvRefsAtEnd, b.liveKvRefsAtEnd);
    };
    for (const auto &workload : prefixWorkloads()) {
        for (int chunk : {0, 256}) {
            for (const auto mode : {engine::KvAdmissionMode::Reserve,
                                    engine::KvAdmissionMode::Optimistic}) {
                SCOPED_TRACE("chunk " + std::to_string(chunk) + " mode " +
                             engine::toString(mode));
                std::uint64_t strided = 0, stepped = 0, plain = 0;
                const auto a = run(workload, chunk, mode,
                                   PrefixDrive::Strides, strided);
                const auto b = run(workload, chunk, mode,
                                   PrefixDrive::Observed, stepped);
                const auto c = run(workload, chunk, mode,
                                   PrefixDrive::PlainOrder, plain);
                EXPECT_GT(a.prefixHits, 0);
                {
                    SCOPED_TRACE("KV observer");
                    expectSame(a, b);
                }
                {
                    SCOPED_TRACE("plain schedule order");
                    expectSame(a, c);
                }
                EXPECT_LT(strided, stepped);
                EXPECT_EQ(stepped, plain);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Ablation pin and sharing win (experiment level)
// ---------------------------------------------------------------------

serving::ExperimentResult
runSpotServe(const wl::Workload &workload, bool prefix_sharing)
{
    const auto spec = model::ModelSpec::gpt20b();
    const cost::SeqSpec seq{};
    serving::SystemFactory factory =
        [&](sim::Executor &exec, cluster::InstanceManager &inst,
            serving::RequestManager &req) {
            core::SpotServeOptions options;
            options.designArrivalRate = 0.35;
            options.engine.prefixSharing = prefix_sharing;
            return std::make_unique<core::SpotServeSystem>(
                exec, inst, req, spec, kParams, seq, options);
        };
    return serving::runExperiment(spec, kParams, churnTrace(), workload,
                                  factory);
}

TEST(PrefixAblationTest, SharingOffAndOnIdenticalOnPrefixFreeWorkload)
{
    // The ablation contract both ways at once: with no prefixes in the
    // workload, the store matches nothing, so sharing ON must reproduce
    // the scalar (PR 5) accounting byte for byte — same completions,
    // same per-request timings, same restarts, same peaks.  This is the
    // pin that lets the serving systems default sharing on.
    sim::Rng rng(81);
    auto w = wl::stationaryPoisson(0.3, 600.0, cost::SeqSpec{}, rng);
    wl::capOutputs(w, 512, 16, 128, rng);

    const auto off = runSpotServe(w, false);
    const auto on = runSpotServe(w, true);
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.rejected, off.rejected);
    EXPECT_EQ(on.evictions, off.evictions);
    EXPECT_EQ(on.peakKvHeldBlocks, off.peakKvHeldBlocks);
    EXPECT_EQ(on.peakKvHeldTokens, off.peakKvHeldTokens);
    EXPECT_EQ(on.prefixHits, 0);
    EXPECT_EQ(on.cowCopies, 0);
    EXPECT_EQ(on.savedPrefillSeconds, 0.0);
    // Physical equals logical when nothing is shared.
    EXPECT_EQ(on.peakKvPhysicalBlocks, on.peakKvHeldBlocks);
    ASSERT_EQ(on.perRequest.size(), off.perRequest.size());
    for (std::size_t i = 0; i < on.perRequest.size(); ++i) {
        EXPECT_EQ(on.perRequest[i].id, off.perRequest[i].id);
        EXPECT_EQ(on.perRequest[i].arrival, off.perRequest[i].arrival);
        EXPECT_EQ(on.perRequest[i].latency, off.perRequest[i].latency);
        EXPECT_EQ(on.perRequest[i].restarts, off.perRequest[i].restarts);
    }
}

TEST(PrefixAblationTest, SharingWinsOnSharedPrefixWorkload)
{
    // On a workload dominated by few-shot templates, sharing must hit
    // (skipping real prefill seconds), deduplicate physical blocks below
    // the logical holding, and never complete fewer requests than the
    // scalar baseline at the same budget.
    sim::Rng rng(82);
    auto w = wl::stationaryPoisson(0.3, 600.0, cost::SeqSpec{}, rng);
    wl::capOutputs(w, 512, 16, 128, rng);
    wl::withFewShotPrefixes(w, /*num_classes=*/2, /*class_tokens=*/256, rng);

    const auto off = runSpotServe(w, false);
    const auto on = runSpotServe(w, true);
    EXPECT_GT(on.prefixHits, 0);
    EXPECT_GT(on.prefixMatchedTokens, 0);
    EXPECT_GT(on.savedPrefillSeconds, 0.0);
    EXPECT_LT(on.peakKvPhysicalBlocks, on.peakKvHeldBlocks);
    EXPECT_LT(on.peakKvPhysicalBlocks, off.peakKvPhysicalBlocks);
    EXPECT_GE(on.completed, off.completed);
    EXPECT_EQ(off.prefixHits, 0);
    EXPECT_EQ(off.peakKvPhysicalBlocks, off.peakKvHeldBlocks);
}

// ---------------------------------------------------------------------
// Workload decorators
// ---------------------------------------------------------------------

TEST(PrefixWorkloadTest, SharedPrefixDecorators)
{
    const cost::SeqSpec seq{};
    sim::Rng rng(91);
    auto w = wl::stationaryPoisson(0.5, 300.0, seq, rng);
    const int base_input = w.front().inputLen;

    auto prepended = w;
    wl::withSharedPrefixes(prepended, {{100, 3.0}, {60, 1.0}}, rng,
                           /*no_prefix_weight=*/1.0);
    int with_prefix = 0;
    int cls_counts[2] = {0, 0};
    for (std::size_t i = 0; i < prepended.size(); ++i) {
        const auto &r = prepended[i];
        if (r.prefixId < 0) {
            EXPECT_EQ(r.prefixLen, 0);
            EXPECT_EQ(r.inputLen, base_input);
            continue;
        }
        ++with_prefix;
        ASSERT_GE(r.prefixId, 0);
        ASSERT_LT(r.prefixId, 2);
        ++cls_counts[r.prefixId];
        const int expect_len = r.prefixId == 0 ? 100 : 60;
        EXPECT_EQ(r.prefixLen, expect_len);
        EXPECT_EQ(r.inputLen, base_input + expect_len); // prepended text
    }
    // Weights 3:1:1 over ~150 requests: every bucket is populated and
    // class 0 dominates class 1.
    EXPECT_GT(with_prefix, 0);
    EXPECT_LT(with_prefix, static_cast<int>(prepended.size()));
    EXPECT_GT(cls_counts[0], cls_counts[1]);

    // In-place declaration leaves lengths untouched (the sharing-off run
    // over such a workload is the *same* workload).
    auto inplace = w;
    wl::withSharedPrefixes(inplace, {{1000, 1.0}}, rng, 0.0,
                           /*prepend=*/false);
    for (std::size_t i = 0; i < inplace.size(); ++i) {
        EXPECT_EQ(inplace[i].inputLen, w[i].inputLen);
        EXPECT_EQ(inplace[i].prefixLen,
                  std::min(1000, w[i].inputLen)); // clamped to the prompt
    }

    // Presets.
    auto sys = w;
    wl::withSystemPrompt(sys, 128);
    for (const auto &r : sys) {
        EXPECT_EQ(r.prefixId, 0);
        EXPECT_EQ(r.prefixLen, 128);
    }
    auto few = w;
    wl::withFewShotPrefixes(few, 4, 96, rng);
    for (const auto &r : few) {
        EXPECT_GE(r.prefixId, 0);
        EXPECT_LT(r.prefixId, 4);
        EXPECT_EQ(r.prefixLen, 96);
    }
    EXPECT_THROW(wl::withSharedPrefixes(few, {}, rng),
                 std::invalid_argument);
    EXPECT_THROW(wl::withSharedPrefixes(few, {{0, 1.0}}, rng),
                 std::invalid_argument);
}

} // namespace
} // namespace spotserve
