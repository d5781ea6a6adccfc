/**
 * @file
 * Tests for the inference-pipeline simulator and context arithmetic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "simcore/simulation.h"
#include "engine/context_state.h"
#include "engine/inference_pipeline.h"
#include "model/model_spec.h"
#include "plain_order_executor.h"

// Counting global allocator: lets a test assert that a stretch of
// simulated boundaries performs no heap allocation at all.
namespace {
std::atomic<bool> g_countAllocs{false};
std::atomic<long> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    if (g_countAllocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace spotserve::engine {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

ActiveRequest
makeRequest(wl::RequestId id, int committed = 0)
{
    ActiveRequest r;
    r.request.id = id;
    r.request.arrival = 0.0;
    r.request.inputLen = 512;
    r.request.outputLen = 128;
    r.committedTokens = committed;
    return r;
}

struct Harness
{
    sim::Simulation sim;
    model::ModelSpec spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency{spec, kParams};
    par::ParallelConfig config{1, 1, 4, 8};

    std::vector<wl::RequestId> completed;
    int idleEvents = 0;
    int haltedEvents = 0;

    std::unique_ptr<InferencePipeline> pipeline;

    Harness()
    {
        InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [this](const ActiveRequest &r) {
            completed.push_back(r.request.id);
        };
        cb.onIdle = [this](InferencePipeline &) { ++idleEvents; };
        cb.onHalted = [this](InferencePipeline &) { ++haltedEvents; };
        pipeline = std::make_unique<InferencePipeline>(sim, latency, config,
                                                       0, cb);
    }
};

TEST(InferencePipelineTest, BatchRunsToCompletion)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1), makeRequest(2)});
    EXPECT_EQ(h.pipeline->phase(), PipelinePhase::Prefill);
    h.sim.run();
    EXPECT_EQ(h.completed.size(), 2u);
    EXPECT_EQ(h.idleEvents, 1);
    EXPECT_TRUE(h.pipeline->idle());
    EXPECT_EQ(h.pipeline->iterationsExecuted(), 128);
    EXPECT_EQ(h.pipeline->tokensCommitted(), 256);
}

TEST(InferencePipelineTest, CompletionTimeMatchesCostModel)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1), makeRequest(2)});
    h.sim.run();
    par::ParallelConfig exec = h.config;
    exec.batch = 2;
    const double expected = h.latency.execLatency(exec, cost::SeqSpec{});
    EXPECT_NEAR(h.sim.now(), expected, 1e-6);
}

TEST(InferencePipelineTest, RecoveredBatchSkipsPrefill)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1, 100), makeRequest(2, 100)});
    EXPECT_EQ(h.pipeline->phase(), PipelinePhase::Decode);
    h.sim.run();
    EXPECT_EQ(h.completed.size(), 2u);
    // Only the remaining 28 iterations run.
    EXPECT_EQ(h.pipeline->iterationsExecuted(), 28);
    par::ParallelConfig exec = h.config;
    exec.batch = 2;
    EXPECT_NEAR(h.sim.now(),
                h.latency.decodeSpanTime(exec, 512 + 100 + 1, 28), 1e-6);
}

TEST(InferencePipelineTest, HaltAfterLimitsIterations)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    h.sim.run(5.0); // partway through decode
    const long before = h.pipeline->iterationsExecuted();
    ASSERT_GT(before, 0);
    ASSERT_FALSE(h.pipeline->halted());
    h.pipeline->haltAfter(3);
    h.sim.run();
    EXPECT_TRUE(h.pipeline->halted());
    EXPECT_EQ(h.haltedEvents, 1);
    // In-flight iteration + up to 3 arranged ones.
    EXPECT_LE(h.pipeline->iterationsExecuted(), before + 4);
    EXPECT_GE(h.pipeline->iterationsExecuted(), before + 3);
    // Progress is committed, requests retained.
    const auto batch = h.pipeline->takeBatch();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].committedTokens, h.pipeline->iterationsExecuted());
}

TEST(InferencePipelineTest, HaltNowDropsInFlightToken)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    h.sim.run(5.0);
    const long before = h.pipeline->iterationsExecuted();
    h.pipeline->haltNow();
    EXPECT_TRUE(h.pipeline->halted());
    const double halted_at = h.sim.now();
    h.sim.run();
    // No further events fire for this pipeline.
    EXPECT_EQ(h.pipeline->iterationsExecuted(), before);
    EXPECT_DOUBLE_EQ(h.sim.now(), halted_at);
}

TEST(InferencePipelineTest, HaltDuringPrefillLosesNothingCommitted)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    // Still in prefill (prefill takes ~0.1 s for OPT at B=1).
    EXPECT_EQ(h.pipeline->phase(), PipelinePhase::Prefill);
    h.pipeline->haltAfter(0);
    h.sim.run();
    EXPECT_TRUE(h.pipeline->halted());
    const auto batch = h.pipeline->takeBatch();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].committedTokens, 0);
}

TEST(InferencePipelineTest, HaltOnIdlePipelineIsImmediate)
{
    Harness h;
    h.pipeline->haltAfter(5);
    EXPECT_TRUE(h.pipeline->halted());
    EXPECT_EQ(h.haltedEvents, 1);
    EXPECT_TRUE(h.pipeline->takeBatch().empty());
}

TEST(InferencePipelineTest, BatchFinishingDuringDrainHalts)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1, 126)}); // 2 iterations left
    h.pipeline->haltAfter(100);
    h.sim.run();
    EXPECT_EQ(h.completed.size(), 1u);
    EXPECT_TRUE(h.pipeline->halted());
    EXPECT_EQ(h.idleEvents, 0); // halt pending suppresses onIdle
}

TEST(InferencePipelineTest, RefusesBadBatches)
{
    Harness h;
    EXPECT_THROW(h.pipeline->startBatch({}), std::invalid_argument);
    std::vector<ActiveRequest> too_big(9, makeRequest(1));
    for (int i = 0; i < 9; ++i)
        too_big[i].request.id = i;
    EXPECT_THROW(h.pipeline->startBatch(too_big), std::invalid_argument);
    // Already-finished request.
    EXPECT_THROW(h.pipeline->startBatch({makeRequest(1, 128)}),
                 std::invalid_argument);
    // Busy pipeline refuses another batch.
    h.pipeline->startBatch({makeRequest(1)});
    EXPECT_THROW(h.pipeline->startBatch({makeRequest(2)}), std::logic_error);
}

TEST(InferencePipelineTest, TakeBatchWhileExecutingThrows)
{
    Harness h;
    h.pipeline->startBatch({makeRequest(1)});
    EXPECT_THROW(h.pipeline->takeBatch(), std::logic_error);
}

// Survivors keep their relative order across completions, and requests
// admitted at a boundary join behind them: eviction's victim order and
// the oldest-member guard read this order.
TEST(InferencePipelineTest, CompletionsKeepSurvivorOrder)
{
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency{spec, kParams};
    std::vector<std::vector<wl::RequestId>> seen;
    std::vector<wl::RequestId> completed;
    int admits = 0;
    InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [&](const ActiveRequest &r) {
        completed.push_back(r.request.id);
    };
    cb.onAdmit = [&](InferencePipeline &, int) {
        std::vector<ActiveRequest> out;
        if (++admits == 2) {
            // Second boundary: two newcomers, already prefilled.
            out.push_back(makeRequest(10, 125));
            out.push_back(makeRequest(11, 127));
        }
        return out;
    };
    cb.onBoundary = [&](const InferencePipeline &p) {
        std::vector<wl::RequestId> ids;
        for (const auto &r : p.batch())
            ids.push_back(r.request.id);
        seen.push_back(ids);
    };
    InferencePipeline pipeline(sim, latency, par::ParallelConfig{1, 1, 4, 8},
                               0, cb);
    // Remaining output tokens: 1:3, 2:1, 3:2, 4:1, 5:3.
    pipeline.startBatch({makeRequest(1, 125), makeRequest(2, 127),
                         makeRequest(3, 126), makeRequest(4, 127),
                         makeRequest(5, 125)});
    sim.run();
    using Ids = std::vector<wl::RequestId>;
    const std::vector<Ids> want = {
        {1, 2, 3, 4, 5}, // startBatch
        {1, 3, 5},       // 2 and 4 done; nothing admitted
        {1, 5, 10, 11},  // 3 done; newcomers appended behind survivors
        {10},            // 1, 5 and 11 done
        {10},
        {},              // 10 done
    };
    EXPECT_EQ(seen, want);
    EXPECT_EQ(completed, (Ids{2, 4, 3, 1, 5, 11, 10}));
}

// The per-boundary hot path — event pop and schedule, token commit,
// in-place completion compaction, the optimistic KV-pressure check that
// evicts nothing, and an empty admission — allocates nothing.
TEST(InferencePipelineTest, SteadyBoundariesDoNotAllocate)
{
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency{spec, kParams};
    long completions = 0;
    long evictions = 0;
    InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [&](const ActiveRequest &) { ++completions; };
    cb.onAdmit = [](InferencePipeline &, int) {
        return std::vector<ActiveRequest>{};
    };
    cb.onEvict = [&](InferencePipeline &, std::vector<ActiveRequest> v) {
        evictions += static_cast<long>(v.size());
    };
    BatchingOptions batching;
    batching.kvBudgetTokens = 1000000;
    batching.kvBlockTokens = 16;
    batching.kvAdmissionMode = KvAdmissionMode::Optimistic;
    InferencePipeline pipeline(sim, latency, par::ParallelConfig{1, 1, 4, 8},
                               0, cb, batching);
    std::vector<ActiveRequest> batch;
    for (int i = 0; i < 8; ++i) {
        ActiveRequest r = makeRequest(i + 1);
        r.request.inputLen = 64;
        r.request.outputLen = 20 + 5 * i;
        // Charged below its peak, so every boundary runs the pressure
        // scan instead of the fully-covered early return.
        r.predictedOutputTokens = 8;
        batch.push_back(r);
    }
    pipeline.startBatch(std::move(batch));
    for (int i = 0; i < 3; ++i) // prefill + two decodes: warm the queue
        ASSERT_TRUE(sim.step());
    g_allocs.store(0);
    g_countAllocs.store(true);
    long boundaries = 0;
    while (sim.step())
        ++boundaries;
    g_countAllocs.store(false);
    EXPECT_EQ(g_allocs.load(), 0);
    EXPECT_GT(boundaries, 50);
    EXPECT_EQ(completions, 8);
    EXPECT_EQ(evictions, 0);
    EXPECT_TRUE(pipeline.idle());
}

// ---------------------------------------------------------------------
// Strides: several decode iterations per event, settled on access
// ---------------------------------------------------------------------

/** A recovered decoder with @p remaining output tokens left. */
ActiveRequest
decoder(wl::RequestId id, int remaining)
{
    return makeRequest(id, 128 - remaining);
}

/** One pipeline over decoders, strided or held to one iteration per
 *  event, recording the time of every boundary it observes. */
struct StrideHarness
{
    sim::Simulation sim;
    model::ModelSpec spec = model::ModelSpec::opt6_7b();
    cost::LatencyModel latency{spec, kParams};
    std::vector<sim::SimTime> observed;
    std::unique_ptr<InferencePipeline> pipeline;

    explicit StrideHarness(bool stepped)
    {
        InferencePipeline::Callbacks cb;
        cb.everyIteration = [stepped] { return stepped; };
        cb.onBoundary = [this](const InferencePipeline &) {
            observed.push_back(sim.now());
        };
        pipeline = std::make_unique<InferencePipeline>(
            sim, latency, par::ParallelConfig{1, 1, 4, 8}, 0, cb);
        pipeline->startBatch({decoder(1, 50), decoder(2, 60)});
    }
};

/** End time of each iteration of StrideHarness's batch (index i = end
 *  of iteration i; 0 = the start). */
std::vector<sim::SimTime>
boundaryTimes()
{
    StrideHarness ref(/*stepped=*/true);
    ref.sim.run();
    return ref.observed;
}

TEST(StrideTest, OneEventPerBatchChange)
{
    const auto t = boundaryTimes();
    ASSERT_EQ(t.size(), 61u);
    StrideHarness h(/*stepped=*/false);
    h.sim.run();
    // Two strides: to request 1's completion, then to request 2's.
    EXPECT_EQ(h.sim.eventsFired(), 2u);
    EXPECT_EQ(h.sim.now(), t[60]);
    EXPECT_EQ(h.pipeline->iterationsExecuted(), 60);
    EXPECT_EQ(h.pipeline->tokensCommitted(), 110);
    EXPECT_TRUE(h.pipeline->idle());
}

TEST(StrideTest, ReadAfterRunUntilSeesSettledState)
{
    const auto t = boundaryTimes();
    StrideHarness h(/*stepped=*/false);
    h.sim.run((t[20] + t[21]) / 2.0);
    EXPECT_EQ(h.pipeline->iterationsExecuted(), 20);
    EXPECT_EQ(h.pipeline->batch()[0].committedTokens, 78 + 20);
    // A boundary exactly at the horizon counts, as an event there fires.
    h.sim.run(t[30]);
    EXPECT_EQ(h.pipeline->tokensCommitted(), 60);
    EXPECT_EQ(h.pipeline->batch()[1].committedTokens, 68 + 30);
    EXPECT_EQ(h.sim.eventsFired(), 0u);
}

TEST(StrideTest, HaltsMidStrideCommitExactlyTheElapsedBoundaries)
{
    const auto t = boundaryTimes();
    const double mid = (t[10] + t[11]) / 2.0;
    // haltNow drops the in-flight 11th iteration; haltAfter(2) lets it
    // and two more finish, then drains.
    for (int after : {-1, 2}) {
        SCOPED_TRACE("haltAfter " + std::to_string(after));
        StrideHarness strided(false), stepped(true);
        for (StrideHarness *h : {&strided, &stepped}) {
            h->sim.schedule(mid, [h, after] {
                if (after < 0)
                    h->pipeline->haltNow();
                else
                    h->pipeline->haltAfter(after);
            });
            h->sim.run();
            EXPECT_TRUE(h->pipeline->halted());
        }
        const long want = after < 0 ? 10 : 13;
        EXPECT_EQ(strided.pipeline->iterationsExecuted(), want);
        EXPECT_EQ(stepped.pipeline->iterationsExecuted(), want);
        EXPECT_EQ(strided.pipeline->batch()[0].committedTokens, 78 + want);
        EXPECT_EQ(strided.sim.now(), stepped.sim.now());
        EXPECT_LT(strided.sim.eventsFired(), stepped.sim.eventsFired());
    }
}

// At exactly the 10th boundary's time, events order as if that boundary
// had been scheduled when the 9th ended: one scheduled at t=0 (before or
// after the batch started) precedes it, one scheduled after the 9th
// boundary follows it.  The same holds at the 50th, where the stride's
// own event fires: an event scheduled before the 49th precedes it.
TEST(StrideTest, SameTimeEventsOrderAsIfEachIterationWereScheduled)
{
    const auto t = boundaryTimes();
    sim::Simulation sim;
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    InferencePipeline pipeline(sim, latency, par::ParallelConfig{1, 1, 4, 8},
                               0, {});
    long first = -1, second = -1, late = -1, at_end = -1;
    sim.schedule(t[10], [&] { first = pipeline.iterationsExecuted(); });
    pipeline.startBatch({decoder(1, 50), decoder(2, 60)});
    sim.schedule(t[10], [&] { second = pipeline.iterationsExecuted(); });
    sim.schedule((t[9] + t[10]) / 2.0, [&] {
        sim.schedule(t[10], [&] { late = pipeline.iterationsExecuted(); });
    });
    sim.schedule(t[20], [&] {
        sim.schedule(t[50], [&] { at_end = pipeline.iterationsExecuted(); });
    });
    sim.run();
    EXPECT_EQ(first, 9);
    EXPECT_EQ(second, 9);
    EXPECT_EQ(late, 10);
    EXPECT_EQ(at_end, 49);
}

// Coincident replicas with equal batches finish their requests at the
// same instants; the strided run completes them in the same order as
// one-iteration-per-event runs, under order keys and in plain schedule
// order alike.
TEST(StrideTest, CoincidentReplicasCompleteInStrideOneOrder)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    auto completions = [&](int mode) {
        sim::Simulation sim;
        PlainOrderExecutor plain(sim);
        sim::Executor &exec =
            mode == 2 ? static_cast<sim::Executor &>(plain) : sim;
        std::vector<wl::RequestId> order;
        InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [&](const ActiveRequest &r) {
            order.push_back(r.request.id);
        };
        cb.everyIteration = [mode] { return mode == 1; };
        std::vector<std::unique_ptr<InferencePipeline>> replicas;
        for (int d = 0; d < 3; ++d) {
            replicas.push_back(std::make_unique<InferencePipeline>(
                exec, latency, par::ParallelConfig{1, 1, 4, 8}, d, cb));
        }
        for (int d = 0; d < 3; ++d) {
            const wl::RequestId base = 10 * (d + 1);
            replicas[d]->startBatch({decoder(base + 1, 20),
                                     decoder(base + 2, 35),
                                     decoder(base + 3, 35 + 10 * d)});
        }
        sim.run();
        return std::make_pair(order, sim.eventsFired());
    };
    const auto [strided, strided_events] = completions(0);
    const auto [keyed, keyed_events] = completions(1);
    const auto [plain, plain_events] = completions(2);
    ASSERT_EQ(strided.size(), 9u);
    EXPECT_EQ(strided, keyed);
    EXPECT_EQ(strided, plain);
    EXPECT_LT(strided_events, keyed_events);
    EXPECT_EQ(keyed_events, plain_events);
}

// A replica draws a new order key when its batch changes.  P completes
// request 1 at its 10th boundary, the instant an event scheduled before
// P started starts Q with a batch of P's shape: from then on the two
// coincide, and Q — whose boundary was scheduled first at that instant
// — completes first.  Without the new key P would keep its old place.
TEST(StrideTest, BatchChangeDrawsANewOrderKey)
{
    const auto spec = model::ModelSpec::opt6_7b();
    const cost::LatencyModel latency(spec, kParams);
    const par::ParallelConfig config{1, 1, 4, 8};
    auto completions = [&](int mode, sim::SimTime start_q) {
        sim::Simulation sim;
        PlainOrderExecutor plain(sim);
        sim::Executor &exec =
            mode == 2 ? static_cast<sim::Executor &>(plain) : sim;
        std::vector<wl::RequestId> order;
        std::vector<sim::SimTime> times;
        InferencePipeline::Callbacks cb;
        cb.onRequestComplete = [&](const ActiveRequest &r) {
            order.push_back(r.request.id);
        };
        cb.onBoundary = [&](const InferencePipeline &) {
            times.push_back(sim.now());
        };
        cb.everyIteration = [mode] { return mode == 1; };
        InferencePipeline p(exec, latency, config, 0, cb);
        InferencePipeline q(exec, latency, config, 1, cb);
        if (start_q > 0.0)
            exec.schedule(start_q, [&] { q.startBatch({decoder(3, 20)}); });
        p.startBatch({decoder(1, 10), decoder(2, 30)});
        sim.run();
        return std::make_pair(order, times);
    };
    const sim::SimTime t10 = completions(1, 0.0).second.at(10);
    const auto strided = completions(0, t10).first;
    const auto keyed = completions(1, t10).first;
    const auto plain = completions(2, t10).first;
    EXPECT_EQ(plain, (std::vector<wl::RequestId>{1, 3, 2}));
    EXPECT_EQ(strided, plain);
    EXPECT_EQ(keyed, plain);
}

TEST(ActiveRequestTest, RestartResetsProgress)
{
    ActiveRequest r = makeRequest(1, 40);
    EXPECT_EQ(r.nextContextLen(), 512 + 40 + 1);
    EXPECT_FALSE(r.done());
    r.resetForRestart();
    EXPECT_EQ(r.committedTokens, 0);
    EXPECT_EQ(r.restarts, 1);
    r.committedTokens = 128;
    EXPECT_TRUE(r.done());
}

// ---------------------------------------------------------------------
// Context arithmetic
// ---------------------------------------------------------------------

TEST(ContextStateTest, IdenticalPositionReusesEverything)
{
    const auto spec = model::ModelSpec::gpt20b();
    par::ParallelConfig cfg{2, 2, 8, 8};
    par::Topology topo(cfg, spec.numLayers());
    GpuContext held;
    held.gpu = 0;
    held.instance = 0;
    held.hasModelContext = true;
    held.config = cfg;
    held.position = par::Position{0, 0, 3};
    const double reuse =
        modelOverlapBytes(spec, held, topo, par::Position{0, 0, 3});
    EXPECT_NEAR(reuse, neededModelBytes(spec, topo, par::Position{0, 0, 3}),
                1.0);
}

TEST(ContextStateTest, DifferentStageSharesNothing)
{
    const auto spec = model::ModelSpec::gpt20b();
    par::ParallelConfig cfg{1, 2, 8, 8};
    par::Topology topo(cfg, spec.numLayers());
    GpuContext held;
    held.hasModelContext = true;
    held.config = cfg;
    held.position = par::Position{0, 0, 0};
    EXPECT_DOUBLE_EQ(
        modelOverlapBytes(spec, held, topo, par::Position{0, 1, 0}), 0.0);
}

TEST(ContextStateTest, ReshardingOverlapIsPartial)
{
    // Figure 4a: (1,2,8) -> (1,3,4).  A GPU holding shard 0/8 of stage 0
    // (layers 0..21) mapped to shard 0/4 of new stage 0 (layers 0..14)
    // reuses its full half of the new shard.
    const auto spec = model::ModelSpec::gpt20b(); // 44 layers
    par::ParallelConfig old_cfg{1, 2, 8, 8};
    par::ParallelConfig new_cfg{1, 3, 4, 8};
    par::Topology new_topo(new_cfg, spec.numLayers());
    GpuContext held;
    held.hasModelContext = true;
    held.config = old_cfg;
    held.position = par::Position{0, 0, 0};

    const double reuse =
        modelOverlapBytes(spec, held, new_topo, par::Position{0, 0, 0});
    // Common layers: old stage 0 = [0,22), new stage 0 = [0,15) -> 15.
    // Shard intersection: [0,1/8) within [0,1/4) -> 1/8.
    EXPECT_NEAR(reuse, 15 * spec.layerWeightBytes() / 8.0, 1.0);
    // The new position needs twice the shard width over 15 layers.
    EXPECT_NEAR(neededModelBytes(spec, new_topo, par::Position{0, 0, 0}),
                15 * spec.layerWeightBytes() / 4.0, 1.0);
}

TEST(ContextStateTest, CacheOverlapScalesWithTokens)
{
    const auto spec = model::ModelSpec::gpt20b();
    par::ParallelConfig cfg{1, 2, 8, 8};
    par::Topology topo(cfg, spec.numLayers());
    GpuContext held;
    held.hasModelContext = true;
    held.config = cfg;
    held.position = par::Position{0, 0, 2};
    held.cacheTokens = 1000.0;
    const double reuse =
        cacheOverlapBytes(spec, held, topo, par::Position{0, 0, 2});
    // 22 layers, shard width 1/8 of per-layer KV for 1000 tokens.
    EXPECT_NEAR(reuse, 1000.0 * spec.kvBytesPerTokenPerLayer() * 22 / 8.0,
                1.0);
    EXPECT_NEAR(neededCacheBytes(spec, topo, par::Position{0, 0, 2}, 1000.0),
                reuse, 1.0);
    held.cacheTokens = 0.0;
    EXPECT_DOUBLE_EQ(
        cacheOverlapBytes(spec, held, topo, par::Position{0, 0, 2}), 0.0);
}

TEST(ContextStateTest, SnapshotFind)
{
    ContextSnapshot snap;
    GpuContext a;
    a.gpu = 5;
    snap.gpus.push_back(a);
    EXPECT_NE(snap.find(5), nullptr);
    EXPECT_EQ(snap.find(6), nullptr);
}

TEST(ContextStateTest, IndexResolvesLikeFind)
{
    // Duplicate entries for one GPU (a stale holding next to a fresh
    // one): the index must resolve to the first, exactly as find() does.
    ContextSnapshot snap;
    for (par::GpuId gpu : {7, 2, 7, 9, 2}) {
        GpuContext c;
        c.gpu = gpu;
        c.cacheTokens = static_cast<double>(snap.gpus.size());
        snap.gpus.push_back(c);
    }
    const ContextIndex index(snap);
    for (par::GpuId gpu = -1; gpu <= 12; ++gpu)
        EXPECT_EQ(index.find(gpu), snap.find(gpu)) << "gpu " << gpu;
    EXPECT_EQ(index.find(7), &snap.gpus[0]);
    EXPECT_EQ(index.find(2), &snap.gpus[1]);
}

} // namespace
} // namespace spotserve::engine
