#include "serving/base_system.h"

#include <algorithm>
#include <stdexcept>

#include "simcore/logging.h"

namespace spotserve {
namespace serving {

BaseServingSystem::BaseServingSystem(sim::Executor &executor,
                                     cluster::InstanceManager &instances,
                                     RequestManager &requests,
                                     const model::ModelSpec &spec,
                                     const cost::CostParams &params,
                                     const cost::SeqSpec &seq,
                                     EngineOptions engine)
    : sim_(executor), instances_(instances), requests_(requests),
      spec_(spec), params_(params), seq_(seq), latency_(spec, params),
      memory_(spec, params), throughput_(latency_), engine_(engine)
{
    if (engine_.kvBlockTokens < 1)
        throw std::invalid_argument(
            "BaseServingSystem: kvBlockTokens must be >= 1 token");
    requests_.setQueuedObserver([this] {
        if (!dealingArrival_)
            cutStrideForQueuedWork();
    });
}

BaseServingSystem::~BaseServingSystem()
{
    requests_.setQueuedObserver(nullptr);
}

void
BaseServingSystem::forEachPipeline(
    const std::function<void(engine::InferencePipeline &)> &fn) const
{
    if (!deployment_)
        return;
    for (const auto &p : deployment_->pipelines) {
        if (p)
            fn(*p);
    }
}

void
BaseServingSystem::cutStrideForQueuedWork()
{
    // Invariant while work is queued: of the replicas that could admit
    // it (executing, no halt pending, a free slot), the one whose next
    // boundary comes first runs that boundary as its own event.  That
    // boundary admits exactly what it would with every boundary an
    // event; one that leaves work queued calls here again.  A replica
    // inside its own boundary has no planned step and is skipped: it
    // plans one iteration next while work is queued.  Without order
    // keys every boundary is an event already.
    if (requests_.pendingEmpty() || !sim_.supportsOrderKeys())
        return;
    engine::InferencePipeline *first = nullptr;
    engine::InferencePipeline::NextBoundary at{};
    forEachPipeline([&](engine::InferencePipeline &p) {
        if (!p.executing() || p.haltPending() || p.freeSlots() == 0)
            return;
        const auto next = p.nextBoundary();
        if (next && (!first || next->time < at.time ||
                     (next->time == at.time && next->order < at.order))) {
            first = &p;
            at = *next;
        }
    });
    if (first && at.strided)
        first->cutStride();
}

void
BaseServingSystem::haltPipeline(engine::InferencePipeline &pipeline,
                                int iterations)
{
    pipeline.haltAfter(iterations);
    cutStrideForQueuedWork();
}

void
BaseServingSystem::haltPipelineNow(engine::InferencePipeline &pipeline)
{
    pipeline.haltNow();
    cutStrideForQueuedWork();
}

void
BaseServingSystem::settlePipelines() const
{
    forEachPipeline([](engine::InferencePipeline &p) { p.settle(); });
}

void
BaseServingSystem::setKvObserver(
    std::function<void(const engine::InferencePipeline &)> observer)
{
    kvObserver_ = std::move(observer);
    forEachPipeline([](engine::InferencePipeline &p) { p.cutStride(); });
}

void
BaseServingSystem::setTokenObserver(
    std::function<void(const engine::ActiveRequest &)> observer)
{
    tokenObserver_ = std::move(observer);
    forEachPipeline([](engine::InferencePipeline &p) { p.cutStride(); });
}

long
BaseServingSystem::rejectUnservableHeads(long budget_blocks, int block_tokens)
{
    long rejected = 0;
    while (!requests_.pendingEmpty()) {
        const engine::ActiveRequest &head = requests_.pending().front();
        const long peak = head.kvPeakBlocks(block_tokens);
        if (peak <= budget_blocks)
            break;
        // A head that fits *because* of prefix sharing is servable: its
        // physical peak shrinks by the matched-and-live shared blocks
        // some replica already holds.  Only a head that carries a prefix
        // can match any, and the quote settles every replica, so it is
        // taken only here.  Restarted heads stay undiscounted (the
        // eviction-storm guard — they must fit worst case alone).
        if (sharesPrefix(head) &&
            peak - bestPrefixDiscount(head) <= budget_blocks)
            break;
        // Even an empty replica cannot host this request: reject it
        // rather than letting it head-block the strict-FIFO queue.
        const wl::RequestId id = requests_.rejectHead();
        if (sim::logEnabled(sim::LogLevel::Warn)) {
            sim::logWarn(name() + ": rejecting request " +
                         std::to_string(id) +
                         " (KV peak exceeds the replica budget " +
                         std::to_string(budget_blocks) + " blocks of " +
                         std::to_string(block_tokens) + " tokens)");
        }
        ++rejected;
    }
    return rejected;
}

long
BaseServingSystem::bestPrefixDiscount(const engine::ActiveRequest &head) const
{
    long best = 0;
    forEachPipeline([&](engine::InferencePipeline &p) {
        best = std::max(best, p.prefixQuoteBlocks(head));
    });
    return best;
}

long
BaseServingSystem::replicaKvBudget(const par::ParallelConfig &config) const
{
    const long budget = memory_.kvBudgetTokens(config, memOptReserve_);
    // A deployed configuration passed MemoryModel::fits, so the budget is
    // positive; hand-built deployments that don't fit get a loud 1-token
    // budget (they can admit nothing) rather than a crash or an overrun.
    if (budget <= 0) {
        sim::logWarn("replicaKvBudget: configuration " + config.str() +
                     " has no KV headroom; admission will starve");
        return 1;
    }
    return budget;
}

int
BaseServingSystem::effectiveKvBlockTokens(
    const par::ParallelConfig &config) const
{
    // Shared engine rule: degenerate no-headroom budgets keep token
    // granularity, so the pop-path charges match what the pipeline
    // built for this config enforces.
    return engine::effectiveKvBlockTokens(replicaKvBudget(config),
                                          engine_.kvBlockTokens);
}

long
BaseServingSystem::replicaKvBudgetBlocks(
    const par::ParallelConfig &config) const
{
    return replicaKvBudget(config) / effectiveKvBlockTokens(config);
}

void
BaseServingSystem::onRequestArrival(const wl::Request &request)
{
    // Idle replicas take their pick first: only work still queued after
    // that can be admitted at a striding replica's next boundary.
    dealingArrival_ = true;
    handleArrival(request);
    dealingArrival_ = false;
    cutStrideForQueuedWork();
}

void
BaseServingSystem::handleArrival(const wl::Request &request)
{
    requests_.submit(request);
    dispatchAll();
}

std::optional<par::ParallelConfig>
BaseServingSystem::currentConfig() const
{
    if (!deployment_)
        return std::nullopt;
    return deployment_->config;
}

par::DeviceMesh
BaseServingSystem::packedMesh(
    const par::ParallelConfig &config,
    const std::vector<const cluster::Instance *> &instance_list) const
{
    par::DeviceMesh mesh(config, spec_.numLayers());
    std::vector<par::GpuId> gpus;
    for (const auto *inst : instance_list) {
        for (par::GpuId g : inst->gpuIds())
            gpus.push_back(g);
    }
    const int total = config.totalGpus();
    if (static_cast<int>(gpus.size()) < total)
        throw std::invalid_argument("packedMesh: not enough GPUs");
    const auto &topo = mesh.topology();
    for (int i = 0; i < total; ++i)
        mesh.assign(topo.position(i), gpus[i]);
    return mesh;
}

std::vector<cluster::InstanceId>
BaseServingSystem::meshInstances() const
{
    std::vector<cluster::InstanceId> out;
    if (!deployment_)
        return out;
    for (par::GpuId g : deployment_->mesh.gpus()) {
        const auto inst =
            cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance);
        if (std::find(out.begin(), out.end(), inst) == out.end())
            out.push_back(inst);
    }
    return out;
}

bool
BaseServingSystem::meshUsesInstance(cluster::InstanceId id) const
{
    if (!deployment_)
        return false;
    for (par::GpuId g : deployment_->mesh.gpus()) {
        if (cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance) == id)
            return true;
    }
    return false;
}

std::vector<int>
BaseServingSystem::pipelinesUsingInstance(cluster::InstanceId id) const
{
    std::vector<int> out;
    if (!deployment_)
        return out;
    const auto &cfg = deployment_->config;
    for (int d = 0; d < cfg.dp; ++d) {
        bool uses = false;
        for (par::GpuId g : deployment_->mesh.pipelineGpus(d)) {
            if (g != par::kInvalidGpu &&
                cluster::Instance::instanceOfGpu(
                    g, params_.gpusPerInstance) == id) {
                uses = true;
                break;
            }
        }
        if (uses)
            out.push_back(d);
    }
    return out;
}

std::unique_ptr<engine::InferencePipeline>
BaseServingSystem::makePipeline(const par::ParallelConfig &config, int index)
{
    engine::InferencePipeline::Callbacks cb;
    cb.onRequestComplete = [this](const engine::ActiveRequest &r) {
        requests_.complete(r);
    };
    cb.onToken = [this](const engine::ActiveRequest &r) {
        if (tokenObserver_)
            tokenObserver_(r);
    };
    cb.everyIteration = [this] {
        return static_cast<bool>(tokenObserver_) ||
               static_cast<bool>(kvObserver_);
    };
    cb.workQueued = [this] { return !requests_.pendingEmpty(); };
    cb.onIdle = [this](engine::InferencePipeline &p) { onPipelineIdle(p); };
    cb.onHalted = [this](engine::InferencePipeline &p) {
        onPipelineHalted(p);
    };
    cb.onAdmit = [this](engine::InferencePipeline &p, int free_slots) {
        return admitAtBoundary(p, free_slots);
    };
    // Prefix-sharing counters are monotone per pipeline; harvest them as
    // deltas against a per-pipeline last-seen snapshot so totals survive
    // pipeline teardown (migrations rebuild pipelines constantly).
    struct PrefixSeen
    {
        long hits = 0;
        long tokens = 0;
        long cows = 0;
        double saved = 0.0;
    };
    auto seen = std::make_shared<PrefixSeen>();
    cb.onBoundary = [this, seen](const engine::InferencePipeline &p) {
        peakKvHeldTokens_ = std::max(peakKvHeldTokens_, p.kvTokensHeld());
        peakKvReservedTokens_ =
            std::max(peakKvReservedTokens_, p.kvTokensReserved());
        peakKvHeldBlocks_ = std::max(peakKvHeldBlocks_, p.kvBlocksHeld());
        peakKvPhysicalBlocks_ =
            std::max(peakKvPhysicalBlocks_, p.kvPhysicalBlocksHeld());
        prefixHitsTotal_ += p.prefixHits() - seen->hits;
        seen->hits = p.prefixHits();
        prefixMatchedTokensTotal_ += p.prefixMatchedTokens() - seen->tokens;
        seen->tokens = p.prefixMatchedTokens();
        cowCopiesTotal_ += p.cowCopies() - seen->cows;
        seen->cows = p.cowCopies();
        savedPrefillSecondsTotal_ += p.savedPrefillSeconds() - seen->saved;
        seen->saved = p.savedPrefillSeconds();
        peakConcurrentRequests_ = std::max(
            peakConcurrentRequests_, static_cast<int>(p.batch().size()));
        if (kvObserver_)
            kvObserver_(p);
    };
    cb.onEvict = [this](engine::InferencePipeline &p,
                        std::vector<engine::ActiveRequest> evicted) {
        evictionsTotal_ += static_cast<long>(evicted.size());
        for (const auto &r : evicted) {
            evictedWorkSeconds_ += latency_.recomputeTime(
                p.config(), r.request.inputLen, r.prefillTokens,
                r.committedTokens);
        }
        // The victims' cache is gone: reset and requeue through the one
        // shared restart path (they re-enter in arrival order, charged
        // their full worst case — the eviction-storm guard).
        requests_.requeueRestarted(std::move(evicted));
        // The evicting pipeline is mid-boundary; let idle replicas with
        // real headroom pick the work up once this event settles.
        sim_.schedule(sim_.now(), [this] { dispatchPending(); });
    };
    engine::BatchingOptions batching;
    batching.kvBudgetTokens = replicaKvBudget(config);
    batching.kvBlockTokens = engine_.kvBlockTokens;
    batching.prefillChunkTokens = engine_.prefillChunkTokens;
    batching.prefixSharing = engine_.prefixSharing;
    batching.kvAdmissionMode = engine_.kvAdmissionMode;
    if (engine_.kvAdmissionMode == engine::KvAdmissionMode::Optimistic) {
        const cost::KvWatermarks wm = memory_.kvWatermarks(
            config, engine_.kvBlockTokens, memOptReserve_);
        batching.kvHighWatermarkBlocks = wm.high;
        batching.kvLowWatermarkBlocks = wm.low;
    }
    return std::make_unique<engine::InferencePipeline>(
        sim_, latency_, config, index, std::move(cb), batching);
}

void
BaseServingSystem::installDeployment(
    const par::ParallelConfig &config, par::DeviceMesh mesh,
    std::vector<std::unique_ptr<engine::InferencePipeline>> carried)
{
    if (deployment_)
        throw std::logic_error("installDeployment: clear the old one first");
    Deployment dep{config, std::move(mesh), {}, {}};
    dep.pipelines.reserve(config.dp);
    for (int d = 0; d < config.dp; ++d) {
        if (d < static_cast<int>(carried.size()) && carried[d]) {
            if (carried[d]->config().pp != config.pp ||
                carried[d]->config().tp != config.tp ||
                carried[d]->config().batch != config.batch) {
                throw std::logic_error(
                    "installDeployment: carried pipeline shape mismatch");
            }
            carried[d]->setIndex(d);
            dep.pipelines.push_back(std::move(carried[d]));
            continue;
        }
        dep.pipelines.push_back(makePipeline(config, d));
    }
    deployment_ = std::move(dep);
    // Carried replicas may be mid-stride and able to admit queued work.
    cutStrideForQueuedWork();

    // Every mapped GPU's context daemon now holds its position's model
    // context (migration/cold load completed before activation).
    const auto &topo = deployment_->mesh.topology();
    for (int i = 0; i < topo.size(); ++i) {
        const par::Position pos = topo.position(i);
        const par::GpuId g = deployment_->mesh.gpuAt(pos);
        engine::GpuContext ctx;
        ctx.gpu = g;
        ctx.instance =
            cluster::Instance::instanceOfGpu(g, params_.gpusPerInstance);
        ctx.hasModelContext = true;
        ctx.config = config;
        ctx.position = pos;
        holdings_[g] = ctx;
    }
}

void
BaseServingSystem::clearDeployment()
{
    // The boundaries the pipelines passed still feed the peak totals.
    settlePipelines();
    deployment_.reset();
}

void
BaseServingSystem::loadBatch(int pipeline_idx,
                             std::vector<engine::ActiveRequest> batch)
{
    if (!deployment_)
        throw std::logic_error("loadBatch: no deployment");
    auto &p = deployment_->pipelines.at(pipeline_idx);
    if (!p)
        throw std::logic_error("loadBatch: broken pipeline");
    if (batch.empty())
        return;
    p->startBatch(std::move(batch));
}

void
BaseServingSystem::dispatchAll()
{
    if (!deployment_)
        return;
    std::vector<engine::InferencePipeline *> ready;
    for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
        auto &p = deployment_->pipelines[d];
        if (!p || !p->idle() || p->haltPending())
            continue;
        if (d < deployment_->readyAt.size() &&
            deployment_->readyAt[d] > sim_.now()) {
            continue; // still finishing its progressive migration
        }
        ready.push_back(p.get());
    }
    if (ready.empty() || requests_.pendingEmpty())
        return;

    // Deal the FIFO queue onto the least-loaded replica one request at a
    // time (fewest requests, then least charged KV): D small batches
    // decode faster than one full batch and keep KV headroom even.
    // All budgets and charges are in whole KV blocks, matching what the
    // pipelines enforce.
    const long budget = replicaKvBudgetBlocks(deployment_->config);
    const int blk = effectiveKvBlockTokens(deployment_->config);
    const engine::KvAdmissionMode mode = engine_.kvAdmissionMode;
    std::vector<std::vector<engine::ActiveRequest>> batches(ready.size());
    std::vector<long> charged(ready.size(), 0);
    while (!requests_.pendingEmpty()) {
        if (rejectUnservableHeads(budget, blk) > 0)
            continue;
        if (requests_.pendingEmpty())
            break;
        // Least-loaded replica with a free slot AND enough KV headroom
        // for the FIFO head; stop only when the head fits no replica
        // (strict head-blocking — nothing slips past it).  With prefix
        // sharing each replica quotes its own discount for the head
        // (matched-and-live shared blocks it already holds), and the
        // replica offering the biggest discount wins — colocating the
        // head with its prefix both frees budget and skips prefill.
        // All quotes are zero without sharing, reducing the selection to
        // the plain least-loaded rule.
        const long head_charge = requests_.headKvCharge(mode, blk);
        const engine::ActiveRequest &head = requests_.pending().front();
        std::vector<long> quote(ready.size(), 0);
        if (sharesPrefix(head)) {
            for (std::size_t i = 0; i < ready.size(); ++i)
                quote[i] = ready[i]->prefixQuoteBlocks(head);
        }
        int best = -1;
        for (int i = 0; i < static_cast<int>(ready.size()); ++i) {
            if (static_cast<int>(batches[i].size()) >=
                deployment_->config.batch)
                continue;
            if (charged[i] + head_charge - quote[i] > budget)
                continue;
            if (best < 0 || quote[i] > quote[best] ||
                (quote[i] == quote[best] &&
                 (batches[i].size() < batches[best].size() ||
                  (batches[i].size() == batches[best].size() &&
                   charged[i] < charged[best])))) {
                best = i;
            }
        }
        if (best < 0)
            break;
        auto got = requests_.nextBatch(1, budget - charged[best], mode,
                                       budget, blk,
                                       ready[best]->kvStore());
        if (got.empty())
            break;
        charged[best] += std::max(
            0L, got.front().kvChargedBlocks(mode, blk) - quote[best]);
        batches[best].push_back(std::move(got.front()));
    }
    for (std::size_t i = 0; i < ready.size(); ++i) {
        if (!batches[i].empty())
            ready[i]->startBatch(std::move(batches[i]));
    }
}

std::vector<std::vector<engine::ActiveRequest>>
BaseServingSystem::haltAndCollectAll()
{
    std::vector<std::vector<engine::ActiveRequest>> out;
    if (!deployment_)
        return out;
    out.resize(deployment_->pipelines.size());
    for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
        auto &p = deployment_->pipelines[d];
        if (!p)
            continue;
        p->haltNow();
        out[d] = p->takeBatch();
    }
    return out;
}

std::vector<engine::ActiveRequest>
BaseServingSystem::removePipeline(int idx)
{
    if (!deployment_)
        return {};
    auto &p = deployment_->pipelines.at(idx);
    if (!p)
        return {};
    p->haltNow();
    auto batch = p->takeBatch();
    p.reset();
    cutStrideForQueuedWork();
    return batch;
}

void
BaseServingSystem::restartAndRequeue(std::vector<engine::ActiveRequest> batch)
{
    // Single-source restart semantics (resetForRestart) shared with the
    // eviction and drop paths, applied inside the request manager.
    restartedRequeues_ += static_cast<long>(batch.size());
    requests_.requeueRestarted(std::move(batch));
}

long
BaseServingSystem::liveKvRefs() const
{
    long refs = 0;
    forEachPipeline([&](engine::InferencePipeline &p) {
        if (p.kvStore() != nullptr)
            refs += p.kvStore()->totalLiveRefs();
    });
    return refs;
}

void
BaseServingSystem::recordConfig(const par::ParallelConfig &config,
                                const std::string &reason)
{
    history_.push_back(ConfigChange{sim_.now(), config, reason});
    if (sim::logEnabled(sim::LogLevel::Info)) {
        sim::logInfo("t=" + std::to_string(sim_.now()) + " " + name() +
                     " config -> " + config.str() + " (" + reason + ")");
    }
}

engine::ContextSnapshot
BaseServingSystem::snapshotContext() const
{
    engine::ContextSnapshot snap;
    for (const auto &[gpu, held] : holdings_) {
        engine::GpuContext ctx = held;
        ctx.cacheTokens = 0.0;
        snap.gpus.push_back(ctx);
    }
    // Fill cache tokens from live batches: every GPU of replica d holds
    // that replica's KV slice for its own stage/shard.
    if (deployment_) {
        for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
            const auto &p = deployment_->pipelines[d];
            if (!p)
                continue;
            // Physical (deduplicated) tokens: with prefix sharing the KV
            // bytes a migration must move are the store's live blocks,
            // not the per-request logical sum.
            const double tokens =
                static_cast<double>(p->kvTokensHeldPhysical());
            if (tokens <= 0.0)
                continue;
            for (par::GpuId g :
                 deployment_->mesh.pipelineGpus(static_cast<int>(d))) {
                for (auto &ctx : snap.gpus) {
                    if (ctx.gpu == g)
                        ctx.cacheTokens = tokens;
                }
            }
        }
    }
    // Drop GPUs whose instance is no longer usable.
    std::vector<engine::GpuContext> alive;
    for (const auto &ctx : snap.gpus) {
        const auto *inst = instances_.get(ctx.instance);
        if (inst && inst->usable())
            alive.push_back(ctx);
    }
    snap.gpus = std::move(alive);
    // Deterministic order for the mapper.
    std::sort(snap.gpus.begin(), snap.gpus.end(),
              [](const engine::GpuContext &a, const engine::GpuContext &b) {
                  return a.gpu < b.gpu;
              });
    return snap;
}

void
BaseServingSystem::forgetInstance(cluster::InstanceId id)
{
    for (auto it = holdings_.begin(); it != holdings_.end();) {
        if (it->second.instance == id)
            it = holdings_.erase(it);
        else
            ++it;
    }
}

int
BaseServingSystem::maxReplicas(int pp, int tp, int num_instances) const
{
    const int gpi = params_.gpusPerInstance;
    if (tp > gpi) {
        // Whole instances per stage.
        const int inst_per_replica = pp * (tp / gpi);
        return num_instances / inst_per_replica;
    }
    return num_instances * gpi / (pp * tp);
}

void
BaseServingSystem::onPipelineIdle(engine::InferencePipeline &pipeline)
{
    if (!deployment_ || pipeline.haltPending())
        return;
    // Balanced refill: the newly idle replica competes with any other
    // idle ones for the queue instead of grabbing a full batch alone.
    dispatchAll();
}

void
BaseServingSystem::onPipelineHalted(engine::InferencePipeline &)
{
}

std::vector<engine::ActiveRequest>
BaseServingSystem::admitAtBoundary(engine::InferencePipeline &pipeline,
                                   int free_slots)
{
    // Nothing queued: no head to reject, nothing to pop or deal out, so
    // skip the scan of the other replicas (most boundaries end here).
    if (requests_.pendingEmpty())
        return {};
    // A head whose worst-case peak exceeds the whole replica budget is
    // unservable on every admission path.  Optimistic charging could
    // admit it (its *predicted* footprint fits), but if the output then
    // ran toward its cap no eviction could restore the budget once it
    // became the protected oldest member — so it is rejected here exactly
    // as idle-batch formation rejects it, keeping a request's fate
    // independent of which admission path reaches it first.
    rejectUnservableHeads(pipeline.kvBudgetBlocks(),
                          pipeline.kvBlockTokens());
    // Replica balancing at the boundary: when other idle replicas could
    // start this work immediately in fresh (faster, lighter) batches, the
    // boundary admission only claims its even split of the queue and the
    // remainder is dealt to the idle replicas right after.
    int idle_others = 0;
    if (deployment_) {
        for (std::size_t d = 0; d < deployment_->pipelines.size(); ++d) {
            auto &p = deployment_->pipelines[d];
            if (!p || p.get() == &pipeline || !p->idle() ||
                p->haltPending())
                continue;
            if (d < deployment_->readyAt.size() &&
                deployment_->readyAt[d] > sim_.now())
                continue;
            ++idle_others;
        }
    }
    int slots = free_slots;
    if (idle_others > 0) {
        const long pending = static_cast<long>(requests_.pendingCount());
        const long share = (pending + idle_others) / (idle_others + 1);
        slots = static_cast<int>(
            std::min<long>(slots, std::max<long>(1, share)));
    }
    auto admitted = requests_.admitAtBoundary(slots, pipeline.freeKvBlocks(),
                                              pipeline.kvAdmissionMode(),
                                              pipeline.kvBudgetBlocks(),
                                              pipeline.kvBlockTokens(),
                                              pipeline.kvStore());
    // The asking pipeline is mid-boundary (not idle), so dispatchAll only
    // touches the others.
    if (idle_others > 0 && !requests_.pendingEmpty())
        dispatchAll();
    // Work still queued goes to the next replica's boundary.
    cutStrideForQueuedWork();
    return admitted;
}

} // namespace serving
} // namespace spotserve
