/**
 * @file
 * Shared machinery for all serving systems.
 *
 * SpotServe and both baselines run on the same engine substrate ("they are
 * implemented with the same inference engine as SpotServe to avoid
 * unfairness", §6.1) and the same Algorithm 1 optimizer (Fig. 8): this
 * base class owns the deployment (configuration, device mesh, pipelines),
 * the dispatch loop, context-daemon holdings, configuration history, and
 * the reconfiguration loop around the optimizer — controller, transfer
 * data plane, coalesced scheduleEval -> evaluate(), design-rate floors,
 * the voluntary-change gate and the workload monitor.  Systems differ
 * only in their hooks.
 */

#ifndef SPOTSERVE_SERVING_BASE_SYSTEM_H
#define SPOTSERVE_SERVING_BASE_SYSTEM_H

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "core/transfer_data_plane.h"
#include "costmodel/latency_model.h"
#include "costmodel/memory_model.h"
#include "costmodel/throughput_model.h"
#include "engine/context_state.h"
#include "engine/inference_pipeline.h"
#include "model/model_spec.h"
#include "serving/request_manager.h"
#include "serving/serving_system.h"
#include "simcore/executor.h"

namespace spotserve {
namespace serving {

/**
 * The engine knobs every serving system shares, declared once.
 * makePipeline copies them into each replica's engine::BatchingOptions
 * (which adds the per-configuration KV budget and watermarks).
 */
struct EngineOptions
{
    /**
     * Chunked prefill: cap one request's prefill work per iteration at
     * this many input tokens (0 = the whole input in one iteration),
     * bounding the decode stall a long-input newcomer can inflict on the
     * in-flight batch.
     */
    int prefillChunkTokens = 0;

    /**
     * How requests are charged against the KV budget.  Optimistic
     * charges held + predicted-output tokens, learns the output-length
     * distribution from completions, and evicts LIFO victims at
     * watermark pressure; Reserve keeps the worst-case (prompt + output
     * cap) reservation.
     */
    engine::KvAdmissionMode kvAdmissionMode =
        engine::KvAdmissionMode::Optimistic;

    /**
     * KV allocation granularity in tokens per block (paged KV cache,
     * >= 1).  Admission charges ceil-rounded whole blocks per request and
     * the per-replica budget is floored to whole blocks, so the enforced
     * budget matches what a PagedAttention-style allocator can actually
     * hand out.  1 reproduces token-granular accounting bit-for-bit.
     */
    int kvBlockTokens = 16;

    /**
     * Block-level prefix sharing with copy-on-write
     * (engine::KvBlockStore): each replica holds shared prompt prefixes
     * once, full prefix hits skip the matched prefill compute, and every
     * admission path quotes the post-prefix-hit physical demand.  Off
     * reproduces the scalar per-request block accounting bit-for-bit
     * (also arithmetically identical on prefix-free workloads).
     */
    bool prefixSharing = true;
};

/** Common deployment + dispatch machinery. */
class BaseServingSystem : public ServingSystem
{
  public:
    /**
     * @param design_rate expected requests/s every decision floors the
     *        arrival estimate at (it sizes the first deployment too).
     * @param space the controller's search space; its memOptPlanner also
     *        sets the migration reserve the KV budget deducts.
     */
    BaseServingSystem(sim::Executor &executor,
                      cluster::InstanceManager &instances,
                      RequestManager &requests, const model::ModelSpec &spec,
                      const cost::CostParams &params,
                      const cost::SeqSpec &seq, double design_rate = 0.0,
                      EngineOptions engine = {},
                      cost::ConfigSpaceOptions space = {},
                      core::ControllerOptions controller = {});

    /** Detaches from the request manager's queued observer. */
    ~BaseServingSystem() override;

    void onRequestArrival(const wl::Request &request) override;
    const std::vector<ConfigChange> &configHistory() const override
    {
        return history_;
    }

    /** The engine knobs every pipeline of this system is built with. */
    const EngineOptions &engineOptions() const { return engine_; }

    /** Current configuration if a deployment is active. */
    std::optional<par::ParallelConfig> currentConfig() const;

    /** Where migrations and cold loads run (faults attach here). */
    core::TransferDataPlane &dataPlane() { return dataPlane_; }

    /**
     * Requests that went through the shared restart path (progress reset
     * and requeued) over the whole run.  Crash-consistency audit signal:
     * every request a fault knocks off a pipeline must pass through here
     * exactly as many times as it was knocked off.
     */
    long restartedRequeues() const { return restartedRequeues_; }

    /**
     * Live KV block references summed over every live replica's
     * KvBlockStore (0 with prefix sharing off or no replica).  Leak
     * audit for the fault tests: once every request has completed or
     * been rejected, any nonzero value is a reference a recovery path
     * failed to release.
     */
    long liveKvRefs() const;

    /**
     * Observer forwarded to every pipeline's iteration-boundary callback
     * (tests assert the KV-budget invariant here; benches sample peaks).
     * While one is set, replicas run one iteration per event, so it sees
     * every boundary from each replica's next boundary on.
     */
    void setKvObserver(
        std::function<void(const engine::InferencePipeline &)> observer);

    /**
     * Observer forwarded to every pipeline's per-token callback: fired
     * once per request per committed output token.  The socket ingress
     * streams tokens from here; experiments leave it unset.  Like the KV
     * observer it holds replicas to one iteration per event, and takes
     * effect from each replica's next boundary.
     */
    void setTokenObserver(
        std::function<void(const engine::ActiveRequest &)> observer);

    // The totals below count every boundary at or before now(): each
    // getter first settles the replicas' planned iterations.

    /** Largest KV holding any replica reached at a boundary (tokens). */
    long peakKvHeldTokens() const
    {
        settlePipelines();
        return peakKvHeldTokens_;
    }
    /** Largest worst-case KV reservation any replica reached (tokens). */
    long peakKvReservedTokens() const
    {
        settlePipelines();
        return peakKvReservedTokens_;
    }
    /** Largest KV holding any replica reached at a boundary, in whole
     *  KV blocks (per-request ceil rounding — what a paged allocator
     *  would really have handed out).  Logical: shared prefix blocks
     *  count once per referencing request. */
    long peakKvHeldBlocks() const
    {
        settlePipelines();
        return peakKvHeldBlocks_;
    }
    /** Largest *physical* (deduplicated) block holding any replica
     *  reached at a boundary.  Equals peakKvHeldBlocks without prefix
     *  sharing; strictly smaller whenever prefixes were shared. */
    long peakKvPhysicalBlocks() const
    {
        settlePipelines();
        return peakKvPhysicalBlocks_;
    }
    /** Prefix-cache hits across all pipelines (attaches that matched). */
    long prefixHitsTotal() const
    {
        settlePipelines();
        return prefixHitsTotal_;
    }
    /** Prefix tokens whose prefill compute was skipped, total. */
    long prefixMatchedTokensTotal() const
    {
        settlePipelines();
        return prefixMatchedTokensTotal_;
    }
    /** Copy-on-write block copies across all pipelines. */
    long cowCopiesTotal() const
    {
        settlePipelines();
        return cowCopiesTotal_;
    }
    /** Prefill seconds skipped thanks to prefix hits (LatencyModel). */
    double savedPrefillSecondsTotal() const
    {
        settlePipelines();
        return savedPrefillSecondsTotal_;
    }
    /** Largest live batch any replica reached at a boundary (requests). */
    int peakConcurrentRequests() const
    {
        settlePipelines();
        return peakConcurrentRequests_;
    }
    /** Requests evicted by optimistic admission across all pipelines. */
    long evictionsTotal() const
    {
        settlePipelines();
        return evictionsTotal_;
    }
    /** Committed work (seconds to recompute) those evictions discarded. */
    double evictedWorkSeconds() const
    {
        settlePipelines();
        return evictedWorkSeconds_;
    }

  protected:
    /** Active deployment: configuration, mesh, one pipeline per replica. */
    struct Deployment
    {
        par::ParallelConfig config;
        par::DeviceMesh mesh;
        /** Index d; broken replicas are nullptr. */
        std::vector<std::unique_ptr<engine::InferencePipeline>> pipelines;
        /**
         * Absolute time each replica comes online (progressive migration
         * resume); empty means all replicas are ready immediately.
         */
        std::vector<sim::SimTime> readyAt;
    };

    bool hasDeployment() const { return deployment_.has_value(); }
    Deployment &deployment() { return *deployment_; }
    const Deployment &deployment() const { return *deployment_; }

    /**
     * Pack the configuration's positions onto @p instance_list in order:
     * flat (d, p, m) positions fill each instance's GPUs before moving to
     * the next.  Tensor groups never straddle instances because M divides
     * the per-instance GPU count (or is a multiple of it).
     */
    par::DeviceMesh
    packedMesh(const par::ParallelConfig &config,
               const std::vector<const cluster::Instance *> &instance_list)
        const;

    /** Instances referenced by the active mesh (deduplicated). */
    std::vector<cluster::InstanceId> meshInstances() const;
    bool meshUsesInstance(cluster::InstanceId id) const;

    /** Replica indices whose pipeline maps any GPU of @p id. */
    std::vector<int> pipelinesUsingInstance(cluster::InstanceId id) const;

    /**
     * Replace the deployment: build one InferencePipeline per replica and
     * update context-daemon holdings for every mapped GPU.
     *
     * @param carried optional per-replica pipelines to adopt instead of
     *        building fresh ones (overlapped reconfiguration: replicas
     *        whose GPUs and shape the new mapping keeps in place serve
     *        straight through and their live pipeline objects — batches,
     *        in-flight iterations, KV accounting — move into the new
     *        deployment untouched).  A carried pipeline must have been
     *        built for the same (P, M, B) shape; entries may be null.
     */
    void installDeployment(
        const par::ParallelConfig &config, par::DeviceMesh mesh,
        std::vector<std::unique_ptr<engine::InferencePipeline>> carried = {});

    /** Destroy all pipelines (holdings are retained: daemons stay alive). */
    void clearDeployment();

    /**
     * Visit every live pipeline this system owns: the deployment's
     * replicas by default; systems with their own pipeline pools
     * (rerouting slots) override.
     */
    virtual void forEachPipeline(
        const std::function<void(engine::InferencePipeline &)> &fn) const;

    /**
     * Commit every live replica's planned iterations up to now (see
     * InferencePipeline::settle).  The peak and prefix totals are
     * accumulated at boundaries, so their getters call this first.
     */
    void settlePipelines() const;

    /** Give replica @p pipeline_idx a recovered batch and start it. */
    void loadBatch(int pipeline_idx,
                   std::vector<engine::ActiveRequest> batch);

    /**
     * Fill idle replicas from the request queue, spreading the FIFO head
     * across the least-loaded replicas (fewest live requests, then least
     * reserved KV): several small batches decode faster than one full
     * batch and keep per-replica KV headroom even across the
     * data-parallel pipelines.
     */
    void dispatchAll();

    /** Halt every replica, requeue all their work restarted, and drop
     *  the deployment (no-op without one). */
    void requeueDeployment();

    /** Remove one replica's pipeline and return its batch. */
    std::vector<engine::ActiveRequest> removePipeline(int idx);

    /**
     * Halt @p pipeline after at most @p iterations more boundaries
     * (InferencePipeline::haltAfter).  A halting replica admits nothing,
     * so queued work it was due to take moves to the boundary of the
     * replica that is next (see cutStrideForQueuedWork); halt replicas
     * through here, or call that yourself.
     */
    void haltPipeline(engine::InferencePipeline &pipeline, int iterations);

    /** haltPipeline, but at once (InferencePipeline::haltNow). */
    void haltPipelineNow(engine::InferencePipeline &pipeline);

    /** Reset progress of @p batch and put it back on the queue. */
    void restartAndRequeue(std::vector<engine::ActiveRequest> batch);

    /** Append to the configuration history. */
    void recordConfig(const par::ParallelConfig &config,
                      const std::string &reason);

    /**
     * Snapshot every usable GPU's context-daemon holdings, with cache
     * tokens filled in from the live pipelines' batches.
     */
    engine::ContextSnapshot snapshotContext() const;

    /**
     * KV tokens each replica holds, physical (deduplicated): with prefix
     * sharing the bytes a migration must move are the store's live
     * blocks, not the per-request logical sum.  0 for broken replicas.
     */
    std::vector<double> replicaCacheTokens() const;

    /** Drop the holdings of an instance that left the cluster. */
    void forgetInstance(cluster::InstanceId id);

    /** Replicas of (P, M) that fit on @p num_instances. */
    int maxReplicas(int pp, int tp, int num_instances) const;

    /** Hook: a replica finished its batch (default: refill from queue). */
    virtual void onPipelineIdle(engine::InferencePipeline &pipeline);

    /**
     * Hook: hand queued work to idle replicas (used by the eviction
     * path's deferred redispatch).  Default: dispatchAll over the
     * deployment; systems with their own pipeline pools (rerouting
     * slots) override with their dispatcher.
     */
    virtual void dispatchPending() { dispatchAll(); }

    /** Hook: a replica drained after haltAfter(). */
    virtual void onPipelineHalted(engine::InferencePipeline &pipeline);

    /** Hook: request arrivals (default: submit + dispatch). */
    virtual void handleArrival(const wl::Request &request);

    /**
     * Hook: iteration-level admission (continuous batching).  Called by an
     * executing pipeline at every iteration boundary with its free slot
     * count; the default packs the batch back toward capacity from the
     * FIFO queue, bounded by the replica's remaining KV-token budget and
     * by an even share of the queue when other idle replicas could take
     * the work.  Never called once a halt is pending on the pipeline.
     */
    virtual std::vector<engine::ActiveRequest>
    admitAtBoundary(engine::InferencePipeline &pipeline, int free_slots);

    /** The KV token budget one replica of @p config gets at runtime. */
    long replicaKvBudget(const par::ParallelConfig &config) const;

    /**
     * Block granularity actually in force for replicas of @p config:
     * engineOptions().kvBlockTokens, except that a (degenerate, loudly
     * warned) budget smaller than one block degrades to token granularity
     * — the same fallback InferencePipeline applies — so a 1-token
     * no-headroom budget keeps starving admission instead of rounding up
     * to a whole block.  Every serving-side pop pairs this with
     * replicaKvBudgetBlocks.
     */
    int effectiveKvBlockTokens(const par::ParallelConfig &config) const;

    /**
     * The per-replica budget in whole KV blocks of
     * effectiveKvBlockTokens(config) tokens:
     * floor(replicaKvBudget / block).  This is the budget every
     * admission path charges against.
     */
    long replicaKvBudgetBlocks(const par::ParallelConfig &config) const;

    /**
     * Drop queue heads whose worst-case KV (in blocks of
     * @p block_tokens) exceeds @p budget_blocks (they can never be
     * served by any replica of the active configuration, so leaving them
     * would head-block the strict-FIFO queue forever).  With prefix
     * sharing, the peak is discounted by the best matched-and-live quote
     * any replica offers (bestPrefixDiscount): a head that fits *because*
     * of sharing is not rejected.  Returns how many were rejected.
     */
    long rejectUnservableHeads(long budget_blocks, int block_tokens);

    /**
     * Best prefix-sharing admission quote (matched-and-live shared
     * blocks) any live replica offers @p head.  0 without sharing.
     */
    long bestPrefixDiscount(const engine::ActiveRequest &head) const;

    /** Build a pipeline wired to this system's callbacks. */
    std::unique_ptr<engine::InferencePipeline>
    makePipeline(const par::ParallelConfig &config, int index);

    /**
     * Run evaluate() after the current instant's other events, so
     * same-time triggers (simultaneous joins or notices) coalesce into
     * one evaluation; scheduleEvalAt defers it to @p when.  No-op while
     * one is pending.
     */
    void scheduleEval() { scheduleEvalAt(sim_.now()); }
    void scheduleEvalAt(sim::SimTime when);

    /** Hook: re-decide the deployment (scheduleEval's target). */
    virtual void evaluate() {}

    /**
     * The 120 s arrival estimate, floored at the design rate: the
     * estimator is extremely noisy under CV = 6 burstiness, and scaling
     * down in a lull only to be overloaded by the next burst would
     * thrash.  sustainedRate is the 60 s estimate, floored alike.
     */
    double planningRate() const;
    double sustainedRate() const;

    /** The voluntary-change gate (core::worthReconfiguring) from the
     *  deployed configuration to @p decision planned at @p alpha. */
    bool worthReconfiguring(const core::ControllerDecision &decision,
                            double alpha) const;

    /**
     * Start the 30 s workload monitor (§3.2): each tick it hands a
     * proposeConfig decision that passes worthReconfiguring to
     * onWorkloadChange — at once under overload, else once two ticks in
     * a row suggest it (hysteresis against bursty estimates).  Ticks
     * without a deployment or while reconfiguring() are skipped.
     */
    void startWorkloadMonitor();

    /** Hook: what to run at rate @p alpha (default: Algorithm 1 over
     *  every usable instance). */
    virtual std::optional<core::ControllerDecision>
    proposeConfig(double alpha);

    /** Hook: the workload monitor chose to move to @p config. */
    virtual void onWorkloadChange(const par::ParallelConfig &,
                                  const std::string &)
    {
    }

    /** Hook: a reconfiguration is in flight. */
    virtual bool reconfiguring() const { return false; }

    sim::Executor &sim_;
    cluster::InstanceManager &instances_;
    RequestManager &requests_;
    model::ModelSpec spec_;
    cost::CostParams params_;
    cost::SeqSpec seq_;
    cost::LatencyModel latency_;
    cost::MemoryModel memory_;
    cost::ThroughputModel throughput_;
    core::ParallelizationController controller_;
    core::TransferDataPlane dataPlane_;

    /**
     * While work is queued, cut the stride of the one replica that can
     * admit it first: the least next boundary, in (time, EventOrder)
     * order, among the executing replicas with no halt pending and a
     * free slot.  Called when work is queued, after each boundary
     * admission that leaves some, and wherever that replica can leave
     * the set before its boundary: a halt, or removePipeline.  (A
     * cleared deployment leaves no replica to cut; installDeployment
     * re-checks for the carried ones.)
     */
    void cutStrideForQueuedWork();

  private:
    /** Prefix sharing could discount @p head: sharing is on, the head
     *  carries a prefix and is not restarted (restarted heads are
     *  charged their full worst case, the eviction-storm guard). */
    bool sharesPrefix(const engine::ActiveRequest &head) const
    {
        return engine_.prefixSharing && head.restarts == 0 &&
               head.request.prefixId >= 0;
    }

    /** One workload-monitor tick; reschedules itself. */
    void workloadTick();

    /**
     * Whether the KV budget's migration reserve assumes the
     * memory-optimised planner.  Read from the controller's search space,
     * so it matches the feasibility check that picked the deployment.
     */
    bool memOptReserve() const
    {
        return controller_.space().options().memOptPlanner;
    }

    double designArrivalRate_;
    bool evalScheduled_ = false;
    /** Workload-monitor hysteresis. */
    std::optional<par::ParallelConfig> lastSuggestion_;
    int suggestionStreak_ = 0;

    std::optional<Deployment> deployment_;
    /** onRequestArrival is dealing an arrival: its push cuts a stride
     *  only if the work is still queued afterwards. */
    bool dealingArrival_ = false;
    std::vector<ConfigChange> history_;
    long restartedRequeues_ = 0;
    EngineOptions engine_;
    std::function<void(const engine::InferencePipeline &)> kvObserver_;
    std::function<void(const engine::ActiveRequest &)> tokenObserver_;
    long peakKvHeldTokens_ = 0;
    long peakKvReservedTokens_ = 0;
    long peakKvHeldBlocks_ = 0;
    long peakKvPhysicalBlocks_ = 0;
    long prefixHitsTotal_ = 0;
    long prefixMatchedTokensTotal_ = 0;
    long cowCopiesTotal_ = 0;
    double savedPrefillSecondsTotal_ = 0.0;
    int peakConcurrentRequests_ = 0;
    long evictionsTotal_ = 0;
    double evictedWorkSeconds_ = 0.0;

    /** What each GPU's context daemon holds (survives clearDeployment). */
    std::unordered_map<par::GpuId, engine::GpuContext> holdings_;
};

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_BASE_SYSTEM_H
