/**
 * @file
 * Context-daemon state snapshots and reuse arithmetic.
 *
 * Every GPU runs a context daemon owning its model context (the weight
 * shard of its pipeline-stage-shard position) and cache context (the KV
 * cache of its pipeline's in-flight requests) (§3.1).  The device mapper
 * consumes a snapshot of all daemons to compute how many bytes mapping
 * GPU u to target position v would reuse (§3.3).
 */

#ifndef SPOTSERVE_ENGINE_CONTEXT_STATE_H
#define SPOTSERVE_ENGINE_CONTEXT_STATE_H

#include <optional>
#include <vector>

#include "cluster/instance.h"
#include "model/model_spec.h"
#include "parallel/parallel_config.h"

namespace spotserve {
namespace engine {

/** What one GPU's context daemon currently holds. */
struct GpuContext
{
    par::GpuId gpu = par::kInvalidGpu;
    cluster::InstanceId instance = cluster::kInvalidInstance;

    /** Valid model context held from a previous deployment? */
    bool hasModelContext = false;

    /** Configuration and position the held context belongs to. */
    par::ParallelConfig config;
    par::Position position;

    /**
     * Cache context: total cached tokens (input + committed output summed
     * over the pipeline's batch).  The daemon holds this pipeline's KV
     * slice for its own stage/shard only.
     */
    double cacheTokens = 0.0;
};

/** Snapshot of every usable GPU's daemon at reconfiguration time. */
struct ContextSnapshot
{
    std::vector<GpuContext> gpus;

    /**
     * Find the first entry for @p gpu (nullptr when absent).  This is a
     * linear scan over every GPU of the snapshot: never call it inside a
     * per-position or per-GPU loop — build a ContextIndex once per
     * planning call instead.
     */
    const GpuContext *find(par::GpuId gpu) const;
};

/**
 * O(1) GPU-id lookup over a snapshot, built once per planning call.  It
 * resolves a GPU to the same entry ContextSnapshot::find would (the first
 * one in snapshot order).  The snapshot must outlive the index and must
 * not change while it is used.
 */
class ContextIndex
{
  public:
    explicit ContextIndex(const ContextSnapshot &snapshot);

    /** The first entry for @p gpu, or nullptr when absent. */
    const GpuContext *find(par::GpuId gpu) const;

  private:
    const ContextSnapshot &snapshot_;
    /** Snapshot position of each GPU id's first entry, or -1. */
    std::vector<int> entryOf_;
};

/**
 * Model-context bytes reused if the daemon state @p held serves target
 * position @p target_pos under @p target topology: the intersection of
 * layer ranges times the shard-interval overlap per layer.
 */
double modelOverlapBytes(const model::ModelSpec &spec, const GpuContext &held,
                         const par::Topology &target,
                         const par::Position &target_pos);

/**
 * Cache-context bytes reused under the same mapping, provided the target
 * pipeline inherits the held pipeline's requests (the caller checks the
 * inheritance pairing before adding this term).
 */
double cacheOverlapBytes(const model::ModelSpec &spec, const GpuContext &held,
                         const par::Topology &target,
                         const par::Position &target_pos);

/** Model-context bytes position @p pos of @p target must hold in total. */
double neededModelBytes(const model::ModelSpec &spec,
                        const par::Topology &target, const par::Position &pos);

/**
 * Cache-context bytes position @p pos must hold to serve @p cache_tokens
 * inherited tokens.
 */
double neededCacheBytes(const model::ModelSpec &spec,
                        const par::Topology &target, const par::Position &pos,
                        double cache_tokens);

} // namespace engine
} // namespace spotserve

#endif // SPOTSERVE_ENGINE_CONTEXT_STATE_H
