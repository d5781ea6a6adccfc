/**
 * @file
 * Device mapper: bipartite-graph matching of GPUs to mesh positions
 * (§3.3).
 *
 * Mapping is formalized as maximum-weight bipartite matching between
 * available GPU devices and the pipeline-stage-shard positions of the
 * target configuration; edge weights are the bytes of reusable model and
 * cache context.  Multi-GPU instances use the two-step hierarchical
 * matching from the paper's supplemental material: instances are first
 * matched to instance-sized "slots" of consecutive positions (inter-
 * instance Kuhn-Munkres, each edge scored by the optimal intra-instance
 * sub-matching), then GPUs are bound inside each matched pair.
 */

#ifndef SPOTSERVE_CORE_DEVICE_MAPPER_H
#define SPOTSERVE_CORE_DEVICE_MAPPER_H

#include <vector>

#include "cluster/instance.h"
#include "costmodel/cost_params.h"
#include "engine/context_state.h"
#include "model/model_spec.h"
#include "parallel/device_mesh.h"

namespace spotserve {
namespace core {

/** Output of the device mapper. */
struct MappingResult
{
    par::DeviceMesh mesh;

    /**
     * inheritedOldPipeline[d] = old replica whose in-flight requests the
     * new replica d inherits, or -1.  Old replicas with the most committed
     * progress are kept when D shrinks (§3.3).
     */
    std::vector<int> inheritedOldPipeline;

    /** Reuse achieved by the matching (bytes). @{ */
    double reusedModelBytes = 0.0;
    double reusedCacheBytes = 0.0;
    /** @} */

    /** Total model-context bytes the target deployment needs. */
    double neededModelBytes = 0.0;
};

/** Knobs for the mapper. */
struct DeviceMapperOptions
{
    /**
     * Use Kuhn-Munkres matching.  When false (Figure 9 ablation), GPUs are
     * assigned to positions in plain id order — "a plain approach [that]
     * only enables model context maintenance".
     */
    bool useKuhnMunkres = true;

    /** Add cache-context weights to the matching objective. */
    bool preferCacheReuse = true;

    /**
     * Skip the two-step Hungarian solve when the surviving snapshot
     * already holds the exact target placement: every target position is
     * held, with model context, by exactly one surviving GPU of the same
     * (D, P, M) shape.  Identity keeps every byte (and every live batch)
     * in place, which is a maximum of the matching objective, so the
     * O(n^3) solve cannot do better; with in-flight cache on every
     * replica it is the unique optimum and the fast path is byte-
     * identical to the full solve (regression-tested).  Inheritance is
     * pinned to the identity permutation so each replica keeps its own
     * batch where its cache already lives.  Disable to force the full
     * solve (used by the regression test and worst-case benches).
     */
    bool identityFastPath = true;
};

/**
 * A replica placement the caller requires verbatim: new replica
 * @p newReplica is bound to @p gpus (in (p, m) flat order — exactly what
 * DeviceMesh::pipelineGpus returns), inheriting old replica
 * @p oldReplica's in-flight batch.  The serving system pins live replicas
 * whose members all survive a reconfiguration so they can serve straight
 * through it (partial drain): without pins, model-context weights tie
 * across same-shape replicas and the Hungarian solve may mix stages from
 * different old replicas into one new replica, silently breaking every
 * live pipeline for zero reuse gain.
 */
struct ReplicaPin
{
    int newReplica = -1;
    int oldReplica = -1;
    std::vector<par::GpuId> gpus;
};

/** The device mapper. */
class DeviceMapper
{
  public:
    DeviceMapper(const model::ModelSpec &spec, const cost::CostParams &params,
                 DeviceMapperOptions options = {});

    /**
     * Map @p target positions onto the GPUs of @p instance_list
     * (survivors only), reusing context recorded in @p snapshot.
     *
     * @param old_pipeline_tokens cached tokens per old replica id (used to
     *        decide inheritance when the replica count changes); pass an
     *        empty vector when nothing is in flight.
     * @param pins replicas whose placement is fixed by the caller (see
     *        ReplicaPin).  Pinned GPUs/instances are excluded from the
     *        matching; the remaining positions are solved normally.
     *        Each pin's replica must tile whole instances
     *        ((P*M) %% gpusPerInstance == 0) and its GPUs must belong to
     *        @p instance_list.
     * @pre The target fits: target.totalGpus() <= GPUs in instance_list.
     */
    MappingResult
    map(const engine::ContextSnapshot &snapshot,
        const par::ParallelConfig &target,
        const std::vector<const cluster::Instance *> &instance_list,
        const std::vector<double> &old_pipeline_tokens,
        const std::vector<ReplicaPin> &pins = {}) const;

    const DeviceMapperOptions &options() const { return options_; }

    /**
     * The single source of batch-inheritance policy (§3.3): rank old
     * replicas by committed progress, descending, and deal them to the
     * new replicas — keeping the most progressed batches when the
     * replica count shrinks.  @p pinned fixes (new replica, old replica)
     * pairs up front: a pinned new replica keeps exactly that old
     * replica's batch in place (or nothing, when it has no progress) and
     * takes part in no further ranking.  Used by the default solve, the
     * identity fast path, the ReplicaPin path, and the serving system's
     * kept-replica override — one policy, one implementation.
     */
    std::vector<int>
    planInheritance(int new_dp,
                    const std::vector<double> &old_pipeline_tokens,
                    const std::vector<std::pair<int, int>> &pinned = {})
        const;

  private:

    /**
     * Try the identity mapping (see DeviceMapperOptions::identityFastPath);
     * fills @p result and returns true when the snapshot covers every
     * target position in place.
     */
    bool tryIdentityMapping(
        const engine::ContextSnapshot &snapshot,
        const par::ParallelConfig &target,
        const std::vector<const cluster::Instance *> &instance_list,
        const std::vector<double> &old_pipeline_tokens,
        MappingResult &result) const;

    model::ModelSpec spec_;
    cost::CostParams params_;
    DeviceMapperOptions options_;
};

} // namespace core
} // namespace spotserve

#endif // SPOTSERVE_CORE_DEVICE_MAPPER_H
