#include "core/migration_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <tuple>

#include "costmodel/latency_model.h"

namespace spotserve {
namespace core {

namespace {

/** Aggregated transfers of one step keyed by (src, dst) instance pair. */
class TransferAccumulator
{
  public:
    void
    add(int src, int dst, double bytes)
    {
        if (bytes <= 0.0)
            return;
        bytes_[{src, dst}] += bytes;
    }

    std::vector<cost::Transfer>
    release()
    {
        std::vector<cost::Transfer> out;
        out.reserve(bytes_.size());
        for (const auto &[key, b] : bytes_)
            out.push_back(cost::Transfer{key.first, key.second, b});
        bytes_.clear();
        return out;
    }

  private:
    std::map<std::pair<int, int>, double> bytes_;
};

/**
 * Where a held model context sits: its stage's layers [first, last) and
 * its shard interval [lo, hi) of each of those layers.  Computed once per
 * snapshot entry per analysis.
 */
struct HeldSpan
{
    bool valid = false; ///< the daemon holds model context at all
    int first = 0;
    int last = 0;
    double lo = 0.0;
    double hi = 0.0;
};

HeldSpan
spanOf(const engine::GpuContext &held, const model::ModelSpec &spec)
{
    HeldSpan span;
    if (!held.hasModelContext)
        return span;
    const par::Topology held_topo(held.config, spec.numLayers());
    span.valid = true;
    std::tie(span.first, span.last) = held_topo.stageLayers(held.position.p);
    std::tie(span.lo, span.hi) = held_topo.shardInterval(held.position.m);
    return span;
}

/** Length of [lo, hi) ∩ [held_lo, held_hi), or 0. */
double
intervalOverlap(double lo, double hi, double held_lo, double held_hi)
{
    return std::max(0.0, std::min(hi, held_hi) - std::max(lo, held_lo));
}

/** Fraction of a layer's shard interval [lo,hi) covered by a holder. */
double
coveredFraction(const HeldSpan &held, int layer, double lo, double hi)
{
    if (!held.valid || layer < held.first || layer >= held.last)
        return 0.0;
    return intervalOverlap(lo, hi, held.lo, held.hi);
}

/**
 * How well a holder covering @p cover of the needed interval serves as a
 * source: a holder on the destination instance gets a 1e-6 bonus, which
 * only breaks ties between equal covers.
 */
double
sourceScore(double cover, bool local)
{
    return cover + (local ? 1e-6 : 0.0);
}

/**
 * Source lookup over one snapshot, built once per analysis.  For each
 * layer it keeps the layer's holders grouped by the shard interval they
 * hold, and the holders that also carry cache, by old replica.
 *
 * The sources it returns are the ones a scan over every snapshot entry in
 * order picks: the largest cover of the needed interval plus a 1e-6 bonus
 * for sitting on the destination instance, the first in snapshot order
 * among equal scores, never the destination GPU itself.  All holders of
 * one interval group cover the same fraction, so only two of them can win
 * that scan: the group's first holder on the destination instance and its
 * first holder elsewhere.
 */
class HolderIndex
{
  public:
    HolderIndex(const engine::ContextSnapshot &snapshot,
                const std::vector<HeldSpan> &spans, int layers)
        : snapshot_(snapshot), spans_(spans), groups_(layers),
          cacheHolders_(layers)
    {
        for (std::size_t k = 0; k < spans.size(); ++k) {
            const HeldSpan &span = spans[k];
            if (!span.valid)
                continue;
            const engine::GpuContext &g = snapshot.gpus[k];
            for (int l = span.first; l < span.last; ++l) {
                auto &groups = groups_[static_cast<std::size_t>(l)];
                auto it = std::find_if(
                    groups.begin(), groups.end(), [&span](const Group &gr) {
                        return gr.lo == span.lo && gr.hi == span.hi;
                    });
                if (it == groups.end())
                    it = groups.insert(groups.end(),
                                       Group{span.lo, span.hi, {}, {}});
                it->entries.push_back(static_cast<int>(k));
                it->byInstance.emplace_back(g.instance, static_cast<int>(k));
                if (g.cacheTokens > 0.0 && g.position.d >= 0) {
                    auto &by_replica =
                        cacheHolders_[static_cast<std::size_t>(l)];
                    const auto d = static_cast<std::size_t>(g.position.d);
                    if (by_replica.size() <= d)
                        by_replica.resize(d + 1);
                    by_replica[d].push_back(static_cast<int>(k));
                }
            }
        }
        for (auto &groups : groups_) {
            for (Group &gr : groups)
                std::sort(gr.byInstance.begin(), gr.byInstance.end());
        }
    }

    /** Model-context source of [lo, hi) of @p layer for @p gpu. */
    const engine::GpuContext *
    modelSource(int layer, double lo, double hi, par::GpuId gpu,
                int dst_inst) const
    {
        int best = -1;
        double best_score = 0.0;
        auto consider = [&](int k, double score) {
            if (score > best_score ||
                (score == best_score && best >= 0 && k < best)) {
                best = k;
                best_score = score;
            }
        };
        for (const Group &gr : groups_[static_cast<std::size_t>(layer)]) {
            const double cover = intervalOverlap(lo, hi, gr.lo, gr.hi);
            if (cover <= 0.0)
                continue;
            for (int k : gr.entries) {
                const engine::GpuContext &g = entry(k);
                if (g.gpu != gpu && g.instance != dst_inst) {
                    consider(k, sourceScore(cover, false));
                    break;
                }
            }
            for (auto it = std::lower_bound(
                     gr.byInstance.begin(), gr.byInstance.end(),
                     std::make_pair(dst_inst, -1));
                 it != gr.byInstance.end() && it->first == dst_inst; ++it) {
                if (entry(it->second).gpu != gpu) {
                    consider(it->second, sourceScore(cover, true));
                    break;
                }
            }
        }
        return best < 0 ? nullptr : &entry(best);
    }

    /** Cache source of [lo, hi) of @p layer among @p replica's holders. */
    const engine::GpuContext *
    cacheSource(int layer, double lo, double hi, par::GpuId gpu,
                int dst_inst, int replica) const
    {
        const auto &by_replica =
            cacheHolders_[static_cast<std::size_t>(layer)];
        if (replica < 0 ||
            static_cast<std::size_t>(replica) >= by_replica.size())
            return nullptr;
        const engine::GpuContext *best = nullptr;
        double best_score = 0.0;
        for (int k : by_replica[static_cast<std::size_t>(replica)]) {
            const engine::GpuContext &g = entry(k);
            if (g.gpu == gpu)
                continue;
            const HeldSpan &span = spans_[static_cast<std::size_t>(k)];
            const double cover = intervalOverlap(lo, hi, span.lo, span.hi);
            if (cover <= 0.0)
                continue;
            const double score = sourceScore(cover, g.instance == dst_inst);
            if (score > best_score) {
                best_score = score;
                best = &g;
            }
        }
        return best;
    }

  private:
    /** Holders of one layer that hold the same shard interval of it. */
    struct Group
    {
        double lo = 0.0;
        double hi = 0.0;
        /** Snapshot indices, ascending. */
        std::vector<int> entries;
        /** (instance, snapshot index), ascending. */
        std::vector<std::pair<int, int>> byInstance;
    };

    const engine::GpuContext &
    entry(int k) const
    {
        return snapshot_.gpus[static_cast<std::size_t>(k)];
    }

    const engine::ContextSnapshot &snapshot_;
    const std::vector<HeldSpan> &spans_;
    std::vector<std::vector<Group>> groups_;
    /** cacheHolders_[layer][replica]: snapshot indices, ascending. */
    std::vector<std::vector<std::vector<int>>> cacheHolders_;
};

} // namespace

/**
 * Everything the expensive snapshot pass produces, shared by both cache
 * variants: per-layer transfer lists and buffer deltas, the cache step's
 * transfers, byte accounting, per-(d,p) dependency sets and the
 * Algorithm-2 layer order.
 */
struct MigrationPlanner::Analysis
{
    int layers = 0;
    std::vector<std::vector<cost::Transfer>> layerTransfers;
    /** Cold (disk/S3) bytes per layer, split by loading instance. */
    std::vector<std::map<int, double>> layerCold;
    std::vector<cost::Transfer> cacheTransfers;

    double reusedBytes = 0.0;
    double movedModelBytes = 0.0;
    double movedCacheBytes = 0.0;
    double coldLoadBytes = 0.0;
    double peakBufferBytes = 0.0;

    /** Which layers each (d, p) still needs; drives per-replica resume. */
    std::vector<std::vector<std::vector<int>>> missingByDp;
    /** Whether replica d takes part in the cache step. */
    std::vector<bool> cacheInvolves;

    /** Algorithm 2's layer order (cache-independent: the buffer model
     *  only tracks model-context bytes). */
    std::vector<int> order;
};

MigrationPlanner::MigrationPlanner(const model::ModelSpec &spec,
                                   const cost::CostParams &params)
    : spec_(spec), params_(params), costModel_(params), linkScheduler_(params)
{
}

MigrationPlanner::Analysis
MigrationPlanner::analyze(const engine::ContextSnapshot &snapshot,
                          const MappingResult &mapping,
                          const par::ParallelConfig &target,
                          const std::vector<double> &old_pipeline_tokens,
                          const PlannerOptions &options) const
{
    Analysis out;
    const par::Topology &topo = mapping.mesh.topology();
    const int layers = spec_.numLayers();
    const int gpi = params_.gpusPerInstance;
    out.layers = layers;

    // ------------------------------------------------------------------
    // 1. Compute per-layer model-context transfers and the cache step.
    // ------------------------------------------------------------------
    std::vector<TransferAccumulator> layer_acc(layers);
    out.layerCold.assign(layers, {});
    TransferAccumulator cache_acc;
    double cache_cold = 0.0;

    // Algorithm 2's buffer model: migrating layer l raises each receiving
    // instance's footprint by the bytes received and lowers it by the
    // stale copies of layer l freed on that instance (old slices not
    // reused by the new positions).  The layer order controls the running
    // peak: front-to-back can force an instance to absorb its whole new
    // shard before anything stale frees, while the min-max order
    // interleaves receives with frees.
    std::vector<std::map<int, double>> layer_in(layers);
    std::vector<std::map<int, double>> layer_freed(layers);

    out.missingByDp.assign(target.dp,
                           std::vector<std::vector<int>>(target.pp));
    out.cacheInvolves.assign(target.dp, false);

    // Every snapshot entry's span, the GPU-id index and the holder index
    // the source picks run on.
    const engine::ContextIndex contexts(snapshot);
    std::vector<HeldSpan> spans;
    spans.reserve(snapshot.gpus.size());
    for (const auto &g : snapshot.gpus)
        spans.push_back(spanOf(g, spec_));
    const HolderIndex holders(snapshot, spans, layers);

    for (int i = 0; i < topo.size(); ++i) {
        const par::Position pos = topo.position(i);
        const par::GpuId gpu = mapping.mesh.gpuAt(pos);
        const int dst_inst = cluster::Instance::instanceOfGpu(gpu, gpi);
        const auto *own = contexts.find(gpu);
        const HeldSpan own_span =
            own ? spans[static_cast<std::size_t>(own - snapshot.gpus.data())]
                : HeldSpan{};
        const auto [lo, hi] = topo.shardInterval(pos.m);
        const auto [first, last] = topo.stageLayers(pos.p);

        const int inherit = mapping.inheritedOldPipeline[pos.d];
        const double tokens =
            (inherit >= 0 &&
             inherit < static_cast<int>(old_pipeline_tokens.size()))
                ? old_pipeline_tokens[inherit]
                : 0.0;

        for (int l = first; l < last; ++l) {
            const double needed_frac = hi - lo;
            const double own_frac = coveredFraction(own_span, l, lo, hi);
            double missing_frac = needed_frac - own_frac;
            out.reusedBytes += own_frac * spec_.layerWeightBytes();
            if (missing_frac <= 1e-12)
                missing_frac = 0.0;

            // Cache for this layer slice (only if this replica inherits
            // in-flight requests and we migrate cache at all).
            const double cache_layer_bytes =
                (options.migrateCache && tokens > 0.0)
                    ? tokens * spec_.kvBytesPerTokenPerLayer()
                    : 0.0;
            double cache_missing_frac = 0.0;
            if (cache_layer_bytes > 0.0) {
                const bool own_cache =
                    own && own->hasModelContext && own->cacheTokens > 0.0 &&
                    own->position.d == inherit;
                const double own_cache_frac =
                    own_cache ? coveredFraction(own_span, l, lo, hi) : 0.0;
                cache_missing_frac =
                    std::max(0.0, needed_frac - own_cache_frac);
            }

            if (missing_frac <= 0.0 && cache_missing_frac <= 0.0)
                continue;

            // Pick a source: a daemon holding this layer with the largest
            // interval overlap, preferring the destination instance.
            if (missing_frac > 0.0) {
                const double bytes = missing_frac * spec_.layerWeightBytes();
                out.movedModelBytes += bytes;
                if (const auto *best =
                        holders.modelSource(l, lo, hi, gpu, dst_inst)) {
                    layer_acc[l].add(best->instance, dst_inst, bytes);
                } else {
                    // No live replica: cold load from disk/S3 (§4.2).
                    out.layerCold[l][dst_inst] += bytes;
                    out.coldLoadBytes += bytes;
                }
                layer_in[l][dst_inst] += bytes;
                out.missingByDp[pos.d][pos.p].push_back(l);
            }
            if (cache_missing_frac > 0.0) {
                const double bytes = cache_missing_frac * cache_layer_bytes;
                out.movedCacheBytes += bytes;
                out.cacheInvolves[pos.d] = true;
                if (const auto *best_cache = holders.cacheSource(
                        l, lo, hi, gpu, dst_inst, inherit))
                    cache_acc.add(best_cache->instance, dst_inst, bytes);
                else
                    cache_cold += bytes; // unrecoverable; treated as loss
            }
        }
    }
    (void)cache_cold;

    // ------------------------------------------------------------------
    // 2. Per-layer memory deltas: stale copies freed on each instance.
    // ------------------------------------------------------------------
    for (std::size_t k = 0; k < snapshot.gpus.size(); ++k) {
        const engine::GpuContext &g = snapshot.gpus[k];
        if (!spans[k].valid)
            continue;
        const int first = spans[k].first;
        const int last = spans[k].last;
        const double old_slice =
            spec_.layerWeightBytes() / g.config.tp;
        // The part of each old layer slice the GPU keeps in place.
        const bool mapped = mapping.mesh.contains(g.gpu);
        par::Position new_pos;
        if (mapped)
            new_pos = mapping.mesh.positionOf(g.gpu);
        for (int l = first; l < last; ++l) {
            double kept = 0.0;
            if (mapped) {
                const auto [nf, nl] = topo.stageLayers(new_pos.p);
                if (l >= nf && l < nl) {
                    kept = par::shardOverlapFraction(
                               g.position.m, g.config.tp, new_pos.m,
                               topo.config().tp) *
                           spec_.layerWeightBytes();
                }
            }
            const double freed = std::max(0.0, old_slice - kept);
            if (freed > 0.0)
                layer_freed[l][g.instance] += freed;
        }
    }

    // ------------------------------------------------------------------
    // 3. Order the layers (Algorithm 2).
    // ------------------------------------------------------------------
    std::map<int, double> net; // cumulative footprint delta per instance
    double peak = 0.0;

    auto apply_layer = [&](int l) {
        // Transient: the incoming tensors land before the stale copies
        // swap out (per-layer double buffering).
        for (const auto &[inst, bytes] : layer_in[l]) {
            net[inst] += bytes;
            peak = std::max(peak, net[inst]);
        }
        for (const auto &[inst, bytes] : layer_freed[l])
            net[inst] -= bytes;
    };

    auto max_after = [&](int l) {
        double mx = 0.0;
        for (const auto &[inst, delta] : net)
            mx = std::max(mx, delta);
        for (const auto &[inst, bytes] : layer_in[l]) {
            auto it = net.find(inst);
            const double base = it == net.end() ? 0.0 : it->second;
            mx = std::max(mx, base + bytes);
        }
        return mx;
    };

    out.order.reserve(layers);
    if (options.memoryOpt) {
        // First pass: front-to-back layers whose migration stays under
        // U_max; overflowing layers are deferred (Alg. 2 lines 12-17).
        std::vector<int> deferred;
        for (int l = 0; l < layers; ++l) {
            if (max_after(l) <= params_.migrationBufferBytes) {
                out.order.push_back(l);
                apply_layer(l);
            } else {
                deferred.push_back(l);
            }
        }
        // Second pass: min-max selection (Alg. 2 lines 18-21).
        while (!deferred.empty()) {
            int best_l = deferred.front();
            double best_peak = std::numeric_limits<double>::infinity();
            for (int l : deferred) {
                const double pk = max_after(l);
                if (pk < best_peak) {
                    best_peak = pk;
                    best_l = l;
                }
            }
            out.order.push_back(best_l);
            apply_layer(best_l);
            deferred.erase(
                std::find(deferred.begin(), deferred.end(), best_l));
        }
    } else {
        for (int l = 0; l < layers; ++l) {
            out.order.push_back(l);
            apply_layer(l);
        }
    }
    out.peakBufferBytes = peak;

    out.layerTransfers.resize(layers);
    for (int l = 0; l < layers; ++l)
        out.layerTransfers[l] = layer_acc[l].release();
    out.cacheTransfers = cache_acc.release();
    return out;
}

MigrationPlan
MigrationPlanner::assemble(const Analysis &analysis,
                           const par::ParallelConfig &target,
                           const PlannerOptions &options,
                           bool include_cache) const
{
    MigrationPlan plan;
    const int layers = analysis.layers;
    plan.reusedBytes = analysis.reusedBytes;
    plan.movedModelBytes = analysis.movedModelBytes;
    plan.coldLoadBytes = analysis.coldLoadBytes;
    plan.peakBufferBytes = analysis.peakBufferBytes;

    // ------------------------------------------------------------------
    // 4. Assemble the step list: cache first, then the ordered layers.
    // ------------------------------------------------------------------
    plan.cacheMigrated = include_cache && analysis.movedCacheBytes > 0.0;
    plan.movedCacheBytes = include_cache ? analysis.movedCacheBytes : 0.0;
    if (plan.cacheMigrated) {
        MigrationStep step;
        step.layer = -1;
        step.transfers = analysis.cacheTransfers;
        step.coldBytes = 0.0; // lost cache is dropped, not reloaded
        plan.steps.push_back(std::move(step));
    }
    std::vector<int> step_of_layer(layers, -1);
    for (int l : analysis.order) {
        MigrationStep step;
        step.layer = l;
        step.transfers = analysis.layerTransfers[l];
        for (const auto &[inst, bytes] : analysis.layerCold[l]) {
            step.coldBytes = std::max(step.coldBytes, bytes);
            step.coldLoads.emplace_back(inst, bytes);
        }
        step_of_layer[l] = static_cast<int>(plan.steps.size());
        plan.steps.push_back(std::move(step));
    }

    // Dependency sets: which steps each (replica, stage) waits for.  The
    // timing below — and any later re-timing against live link state —
    // derives stageReady and the per-replica resumes from exactly these.
    plan.dpStepDeps.assign(target.dp,
                           std::vector<std::vector<int>>(target.pp));
    for (int d = 0; d < target.dp; ++d) {
        for (int p = 0; p < target.pp; ++p) {
            auto &deps = plan.dpStepDeps[d][p];
            if (plan.cacheMigrated && analysis.cacheInvolves[d])
                deps.push_back(0); // cache precedes everything
            for (int l : analysis.missingByDp[d][p]) {
                if (step_of_layer[l] >= 0)
                    deps.push_back(step_of_layer[l]);
            }
        }
    }

    // ------------------------------------------------------------------
    // 5. Timing.  The serialized cursor — setup charged exactly once,
    //    then every step's closed-form port-bottleneck wire time back to
    //    back, with per-instance disk/S3 cold loads overlapped — is
    //    always computed: it is the cheap screening estimate the
    //    arranger's migrate-vs-recompute flip and the §4.2 deadline
    //    check can consume without building a schedule, and the baseline
    //    the bench gate compares against.  With linkSchedule on, the
    //    plan's actual timeline comes from the link-level schedule
    //    instead: steps interleave across disjoint instance pairs, and
    //    transfers sharing a port serialize honestly.  The interleaved
    //    schedule is never adopted when it cannot beat the serialized
    //    cursor (the scheduler is a heuristic; the planner takes the
    //    better of the two timelines).
    // ------------------------------------------------------------------
    const double setup = params_.migrationSetupTime;
    const std::size_t n = plan.steps.size();
    std::vector<double> ser_start(n, setup);
    std::vector<double> ser_finish(n, setup);
    {
        double wire_cursor = setup;
        std::map<int, double> disk_cursor; // per-instance disk completion
        for (std::size_t i = 0; i < n; ++i) {
            const MigrationStep &step = plan.steps[i];
            ser_start[i] = wire_cursor;
            wire_cursor += costModel_.wireTime(step.transfers);
            double step_end = wire_cursor;
            for (const auto &[inst, bytes] : step.coldLoads) {
                double &cursor = disk_cursor[inst];
                cursor = std::max(cursor, setup) +
                         bytes / params_.diskBandwidth;
                step_end = std::max(step_end, cursor);
            }
            ser_finish[i] = step_end;
        }
        plan.serializedDuration = setup;
        for (double f : ser_finish)
            plan.serializedDuration = std::max(plan.serializedDuration, f);
    }

    plan.linkScheduled = false;
    if (options.linkSchedule) {
        cost::LinkScheduleOptions lopts;
        lopts.interleave = true;
        lopts.startTime = 0.0;
        lopts.setupTime = setup;
        const auto sched = linkScheduler_.build(transferSteps(plan), lopts);
        if (sched.makespan <= plan.serializedDuration + 1e-9) {
            plan.linkScheduled = true;
            retime(plan, target, options, sched.stepStart, sched.stepFinish);
        }
    }
    if (!plan.linkScheduled)
        retime(plan, target, options, ser_start, ser_finish);

    return plan;
}

std::vector<cost::TransferStep>
MigrationPlanner::transferSteps(const MigrationPlan &plan)
{
    std::vector<cost::TransferStep> steps;
    steps.reserve(plan.steps.size());
    for (const MigrationStep &s : plan.steps) {
        cost::TransferStep t;
        t.layer = s.layer;
        t.transfers = s.transfers;
        t.coldLoads = s.coldLoads;
        steps.push_back(std::move(t));
    }
    return steps;
}

void
MigrationPlanner::retime(MigrationPlan &plan,
                         const par::ParallelConfig &target,
                         const PlannerOptions &options,
                         const std::vector<double> &step_start,
                         const std::vector<double> &step_finish) const
{
    const double setup = params_.migrationSetupTime;
    const par::Topology topo(target, spec_.numLayers());
    plan.stageReady.assign(target.pp, setup);

    double last_end = setup;
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
        MigrationStep &step = plan.steps[i];
        step.startOffset = i < step_start.size() ? step_start[i] : setup;
        const double step_end =
            i < step_finish.size() ? step_finish[i] : setup;
        // Incremental critical-path contribution: how much this step
        // extends the latest finish seen so far (zero when it completed
        // under the shadow of an earlier step).
        step.duration = std::max(step_end - last_end, 0.0);
        step.finishOffset = step_end;
        last_end = std::max(last_end, step_end);
        if (!step.isCache()) {
            const int p = topo.stageOfLayer(step.layer);
            plan.stageReady[p] = std::max(plan.stageReady[p], step_end);
        } else {
            // Cache precedes everything; all stages depend on it.
            for (auto &r : plan.stageReady)
                r = std::max(r, step_end);
        }
    }
    plan.totalDuration = last_end;

    // ------------------------------------------------------------------
    // 6. Progressive resume, per replica: stage p of replica d must be
    //    ready by the time the first batch's wavefront reaches it, one
    //    stage-execution share later per stage (§3.4 "ideally ... the
    //    cost of a single stage's context transferring").  Replicas whose
    //    context was reused in place resume right after setup.
    // ------------------------------------------------------------------
    plan.resumeOffset = 0.0;
    plan.pipelineResume.assign(target.dp, setup);
    const cost::LatencyModel lat(spec_, params_);
    const double stage_share =
        lat.decodeIterTime(target, /*ctx_len=*/512) / target.pp;
    for (int d = 0; d < target.dp; ++d) {
        std::vector<double> ready(target.pp, setup);
        for (int p = 0; p < target.pp; ++p) {
            if (d < static_cast<int>(plan.dpStepDeps.size()) &&
                p < static_cast<int>(plan.dpStepDeps[d].size())) {
                for (int s : plan.dpStepDeps[d][p]) {
                    if (s >= 0 &&
                        s < static_cast<int>(plan.steps.size()))
                        ready[p] = std::max(
                            ready[p], plan.steps[s].finishOffset);
                }
            }
        }
        double resume;
        if (options.progressive) {
            resume = ready[0];
            for (int p = 1; p < target.pp; ++p)
                resume = std::max(resume, ready[p] - p * stage_share);
            resume = std::max(resume, ready[0]);
        } else {
            resume = plan.totalDuration;
        }
        plan.pipelineResume[d] = std::min(resume, plan.totalDuration);
        plan.resumeOffset =
            std::max(plan.resumeOffset, plan.pipelineResume[d]);
    }
}

MigrationPlan
MigrationPlanner::plan(const engine::ContextSnapshot &snapshot,
                       const MappingResult &mapping,
                       const par::ParallelConfig &target,
                       const std::vector<double> &old_pipeline_tokens,
                       PlannerOptions options) const
{
    const Analysis analysis =
        analyze(snapshot, mapping, target, old_pipeline_tokens, options);
    return assemble(analysis, target, options, options.migrateCache);
}

MigrationPlanPair
MigrationPlanner::planBoth(const engine::ContextSnapshot &snapshot,
                           const MappingResult &mapping,
                           const par::ParallelConfig &target,
                           const std::vector<double> &old_pipeline_tokens,
                           PlannerOptions options) const
{
    const Analysis analysis =
        analyze(snapshot, mapping, target, old_pipeline_tokens, options);
    MigrationPlanPair pair;
    pair.withCache =
        assemble(analysis, target, options, options.migrateCache);
    pair.withoutCache = assemble(analysis, target, options, false);
    return pair;
}

} // namespace core
} // namespace spotserve
