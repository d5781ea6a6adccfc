#include "core/device_mapper.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "matching/hungarian.h"

namespace spotserve {
namespace core {

namespace {

/** Positions grouped into instance-sized slots of consecutive indices. */
struct Slot
{
    std::vector<par::Position> positions;
};

std::vector<Slot>
buildSlots(const par::Topology &topo, int gpus_per_instance)
{
    std::vector<Slot> slots;
    Slot current;
    for (int i = 0; i < topo.size(); ++i) {
        current.positions.push_back(topo.position(i));
        if (static_cast<int>(current.positions.size()) == gpus_per_instance) {
            slots.push_back(std::move(current));
            current = Slot{};
        }
    }
    if (!current.positions.empty())
        slots.push_back(std::move(current));
    return slots;
}

/** Exact bit pattern of an intra-instance weight matrix, dims first. */
using MatrixKey = std::vector<std::uint64_t>;

} // namespace

DeviceMapper::DeviceMapper(const model::ModelSpec &spec,
                           const cost::CostParams &params,
                           DeviceMapperOptions options)
    : spec_(spec), params_(params), options_(options)
{
}

std::vector<int>
DeviceMapper::planInheritance(
    int new_dp, const std::vector<double> &old_pipeline_tokens,
    const std::vector<std::pair<int, int>> &pinned) const
{
    std::vector<int> inherited(new_dp, -1);
    std::vector<bool> pinned_new(new_dp, false);
    std::vector<bool> old_taken(old_pipeline_tokens.size(), false);
    for (const auto &[d, od] : pinned) {
        if (d < 0 || d >= new_dp)
            continue;
        pinned_new[d] = true;
        if (od >= 0 &&
            od < static_cast<int>(old_pipeline_tokens.size())) {
            old_taken[od] = true;
            if (old_pipeline_tokens[od] > 0.0)
                inherited[d] = od;
        }
    }
    // Rank the remaining old replicas by committed progress, descending;
    // keep the most progressed ones when the replica count shrinks
    // (§3.3: "keeps the batches of requests with more decoding
    // progresses").
    std::vector<int> order;
    order.reserve(old_pipeline_tokens.size());
    for (std::size_t od = 0; od < old_pipeline_tokens.size(); ++od) {
        if (!old_taken[od] && old_pipeline_tokens[od] > 0.0)
            order.push_back(static_cast<int>(od));
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return old_pipeline_tokens[a] > old_pipeline_tokens[b];
    });
    std::size_t k = 0;
    for (int d = 0; d < new_dp && k < order.size(); ++d) {
        if (!pinned_new[d])
            inherited[d] = order[k++];
    }
    return inherited;
}

bool
DeviceMapper::tryIdentityMapping(
    const engine::ContextSnapshot &snapshot,
    const par::ParallelConfig &target,
    const std::vector<const cluster::Instance *> &instance_list,
    const std::vector<double> &old_pipeline_tokens,
    MappingResult &result) const
{
    const par::Topology &topo = result.mesh.topology();
    std::unordered_set<cluster::InstanceId> usable;
    for (const auto *inst : instance_list)
        usable.insert(inst->id());

    // Every target position must be held in place by exactly one
    // surviving GPU of the same (D, P, M) shape.
    std::vector<const engine::GpuContext *> holder(topo.size(), nullptr);
    for (const auto &g : snapshot.gpus) {
        if (!g.hasModelContext || !g.config.sameParallelism(target))
            continue;
        if (usable.find(g.instance) == usable.end())
            continue;
        const int idx = topo.flatIndex(g.position);
        if (holder[idx] != nullptr)
            return false; // stale duplicate holdings: run the full solve
        holder[idx] = &g;
    }
    for (int i = 0; i < topo.size(); ++i) {
        if (holder[i] == nullptr)
            return false;
    }

    // Identity placement.  Inheritance is pinned to the identity
    // permutation: every replica keeps its own batch exactly where its
    // cache already lives, so the plan moves zero bytes — any other
    // inheritance permutation of the same replica set could only equal
    // that, never beat it.
    std::vector<std::pair<int, int>> identity_pins;
    identity_pins.reserve(target.dp);
    for (int d = 0; d < target.dp; ++d)
        identity_pins.emplace_back(d, d);
    result.inheritedOldPipeline =
        planInheritance(target.dp, old_pipeline_tokens, identity_pins);
    for (int i = 0; i < topo.size(); ++i) {
        const par::Position pos = topo.position(i);
        const engine::GpuContext *held = holder[i];
        result.mesh.assign(pos, held->gpu);
        result.reusedModelBytes +=
            engine::modelOverlapBytes(spec_, *held, topo, pos);
        if (result.inheritedOldPipeline[pos.d] == held->position.d) {
            result.reusedCacheBytes +=
                engine::cacheOverlapBytes(spec_, *held, topo, pos);
        }
    }
    return true;
}

MappingResult
DeviceMapper::map(const engine::ContextSnapshot &snapshot,
                  const par::ParallelConfig &target,
                  const std::vector<const cluster::Instance *> &instance_list,
                  const std::vector<double> &old_pipeline_tokens,
                  const std::vector<ReplicaPin> &pins) const
{
    const int gpi = params_.gpusPerInstance;
    par::DeviceMesh mesh(target, spec_.numLayers());
    const par::Topology &topo = mesh.topology();

    const int total_gpus = target.totalGpus();
    if (static_cast<int>(instance_list.size()) * gpi < total_gpus)
        throw std::invalid_argument("DeviceMapper::map: not enough GPUs");

    MappingResult result{std::move(mesh), {}, 0.0, 0.0, 0.0};
    result.inheritedOldPipeline =
        planInheritance(target.dp, old_pipeline_tokens);

    for (int i = 0; i < topo.size(); ++i) {
        result.neededModelBytes +=
            engine::neededModelBytes(spec_, topo, topo.position(i));
    }

    if (pins.empty() && options_.useKuhnMunkres &&
        options_.identityFastPath &&
        tryIdentityMapping(snapshot, target, instance_list,
                           old_pipeline_tokens, result)) {
        return result;
    }
    const engine::ContextIndex contexts(snapshot);

    // ------------------------------------------------------------------
    // Caller-pinned replicas: bind them verbatim, pin their inheritance
    // to their own batch, and carve their GPUs/instances/slots out of the
    // matching problem below.
    // ------------------------------------------------------------------
    std::unordered_set<par::GpuId> pinned_gpus;
    std::vector<bool> pinned_new(target.dp, false);
    if (!pins.empty()) {
        const int per_replica = target.pp * target.tp;
        if (per_replica % gpi != 0) {
            throw std::invalid_argument(
                "DeviceMapper::map: pinned replicas must tile instances");
        }
        for (const auto &pin : pins) {
            if (pin.newReplica < 0 || pin.newReplica >= target.dp ||
                static_cast<int>(pin.gpus.size()) != per_replica ||
                pinned_new[pin.newReplica]) {
                throw std::invalid_argument(
                    "DeviceMapper::map: malformed replica pin");
            }
            pinned_new[pin.newReplica] = true;
            for (int k = 0; k < per_replica; ++k) {
                if (!pinned_gpus.insert(pin.gpus[k]).second) {
                    throw std::invalid_argument(
                        "DeviceMapper::map: GPU pinned twice");
                }
                result.mesh.assign(
                    topo.position(pin.newReplica * per_replica + k),
                    pin.gpus[k]);
            }
        }
        // Pinned replicas keep their own batch in place; the remaining
        // new replicas re-rank the remaining old replicas by progress —
        // one policy, one implementation (planInheritance).
        std::vector<std::pair<int, int>> pinned_pairs;
        pinned_pairs.reserve(pins.size());
        for (const auto &pin : pins)
            pinned_pairs.emplace_back(pin.newReplica, pin.oldReplica);
        result.inheritedOldPipeline =
            planInheritance(target.dp, old_pipeline_tokens, pinned_pairs);
        // Reuse accounting for the pinned positions.
        for (const auto &pin : pins) {
            for (int k = 0; k < per_replica; ++k) {
                const par::Position pos =
                    topo.position(pin.newReplica * per_replica + k);
                const auto *held = contexts.find(pin.gpus[k]);
                if (!held)
                    continue;
                result.reusedModelBytes +=
                    engine::modelOverlapBytes(spec_, *held, topo, pos);
                if (result.inheritedOldPipeline[pos.d] ==
                        held->position.d &&
                    held->hasModelContext) {
                    result.reusedCacheBytes += engine::cacheOverlapBytes(
                        spec_, *held, topo, pos);
                }
            }
        }
    }

    // Matching problem over the unpinned remainder.
    std::vector<const cluster::Instance *> free_instances;
    for (const auto *inst : instance_list) {
        bool owns_pinned = false;
        for (par::GpuId g : inst->gpuIds()) {
            if (pinned_gpus.find(g) != pinned_gpus.end())
                owns_pinned = true;
        }
        if (!owns_pinned)
            free_instances.push_back(inst);
    }
    std::vector<Slot> slots;
    for (auto &slot : buildSlots(topo, gpi)) {
        bool pinned = false;
        for (const auto &pos : slot.positions) {
            if (pinned_new[pos.d])
                pinned = true;
        }
        if (!pinned)
            slots.push_back(std::move(slot));
    }
    const std::size_t num_instances = free_instances.size();
    const std::size_t num_slots = slots.size();

    if (!options_.useKuhnMunkres) {
        // Ablated mapper: instances in id order, GPUs in id order.
        std::size_t s = 0;
        for (std::size_t i = 0; i < num_instances && s < num_slots; ++i, ++s) {
            const auto gpus = free_instances[i]->gpuIds();
            for (std::size_t k = 0; k < slots[s].positions.size(); ++k) {
                const par::Position &pos = slots[s].positions[k];
                result.mesh.assign(pos, gpus[k]);
                const auto *held = contexts.find(gpus[k]);
                result.reusedModelBytes +=
                    held ? engine::modelOverlapBytes(spec_, *held, topo, pos)
                         : 0.0;
            }
        }
        return result;
    }

    // Step 1 (intra-instance): score every (instance, slot) pair by its
    // best internal GPU-to-position matching, remembering the assignment.
    //
    // An edge weight depends only on the GPU's held context, the
    // position's (stage, shard) and — for the cache term — whether the
    // position's replica inherits the held pipeline.  Both overlap terms
    // are tabulated once per free GPU over the target's (stage, shard)
    // grid, through the same engine arithmetic the reuse accounting uses.
    const int shards = target.pp * target.tp;
    std::vector<std::size_t> first_gpu(num_instances + 1, 0);
    for (std::size_t i = 0; i < num_instances; ++i) {
        first_gpu[i + 1] =
            first_gpu[i] + free_instances[i]->gpuIds().size();
    }
    std::vector<const engine::GpuContext *> held_of(first_gpu.back(),
                                                    nullptr);
    std::vector<double> model_w(first_gpu.back() * shards, 0.0);
    std::vector<double> cache_w(first_gpu.back() * shards, 0.0);
    for (std::size_t i = 0; i < num_instances; ++i) {
        const auto gpus = free_instances[i]->gpuIds();
        for (std::size_t u = 0; u < gpus.size(); ++u) {
            const auto *held = contexts.find(gpus[u]);
            if (!held || !held->hasModelContext)
                continue;
            const std::size_t g = first_gpu[i] + u;
            held_of[g] = held;
            for (int p = 0; p < target.pp; ++p) {
                for (int m = 0; m < target.tp; ++m) {
                    const par::Position pos{0, p, m};
                    const int cell = p * target.tp + m;
                    const std::size_t k = g * shards + cell;
                    model_w[k] =
                        engine::modelOverlapBytes(spec_, *held, topo, pos);
                    cache_w[k] =
                        engine::cacheOverlapBytes(spec_, *held, topo, pos);
                }
            }
        }
    }

    // A few distinct weight matrices cover most (instance, slot) pairs:
    // solve each one once, keyed on its exact bits.
    struct IntraResult
    {
        std::vector<int> gpuToSlotPos; // index into slot positions, -1
        double weight = 0.0;
    };
    std::vector<IntraResult> solved;
    std::map<MatrixKey, int> solved_of;
    MatrixKey key;
    // Weights of instance i's GPUs against slot s's positions; the cache
    // term joins when the position's replica inherits the held pipeline.
    auto solve = [&](std::size_t i, std::size_t s, bool with_cache) {
        const std::size_t rows = first_gpu[i + 1] - first_gpu[i];
        const auto &positions = slots[s].positions;
        const std::size_t cols = positions.size();
        key.assign(2 + rows * cols, 0);
        key[0] = rows;
        key[1] = cols;
        for (std::size_t u = 0; u < rows; ++u) {
            const engine::GpuContext *held = held_of[first_gpu[i] + u];
            for (std::size_t v = 0; v < cols; ++v) {
                double w = 0.0;
                if (held) {
                    const par::Position &pos = positions[v];
                    const int cell = pos.p * target.tp + pos.m;
                    const std::size_t k = (first_gpu[i] + u) * shards + cell;
                    w = model_w[k];
                    if (with_cache && options_.preferCacheReuse &&
                        held->cacheTokens > 0.0 &&
                        result.inheritedOldPipeline[pos.d] ==
                            held->position.d) {
                        w += cache_w[k];
                    }
                }
                std::memcpy(&key[2 + u * cols + v], &w, sizeof(w));
            }
        }
        auto it = solved_of.find(key);
        if (it == solved_of.end()) {
            match::Matrix w(rows, std::vector<double>(cols, 0.0));
            for (std::size_t u = 0; u < rows; ++u) {
                for (std::size_t v = 0; v < cols; ++v)
                    std::memcpy(&w[u][v], &key[2 + u * cols + v],
                                sizeof(double));
            }
            auto a = match::maxWeightAssignment(w);
            solved.push_back(IntraResult{std::move(a.rowToCol), a.totalWeight});
            it = solved_of.emplace(key, static_cast<int>(solved.size()) - 1)
                     .first;
        }
        return it->second;
    };

    // Without the cache term a slot's matrix depends only on its shape —
    // the (stage, shard) of each position — so one solve per instance and
    // shape covers every slot whose replica inherits none of the pipelines
    // the instance holds cache of.  Only those inheriting slots get a
    // matrix of their own.
    std::vector<int> shape_of(num_slots, 0);
    std::vector<std::size_t> shape_slot; // a slot of each shape
    {
        std::map<std::vector<int>, int> shape_ids;
        for (std::size_t s = 0; s < num_slots; ++s) {
            std::vector<int> shape;
            shape.reserve(slots[s].positions.size());
            for (const auto &pos : slots[s].positions)
                shape.push_back(pos.p * target.tp + pos.m);
            const auto [it, fresh] = shape_ids.emplace(
                std::move(shape), static_cast<int>(shape_slot.size()));
            if (fresh)
                shape_slot.push_back(s);
            shape_of[s] = it->second;
        }
    }
    // Slots by the old pipelines their replicas inherit.
    std::map<int, std::vector<std::size_t>> slots_inheriting;
    for (std::size_t s = 0; s < num_slots; ++s) {
        std::vector<int> olds;
        olds.reserve(slots[s].positions.size());
        for (const auto &pos : slots[s].positions)
            olds.push_back(result.inheritedOldPipeline[pos.d]);
        std::sort(olds.begin(), olds.end());
        olds.erase(std::unique(olds.begin(), olds.end()), olds.end());
        for (int od : olds)
            slots_inheriting[od].push_back(s);
    }

    std::vector<int> intra(num_instances * num_slots, -1);
    match::Matrix slot_weight(num_instances,
                              std::vector<double>(num_slots, 0.0));
    std::vector<int> by_shape(shape_slot.size());
    for (std::size_t i = 0; i < num_instances; ++i) {
        for (std::size_t sh = 0; sh < shape_slot.size(); ++sh)
            by_shape[sh] = solve(i, shape_slot[sh], false);
        for (std::size_t s = 0; s < num_slots; ++s)
            intra[i * num_slots + s] = by_shape[shape_of[s]];
        if (options_.preferCacheReuse) {
            std::vector<int> cached; // old pipelines cached on instance i
            for (std::size_t g = first_gpu[i]; g < first_gpu[i + 1]; ++g) {
                if (held_of[g] && held_of[g]->cacheTokens > 0.0)
                    cached.push_back(held_of[g]->position.d);
            }
            std::sort(cached.begin(), cached.end());
            cached.erase(std::unique(cached.begin(), cached.end()),
                         cached.end());
            for (int od : cached) {
                const auto it = slots_inheriting.find(od);
                if (it == slots_inheriting.end())
                    continue;
                for (std::size_t s : it->second)
                    intra[i * num_slots + s] = solve(i, s, true);
            }
        }
        for (std::size_t s = 0; s < num_slots; ++s)
            slot_weight[i][s] = solved[intra[i * num_slots + s]].weight;
    }

    // Step 2 (inter-instance): match instances to slots.
    const auto inter = match::maxWeightAssignment(slot_weight);
    const auto slot_to_instance = inter.colToRow(num_slots);

    for (std::size_t s = 0; s < num_slots; ++s) {
        const int i = slot_to_instance[s];
        if (i < 0)
            throw std::logic_error("DeviceMapper::map: unmatched slot");
        const auto gpus = free_instances[i]->gpuIds();
        const auto &positions = slots[s].positions;
        const auto &assignment =
            solved[intra[static_cast<std::size_t>(i) * num_slots + s]]
                .gpuToSlotPos;

        // Bind matched GPUs; positions a partial slot leaves unmatched get
        // the remaining GPUs in order.
        std::vector<bool> pos_taken(positions.size(), false);
        std::vector<bool> gpu_used(gpus.size(), false);
        for (std::size_t u = 0; u < assignment.size(); ++u) {
            const int v = assignment[u];
            if (v < 0)
                continue;
            const par::Position &pos = positions[v];
            result.mesh.assign(pos, gpus[u]);
            pos_taken[v] = true;
            gpu_used[u] = true;
            const auto *held = contexts.find(gpus[u]);
            if (held) {
                result.reusedModelBytes +=
                    engine::modelOverlapBytes(spec_, *held, topo, pos);
                if (result.inheritedOldPipeline[pos.d] == held->position.d &&
                    held->hasModelContext) {
                    result.reusedCacheBytes += engine::cacheOverlapBytes(
                        spec_, *held, topo, pos);
                }
            }
        }
        std::size_t next_gpu = 0;
        for (std::size_t v = 0; v < positions.size(); ++v) {
            if (pos_taken[v])
                continue;
            while (next_gpu < gpus.size() && gpu_used[next_gpu])
                ++next_gpu;
            if (next_gpu >= gpus.size())
                throw std::logic_error("DeviceMapper::map: slot overflow");
            result.mesh.assign(positions[v], gpus[next_gpu]);
            gpu_used[next_gpu] = true;
        }
    }

    return result;
}

} // namespace core
} // namespace spotserve
