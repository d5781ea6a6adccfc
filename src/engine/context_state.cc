#include "engine/context_state.h"

#include <algorithm>

namespace spotserve {
namespace engine {

namespace {

/** Number of layers in [a0,a1) ∩ [b0,b1). */
int
layerIntersection(std::pair<int, int> a, std::pair<int, int> b)
{
    return std::max(0, std::min(a.second, b.second) -
                           std::max(a.first, b.first));
}

} // namespace

const GpuContext *
ContextSnapshot::find(par::GpuId gpu) const
{
    for (const auto &g : gpus) {
        if (g.gpu == gpu)
            return &g;
    }
    return nullptr;
}

ContextIndex::ContextIndex(const ContextSnapshot &snapshot)
    : snapshot_(snapshot)
{
    par::GpuId max_gpu = par::kInvalidGpu;
    for (const auto &g : snapshot.gpus)
        max_gpu = std::max(max_gpu, g.gpu);
    entryOf_.assign(static_cast<std::size_t>(max_gpu + 1), -1);
    for (std::size_t i = 0; i < snapshot.gpus.size(); ++i) {
        const par::GpuId gpu = snapshot.gpus[i].gpu;
        if (gpu >= 0 && entryOf_[static_cast<std::size_t>(gpu)] < 0)
            entryOf_[static_cast<std::size_t>(gpu)] = static_cast<int>(i);
    }
}

const GpuContext *
ContextIndex::find(par::GpuId gpu) const
{
    if (gpu < 0 || static_cast<std::size_t>(gpu) >= entryOf_.size())
        return nullptr;
    const int i = entryOf_[static_cast<std::size_t>(gpu)];
    return i < 0 ? nullptr : &snapshot_.gpus[static_cast<std::size_t>(i)];
}

double
modelOverlapBytes(const model::ModelSpec &spec, const GpuContext &held,
                  const par::Topology &target,
                  const par::Position &target_pos)
{
    if (!held.hasModelContext)
        return 0.0;
    const par::Topology held_top(held.config, spec.numLayers());
    const int common =
        layerIntersection(held_top.stageLayers(held.position.p),
                          target.stageLayers(target_pos.p));
    if (common == 0)
        return 0.0;
    const double frac = par::shardOverlapFraction(
        held.position.m, held.config.tp, target_pos.m, target.config().tp);
    return common * spec.layerWeightBytes() * frac;
}

double
cacheOverlapBytes(const model::ModelSpec &spec, const GpuContext &held,
                  const par::Topology &target,
                  const par::Position &target_pos)
{
    if (!held.hasModelContext || held.cacheTokens <= 0.0)
        return 0.0;
    const par::Topology held_top(held.config, spec.numLayers());
    const int common =
        layerIntersection(held_top.stageLayers(held.position.p),
                          target.stageLayers(target_pos.p));
    if (common == 0)
        return 0.0;
    const double frac = par::shardOverlapFraction(
        held.position.m, held.config.tp, target_pos.m, target.config().tp);
    return held.cacheTokens * spec.kvBytesPerTokenPerLayer() * common * frac;
}

double
neededModelBytes(const model::ModelSpec &spec, const par::Topology &target,
                 const par::Position &pos)
{
    const auto [first, last] = target.stageLayers(pos.p);
    return (last - first) * spec.layerWeightBytes() / target.config().tp;
}

double
neededCacheBytes(const model::ModelSpec &spec, const par::Topology &target,
                 const par::Position &pos, double cache_tokens)
{
    const auto [first, last] = target.stageLayers(pos.p);
    return cache_tokens * spec.kvBytesPerTokenPerLayer() * (last - first) /
           target.config().tp;
}

} // namespace engine
} // namespace spotserve
