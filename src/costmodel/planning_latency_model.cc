#include "costmodel/planning_latency_model.h"

#include <algorithm>

namespace spotserve {
namespace cost {

double
PlanningLatencyModel::chooseConfigTime(std::size_t candidates,
                                       std::size_t cold_evals)
{
    cold_evals = std::min(cold_evals, candidates);
    return static_cast<double>(cold_evals) * candidateEvalTime +
           static_cast<double>(candidates - cold_evals) *
               candidateLookupTime;
}

double
PlanningLatencyModel::mapperTime(int instances, int slots,
                                 bool identity_fast_path)
{
    if (instances <= 0 || slots <= 0)
        return 0.0;
    if (identity_fast_path) {
        // One linear coverage probe over the held positions.
        return static_cast<double>(slots) * slotPairTime;
    }
    const double n = static_cast<double>(std::max(instances, slots));
    return n * n * n * matchingUnitTime +
           static_cast<double>(instances) * static_cast<double>(slots) *
               slotPairTime;
}

double
PlanningLatencyModel::plannerTime(int layers, int snapshot_gpus)
{
    if (layers <= 0)
        return 0.0;
    // The per-position source search scans the snapshot for every layer
    // slice; at least one unit per layer even on an empty snapshot.
    return static_cast<double>(layers) *
           static_cast<double>(std::max(snapshot_gpus, 1)) * plannerUnitTime;
}

double
PlanningLatencyModel::totalTime(std::size_t candidates,
                                std::size_t cold_evals, int instances,
                                int slots, bool identity_fast_path,
                                int layers, int snapshot_gpus)
{
    return fixedOverhead + chooseConfigTime(candidates, cold_evals) +
           mapperTime(instances, slots, identity_fast_path) +
           plannerTime(layers, snapshot_gpus);
}

} // namespace cost
} // namespace spotserve
