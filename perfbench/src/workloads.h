/**
 * @file
 * The four benchmark workloads.  Each measures for about
 * RunOptions::seconds, checks its outputs, and fills the end-to-end
 * metrics (untraced) or the per-layer metrics (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <vector>

#include "gauge.h"
#include "replan.h"
#include "report.h"

namespace perfbench {

Result runFleetChurn(const RunOptions &options);
Result runFewshotHostile(const RunOptions &options);
Result runFleetReplan(const RunOptions &options);
Result runIngressStream(const RunOptions &options);

/** Seed of sample @p k of a run seeded @p seed (splitmix64 mixing). */
std::uint64_t sampleSeed(std::uint64_t seed, std::uint64_t k);

/**
 * Replay @p events on a fresh ReplanDriver @p repeats times and report
 * the slowest replan of each replay, at the reference speed @p gauge
 * measures before each replay (median over replays), as replan_tail_ms;
 * with @p spans, the last replay is traced and its per-stage figures go
 * to the per-layer metrics.
 */
void measureReplans(Result &result, SpeedGauge &gauge,
                    const model::ModelSpec &spec,
                    int initial_instances, double rate, std::uint64_t seed,
                    const std::vector<FleetEvent> &events, int repeats,
                    SpanRecorder *spans, bool count_failures);

/** Write @p spans to the run's trace directory and note the path. */
void writeTrace(Result &result, const RunOptions &options,
                const SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
