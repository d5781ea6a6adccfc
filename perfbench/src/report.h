/**
 * @file
 * Metric names, units and the result line every workload prints.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics (untraced runs); BENCHMARK.json lists the same. */
const std::vector<MetricDef> &endToEndMetrics();
/** Per-layer metrics (traced runs); BENCHMARK.json lists the same. */
const std::vector<MetricDef> &perLayerMetrics();

/** What one workload run produced. */
struct Result
{
    std::map<std::string, double> endToEnd;
    std::map<std::string, double> perLayer;
    /** Sample counts and percentiles behind timing metrics (display). */
    std::map<std::string, std::string> detail;
    Accounting accounting;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    std::string digest;
};

/** Record @p tail under @p name with its percentile and sample count. */
void putTail(Result &result, std::map<std::string, double> &into,
             const std::string &name, const Tail &tail, double scale = 1.0);

/** Options every workload receives from the command line. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory the traced run writes its Chrome trace into. */
    std::string traceDir;
};

/**
 * Print every metric of the selected set (end-to-end, or per-layer when
 * @p trace) with unit and detail, then the JSON result line last.
 * Metrics the workload did not produce print as 0.
 */
void printResult(const Result &result, bool trace);

/** Peak resident set of this process in MB. */
double peakRssMb();
/** User + system CPU seconds this process has consumed. */
double processCpuSeconds();
/** User + system CPU seconds the calling thread has consumed. */
double callerCpuSeconds();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
