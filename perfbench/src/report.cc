#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"host_s", "s"},
        {"replan_tail_ms", "ms"},
        {"model_latency_p50_s", "s_model"},
        {"model_latency_p99_s", "s_model"},
        {"model_slo_attainment", "share"},
        {"model_usd_per_mtok", "USD/1e6tok"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    // ingress-stream's own figures (real-time TTFT/ITL, max_rate_rps,
    // driver lag, serving.ingress.*) are not listed: that workload is not
    // in BENCHMARK.json, and printResult shows them as extra lines.
    static const std::vector<MetricDef> defs = {
        // End-to-end figures that exist on only some workloads.
        {"failed_frac", "share"},
        {"model_ttft_p99_s", "s_model"},
        {"model_itl_p99_s", "s_model"},
        {"bench.trace_overhead_s", "s"},
        {"bench.spans", "count"},
        // simcore
        {"simcore.events", "count"},
        {"simcore.schedules", "count"},
        {"simcore.cancels", "count"},
        {"simcore.ns_per_event", "ns"},
        {"simcore.loop_self_s", "s"},
        {"simcore.callback_s", "s"},
        // engine
        {"engine.boundaries", "count"},
        {"engine.tokens", "count"},
        {"engine.tokens_per_boundary", "count"},
        {"engine.kv_util_mean", "share"},
        {"engine.kv_peak_physical_blocks", "count"},
        {"engine.kv_peak_logical_blocks", "count"},
        {"engine.peak_concurrency", "count"},
        {"engine.evictions", "count"},
        {"engine.evicted_work_s", "s_model"},
        {"engine.prefix_hit_rate", "share"},
        {"engine.prefix_matched_tokens", "count"},
        {"engine.cow_copies", "count"},
        {"engine.saved_prefill_s", "s_model"},
        // serving
        {"serving.arrival_host_us_mean", "us"},
        {"serving.arrival_host_us_tail", "us"},
        {"serving.mid_batch_admissions", "count"},
        {"serving.restarted_requeues", "count"},
        {"serving.rejected", "count"},
        {"serving.unfinished", "count"},
        // cluster
        {"cluster.preempt_notices", "count"},
        {"cluster.hard_preemptions", "count"},
        {"cluster.spot_hours", "h_model"},
        {"cluster.od_hours", "h_model"},
        // core (serving runs)
        {"core.reconfigs", "count"},
        {"core.partial_reconfigs", "count"},
        {"core.migrations", "count"},
        {"core.migration_makespan_s", "s_model"},
        {"core.migration_stall_s", "s_model"},
        {"core.reuse_ratio", "share"},
        {"core.kept_serving_ratio", "share"},
        {"core.contended_migrations", "count"},
        {"core.migration_aborts", "count"},
        {"core.migration_retries", "count"},
        {"core.requests_recovered", "count"},
        {"core.salvaged_blocks", "count"},
        // core / costmodel (replans, one span per public call)
        {"core.replans", "count"},
        {"core.controller_ms", "ms"},
        {"core.controller_candidates", "count"},
        {"core.mapper_ms.reshape", "ms"},
        {"core.mapper_ms.shrink", "ms"},
        {"core.planner_ms", "ms"},
        {"core.plan_reuse_ratio", "share"},
        {"core.plan_makespan_s", "s_model"},
        {"costmodel.link_schedule_ms", "ms"},
        {"costmodel.link_steps", "count"},
        {"costmodel.interleave_gain", "ratio"},
        {"costmodel.planning_model_ratio", "ratio"},
        // workload
        {"workload.requests", "count"},
        {"workload.gen_s", "s"},
    };
    return defs;
}

void
putTail(Result &result, std::map<std::string, double> &into,
        const std::string &name, const Tail &tail, double scale)
{
    into[name] = tail.value * scale;
    char buf[96];
    std::snprintf(buf, sizeof buf, "p%g of n=%zu", tail.percentile,
                  tail.samples);
    result.detail[name] = buf;
}

namespace {

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

void
printResult(const Result &result, bool trace)
{
    const auto &defs = trace ? perLayerMetrics() : endToEndMetrics();
    const auto &values = trace ? result.perLayer : result.endToEnd;
    for (const auto &line : result.notes)
        std::printf("%s\n", line.c_str());
    std::printf("digest %s\n", result.digest.c_str());
    for (const auto &why : result.accounting.reasons())
        std::printf("FAILED %s\n", why.c_str());
    std::string json = "{\"correct\": ";
    json += result.accounting.correct() ? "true" : "false";
    json += ", \"attempted\": " +
            std::to_string(std::max(1L, result.accounting.attempted()));
    json += ", \"failed\": " + std::to_string(result.accounting.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &def : defs) {
        const auto it = values.find(def.name);
        const double v = it == values.end() ? 0.0 : it->second;
        const auto detail = result.detail.find(def.name);
        std::printf("%-36s %16.6f %-10s %s\n", def.name, v, def.unit,
                    detail == result.detail.end() ? ""
                                                  : detail->second.c_str());
        json += std::string(first ? "" : ", ") + "\"" + def.name +
                "\": {\"value\": " + jsonNumber(v) + ", \"unit\": \"" +
                def.unit + "\"}";
        first = false;
    }
    json += "}}";
    for (const auto &[name, v] : values) {
        bool listed = false;
        for (const auto &def : defs)
            listed = listed || name == def.name;
        if (!listed)
            std::printf("%-36s %16.6f (not in BENCHMARK.json)\n",
                        name.c_str(), v);
    }
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

double
cpuSeconds(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

} // namespace

double
processCpuSeconds()
{
    return cpuSeconds(RUSAGE_SELF);
}

double
callerCpuSeconds()
{
    return cpuSeconds(RUSAGE_THREAD);
}

} // namespace perfbench
