/**
 * @file
 * fleet-replan: the planning path alone, at fleet scale, with no
 * executor.  A seeded sequence of availability and demand changes on a
 * GPT-20B fleet that starts at 512 four-GPU instances and falls to about
 * 256; after each change one complete replan runs through the public API
 * and its result becomes the next snapshot.  A notice at 512 instances
 * leaves the target config unchanged (shrink: the lost positions are
 * refilled, the mapper's near-identity case), while demand shifts and a
 * mass loss force a new (D, P, M) (reshape: the full Kuhn-Munkres
 * solve).
 *
 * The same replay machinery (measureReplans) gives every other workload
 * its replan_tail_ms on that workload's own fleet.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "model/model_spec.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kReplanFleet = 512;
/** Grace window a replan (planning + migration) must fit in, seconds. */
constexpr double kGraceWindowS = 30.0;

/**
 * The fleet-replan event sequence.  Its shape is fixed so every seed
 * replans the same kinds of change at the same fleet sizes; the seed
 * picks which instances each notice and kill hits.
 */
std::vector<FleetEvent>
replanSequence()
{
    using K = FleetEvent::Kind;
    return {
        // 512 instances under overload demand deploy P3 M4 with D = 170
        // (510 instances).  Demand falls: a new (D, P, M) at 512.
        {K::Rate, 0, 18.0},
        // The smaller config (P2 M8, D = 99) no longer fills the fleet
        // and the controller keeps it at 510-514 instances, so a notice
        // is a shrink at 512: the lost positions are refilled.
        {K::Notice, 2, 0.0},
        // Replacements join: the deployment is already in place.
        {K::Join, 2, 0.0},
        // A preemption wave takes the fleet to 256: reshape.
        {K::Kill, kReplanFleet - 256, 0.0},
        // Demand returns at 256 instances: P3 M4 with D = 85 fills 255
        // of them.  Then single notices and replacements: shrinks.
        {K::Rate, 0, 60.0},
        {K::Notice, 1, 0.0},
        {K::Join, 1, 0.0},
        {K::Notice, 1, 0.0},
        {K::Join, 1, 0.0},
        {K::Notice, 1, 0.0},
        {K::Join, 1, 0.0},
    };
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/**
 * Per-stage figures of one replan sequence.  Stage times are the
 * maximum over the sequence: the slowest replan is the one the grace
 * window must cover, and on fleet-replan it is a ~512-instance replan.
 */
void
stageMetrics(Result &result, const std::vector<ReplanRecord> &records)
{
    std::vector<double> ctrl, cand, reshape, shrink, planner, reuse, span,
        link, steps, gain, ratio;
    for (const auto &rec : records) {
        if (!rec.feasible)
            continue;
        ctrl.push_back(rec.controllerMs);
        cand.push_back(static_cast<double>(rec.candidates));
        (rec.reshape ? reshape : shrink).push_back(rec.mapperMs);
        planner.push_back(rec.plannerMs);
        reuse.push_back(rec.planReuseRatio);
        span.push_back(rec.planMakespan);
        link.push_back(rec.linkMs);
        steps.push_back(rec.linkSteps);
        gain.push_back(rec.interleaveGain);
        if (rec.totalMs > 0.0)
            ratio.push_back(rec.modelPlanningS / (rec.totalMs * 1e-3));
    }
    auto &pl = result.perLayer;
    pl["core.replans"] = static_cast<double>(records.size());
    pl["core.controller_ms"] = maxOf(ctrl);
    pl["core.controller_candidates"] = maxOf(cand);
    pl["core.mapper_ms.reshape"] = maxOf(reshape);
    pl["core.mapper_ms.shrink"] = maxOf(shrink);
    pl["core.planner_ms"] = maxOf(planner);
    pl["core.plan_reuse_ratio"] = medianOf(reuse);
    pl["core.plan_makespan_s"] = maxOf(span);
    pl["costmodel.link_schedule_ms"] = maxOf(link);
    pl["costmodel.link_steps"] = maxOf(steps);
    pl["costmodel.interleave_gain"] = medianOf(gain);
    // Report-only: the modelled planning charge over the measured time.
    pl["costmodel.planning_model_ratio"] = medianOf(ratio);
}

} // namespace

std::uint64_t
sampleSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
writeTrace(Result &result, const RunOptions &options,
           const SpanRecorder &spans)
{
    result.perLayer["bench.spans"] = static_cast<double>(spans.spans().size());
    for (const auto &[layer, self] : spans.layerSelfTimes()) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "self time %-10s %.6f s",
                      layer.c_str(), self);
        result.notes.push_back(buf);
    }
    if (options.traceDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(options.traceDir, ec);
    const std::string path = options.traceDir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    if (spans.writeChromeTrace(path))
        result.notes.push_back("chrome trace " + path);
    else
        result.notes.push_back("could not write chrome trace " + path);
}

void
measureReplans(Result &result, SpeedGauge &gauge,
               const model::ModelSpec &spec, int initial_instances,
               double rate, std::uint64_t seed,
               const std::vector<FleetEvent> &events, int repeats,
               SpanRecorder *spans, bool count_failures)
{
    const auto params = cost::CostParams::awsG4dn();
    std::vector<double> slowest, slowest_raw;
    std::vector<ReplanRecord> traced;
    for (int r = 0; r < repeats; ++r) {
        const bool last = r + 1 == repeats;
        const double factor = gauge.measure();
        ReplanDriver driver(spec, params, initial_instances, rate, seed);
        Digest digest;
        double worst = 0.0;
        for (const auto &event : events) {
            auto rec = driver.apply(event, last ? spans : nullptr, digest);
            worst = std::max(worst, rec.totalMs);
            if (last) {
                if (count_failures) {
                    result.accounting.check(rec.feasible,
                                            "replan found a configuration");
                    result.accounting.check(rec.violation.empty(),
                                            "planning invariants: " +
                                                rec.violation);
                }
                traced.push_back(rec);
            }
        }
        slowest.push_back(worst * factor);
        slowest_raw.push_back(worst);
    }
    result.endToEnd["replan_tail_ms"] = medianOf(slowest);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "slowest of %zu replans, median of %d replays (raw %.3f "
                  "ms)",
                  events.size(), repeats, medianOf(slowest_raw));
    result.detail["replan_tail_ms"] = buf;

    stageMetrics(result, traced);
    std::snprintf(buf, sizeof buf,
                  "replans: %zu per replay on %d initial instances",
                  traced.size(), initial_instances);
    result.notes.push_back(buf);
}

Result
runFleetReplan(const RunOptions &options)
{
    Result result;
    const auto spec = model::ModelSpec::gpt20b();
    const auto params = cost::CostParams::awsG4dn();
    const double initial_rate = 60.0;

    SpeedGauge gauge;
    std::vector<double> setups, passes, passes_raw, slowest;
    std::vector<ReplanRecord> first, traced;
    std::string first_digest;
    const auto start = Clock::now();
    SpanRecorder spans;
    // A pass = a fresh driver (set-up: the event sequence, controller
    // construction and the initial packed deployment) plus the timed
    // replans.  Fresh state per pass keeps the controller's memo cold,
    // so every pass does the same work.  The traced run makes one
    // untraced pass and one traced pass.
    for (int pass = 0;; ++pass) {
        const bool traced_pass = options.trace && pass == 1;
        SpanRecorder *rec_spans = traced_pass ? &spans : nullptr;
        const double setup_factor = gauge.measure();
        const auto t_setup = Clock::now();
        const auto events = replanSequence();
        ReplanDriver driver(spec, params, kReplanFleet, initial_rate,
                            options.seed);
        setups.push_back(secondsSince(t_setup) * setup_factor);

        // Every replan is scaled by the mean of gauge readings taken just
        // before and just after it: a 512-instance replan runs long
        // enough for the machine's speed to move during it.  The traced
        // pass is compared raw against the first pass.
        Digest digest;
        std::vector<ReplanRecord> records;
        double pass_raw = 0.0, pass_ref = 0.0, worst = 0.0;
        {
            ScopedSpan span(rec_spans, "bench.pass");
            for (const auto &event : events) {
                const double before = traced_pass ? 1.0 : gauge.measure();
                records.push_back(driver.apply(event, rec_spans, digest));
                const double after = traced_pass ? 1.0 : gauge.measure();
                const double factor = (before + after) / 2.0;
                const double ms = records.back().totalMs;
                pass_raw += ms * 1e-3;
                pass_ref += ms * 1e-3 * factor;
                worst = std::max(worst, ms * factor);
            }
        }
        passes_raw.push_back(pass_raw);
        if (!traced_pass) {
            passes.push_back(pass_ref);
            slowest.push_back(worst);
        }
        if (pass == 0) {
            first = records;
            first_digest = digest.hex();
        } else {
            result.accounting.check(digest.hex() == first_digest,
                                    traced_pass
                                        ? "traced replans match untraced"
                                        : "replans repeat across passes");
        }
        if (traced_pass) {
            traced = records;
            result.perLayer["bench.trace_overhead_s"] =
                passes_raw[1] - passes_raw[0];
            break;
        }
        if (!options.trace && secondsSince(start) >= options.seconds * 0.8)
            break;
    }

    result.accounting.attempt(static_cast<long>(first.size()));
    std::vector<double> model_latency, usd;
    long within = 0;
    bool shrink512 = false, reshape512 = false;
    for (const auto &rec : first) {
        if (!rec.feasible) {
            result.accounting.fail("replan infeasible");
            continue;
        }
        if (!rec.violation.empty())
            result.accounting.fail("planning invariant: " + rec.violation);
        model_latency.push_back(rec.modelLatencyS);
        usd.push_back(rec.usdPerMtok);
        if (rec.modelLatencyS <= kGraceWindowS)
            ++within;
        if (rec.fleet >= kReplanFleet) {
            shrink512 = shrink512 || !rec.reshape;
            reshape512 = reshape512 || rec.reshape;
        }
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "replan fleet %3d -> %3d %-7s D%d P%d M%d B%d  "
                      "ctrl %6.2f ms  "
                      "map %8.2f ms  plan %8.2f ms  links %8.2f ms  "
                      "model %.2f s",
                      rec.fleet, rec.instances,
                      rec.reshape ? "reshape" : "shrink",
                      rec.config.dp, rec.config.pp, rec.config.tp,
                      rec.config.batch, rec.controllerMs, rec.mapperMs,
                      rec.plannerMs, rec.linkMs, rec.modelLatencyS);
        result.notes.push_back(buf);
    }
    result.accounting.check(shrink512 && reshape512,
                            "sequence replans both shrink and reshape on "
                            "the 512-instance fleet");
    result.digest = first_digest;

    auto &e2e = result.endToEnd;
    e2e["setup_s"] = medianOf(setups);
    e2e["host_s"] = medianOf(passes);
    e2e["replan_tail_ms"] = medianOf(slowest);
    result.detail["replan_tail_ms"] =
        "slowest replan per pass, median of " +
        std::to_string(slowest.size()) + " passes";
    char host[128];
    std::snprintf(host, sizeof host, "median of %zu passes (raw %.3f s)",
                  passes.size(), medianOf(passes_raw));
    result.detail["host_s"] = host;
    e2e["model_latency_p50_s"] = medianOf(model_latency);
    Tail worst;
    worst.value = maxOf(model_latency);
    worst.percentile = 100.0;
    worst.samples = model_latency.size();
    putTail(result, e2e, "model_latency_p99_s", worst);
    e2e["model_slo_attainment"] =
        first.empty() ? 0.0 : static_cast<double>(within) / first.size();
    e2e["model_usd_per_mtok"] = medianOf(usd);
    e2e["peak_rss_mb"] = peakRssMb();

    result.perLayer["failed_frac"] = result.accounting.failedFrac();
    if (options.trace) {
        stageMetrics(result, traced);
        writeTrace(result, options, spans);
    }
    return result;
}

} // namespace perfbench
