/**
 * @file
 * The two simulated workloads, run through serving::runExperimentOn on a
 * private sim::Simulation per sample.
 *
 * fleet-churn: SpotServe serves OPT-6.7B on a seeded 128-instance spot
 * fleet where one or two instances get a 30 s preemption notice every
 * minute and are replaced 90 s later.  Gamma (CV 2) arrivals at 40
 * req/s keep the fleet busy without overloading it; prompts are
 * unshared, 512 in / 128 out.  Host time goes to the engine boundary,
 * admission and the event queue; prefix sharing is idle.
 *
 * fewshot-hostile: the paper's GPT-20B scenario on traceFig8B() with
 * half its notices hardened into zero-notice kills, MAF-shaped (CV 6)
 * arrivals, and four 768-token few-shot templates prepended.  Overloaded
 * and prefix-heavy: the KV prefix index, KV-pressure admission and kill
 * recovery set modelled latency; host cost per sample is small, so a
 * run pools many samples.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <set>
#include <unordered_map>

#include "cluster/trace_library.h"
#include "serving/presets.h"
#include "simcore/simulation.h"
#include "workload/maf_trace.h"
#include "gauge.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SimInputs
{
    cluster::AvailabilityTrace trace;
    wl::Workload workload;
};

struct SimWorkload
{
    explicit SimWorkload(model::ModelSpec model) : spec(std::move(model)) {}

    model::ModelSpec spec;
    core::SpotServeOptions system;
    serving::ExperimentOptions experiment;
    /** Samples pooled per pass. */
    int samples = 1;
    /** Samples between two host-speed gauge readings. */
    int gaugeEvery = 1;
    /** Modelled latency limit of model_slo_attainment, seconds. */
    double sloLimitS = 0.0;
    /** Replays of the trace's availability changes for replan_tail_ms. */
    int replanRepeats = 1;
    /** Arrival rate the replan replay plans for. */
    double replanRate = 0.0;
    std::function<SimInputs(std::uint64_t)> make;
};

/** What the traced run observes inside one sample. */
struct Probe
{
    sim::Executor *executor = nullptr;
    double warmup = 0.0;
    core::SpotServeSystem *system = nullptr;
    serving::RequestManager *requests = nullptr;
    std::unordered_map<long long, double> lastToken;
    std::vector<double> ttft;
    /** Pooled across the pass's probes (owned by Traced). */
    LogHistogram *itl = nullptr;
    long boundaries = 0;
    double kvUtilSum = 0.0;
    long kvUtilSamples = 0;
    // Read from the system when its run ends.
    long midBatch = 0;
    long partialReconfigs = 0;
    double stallS = 0.0;
    double bytesReused = 0.0;
    double bytesMigrated = 0.0;
    long keptServing = 0;
    long drained = 0;
};

serving::SystemFactory
makeFactory(const SimWorkload &w, Probe *probe)
{
    const auto params = cost::CostParams::awsG4dn();
    auto base = presets::spotServeFactory(w.spec, params, cost::SeqSpec{},
                                          w.system);
    return [base, probe](sim::Executor &executor,
                         cluster::InstanceManager &instances,
                         serving::RequestManager &requests) {
        auto system = base(executor, instances, requests);
        if (!probe)
            return system;
        auto *spot = dynamic_cast<core::SpotServeSystem *>(system.get());
        probe->executor = &executor;
        probe->system = spot;
        probe->requests = &requests;
        spot->setTokenObserver([probe](const engine::ActiveRequest &r) {
            const double now = probe->executor->now();
            const bool counted = r.request.arrival >= probe->warmup;
            auto it = probe->lastToken.find(r.request.id);
            if (it == probe->lastToken.end()) {
                if (counted)
                    probe->ttft.push_back(now - r.request.arrival);
                probe->lastToken.emplace(r.request.id, now);
                return;
            }
            if (counted)
                probe->itl->add(now - it->second);
            it->second = now;
        });
        spot->setKvObserver([probe](const engine::InferencePipeline &p) {
            ++probe->boundaries;
            if (p.kvBudgetBlocks() > 0) {
                probe->kvUtilSum += static_cast<double>(
                                        p.kvPhysicalBlocksHeld()) /
                                    static_cast<double>(p.kvBudgetBlocks());
                ++probe->kvUtilSamples;
            }
        });
        return system;
    };
}

/** Digest of everything modelled about one sample. */
void
digestSample(Digest &d, const serving::ExperimentResult &r)
{
    for (const auto &c : r.perRequest) {
        d.add(static_cast<long long>(c.id));
        d.add(c.latency);
        d.add(c.restarts);
    }
    for (double x : r.latencies.samples())
        d.add(x);
    for (const auto &c : r.configHistory) {
        d.add(c.time);
        d.add(c.config.dp);
        d.add(c.config.pp);
        d.add(c.config.tp);
        d.add(c.config.batch);
    }
    d.add(r.costUsd);
    d.add(r.tokensGenerated);
    d.add(r.rejected);
    d.add(r.unfinished);
}

/** Output checks on one sample; each failure is one failed operation. */
void
checkSample(Accounting &acct, const serving::ExperimentResult &r,
            const cluster::AvailabilityTrace &trace)
{
    acct.check(r.arrived == r.completed + r.rejected + r.unfinished,
               "request conservation (arrived = completed + rejected + "
               "unfinished)");
    std::set<long long> ids;
    bool unique = true;
    for (const auto &c : r.perRequest)
        unique = ids.insert(c.id).second && unique;
    acct.check(unique, "each completion is unique");
    if (r.unfinished == 0)
        acct.check(r.liveKvRefsAtEnd == 0, "no live KV refs at the end");
    acct.check(r.hardPreemptions == trace.totalHardPreemptions(),
               "every zero-notice kill in the trace was delivered");
}

int
countNotices(const cluster::AvailabilityTrace &trace)
{
    int n = 0;
    for (const auto &e : trace.events()) {
        if (e.kind == cluster::TraceEventKind::PreemptNotice)
            n += e.count;
    }
    return n;
}

/** The traced pass's recorder, probes and decorators. */
struct Traced
{
    SpanRecorder spans;
    std::vector<Probe> probes;
    LogHistogram itl;
    std::vector<std::unique_ptr<sim::Simulation>> sims;
    std::vector<std::unique_ptr<TracingExecutor>> decorators;
};

struct Pass
{
    /** Host seconds of the samples, raw and at reference speed. */
    double seconds = 0.0;
    double refSeconds = 0.0;
    std::string digest;
    std::uint64_t events = 0;
    std::vector<serving::ExperimentResult> results;
};

/**
 * Run every sample once: bare on a Simulation, or (with @p traced)
 * through the tracing decorator with observers attached.
 */
Pass
runPass(const SimWorkload &w, const std::vector<SimInputs> &inputs,
        bool keep, Traced *traced, SpeedGauge *gauge)
{
    Pass pass;
    Digest digest;
    const auto params = cost::CostParams::awsG4dn();
    double factor = 1.0;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        if (gauge && k % static_cast<std::size_t>(w.gaugeEvery) == 0)
            factor = gauge->measure();
        auto sim = std::make_unique<sim::Simulation>();
        serving::ExperimentResult r;
        const auto ts = Clock::now();
        if (traced) {
            SpanRecorder *spans = &traced->spans;
            Probe &probe = traced->probes[k];
            probe.warmup = w.experiment.warmupCutoff;
            probe.itl = &traced->itl;
            auto deco = std::make_unique<TracingExecutor>(*sim, spans);
            deco->expectTrailingArrivals(
                static_cast<long>(inputs[k].workload.size()));
            deco->setRunEndHook([&probe] {
                probe.midBatch = probe.requests->midBatchAdmissions();
                probe.partialReconfigs = probe.system->partialReconfigs();
                probe.stallS = probe.system->totalMigrationStall();
                probe.bytesReused = probe.system->totalBytesReused();
                probe.bytesMigrated = probe.system->totalBytesMigrated();
                probe.keptServing = probe.system->pipelinesKeptServing();
                probe.drained = probe.system->pipelinesDrained();
            });
            ScopedSpan span(spans, "serving.experiment",
                            static_cast<long long>(k));
            r = serving::runExperimentOn(*deco, w.spec, params,
                                         inputs[k].trace, inputs[k].workload,
                                         makeFactory(w, &probe),
                                         w.experiment);
            traced->decorators.push_back(std::move(deco));
        } else {
            r = serving::runExperimentOn(*sim, w.spec, params,
                                         inputs[k].trace, inputs[k].workload,
                                         makeFactory(w, nullptr),
                                         w.experiment);
        }
        const double took = secondsSince(ts);
        pass.seconds += took;
        pass.refSeconds += took * factor;
        pass.events += sim->eventsFired();
        digestSample(digest, r);
        if (keep)
            pass.results.push_back(std::move(r));
        if (traced)
            traced->sims.push_back(std::move(sim));
    }
    pass.digest = digest.hex();
    return pass;
}

Result
runSimWorkload(const SimWorkload &w, const RunOptions &options)
{
    Result result;
    const auto start = Clock::now();

    // Set-up: generate every sample's trace and workload, three times;
    // the median is setup_s.
    SpeedGauge gauge;
    std::vector<double> setups;
    std::vector<SimInputs> inputs;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<SimInputs> generated;
        const double factor = gauge.measure();
        const auto t0 = Clock::now();
        for (int k = 0; k < w.samples; ++k)
            generated.push_back(
                w.make(sampleSeed(options.seed, static_cast<std::uint64_t>(k))));
        setups.push_back(secondsSince(t0) * factor);
        inputs = std::move(generated);
    }

    std::vector<Pass> passes;
    Traced traced;
    SpanRecorder &spans = traced.spans;
    traced.probes.resize(inputs.size());
    passes.push_back(runPass(w, inputs, true, nullptr, &gauge));
    if (options.trace) {
        {
            ScopedSpan gen(&spans, "workload.gen");
            for (int k = 0; k < w.samples; ++k)
                w.make(sampleSeed(options.seed,
                                  static_cast<std::uint64_t>(k)));
        }
        passes.push_back(runPass(w, inputs, false, &traced, nullptr));
        result.accounting.check(passes[1].digest == passes[0].digest,
                                "traced run's modelled outputs match the "
                                "untraced run");
    } else {
        while (secondsSince(start) < options.seconds * 0.7 ||
               passes.size() < 2) {
            passes.push_back(runPass(w, inputs, false, nullptr, &gauge));
            result.accounting.check(passes.back().digest ==
                                        passes[0].digest,
                                    "modelled outputs repeat across passes");
        }
    }

    // Model metrics and output checks from the first pass.
    const auto &results = passes[0].results;
    std::vector<double> latencies;
    long counted = 0, within = 0;
    double usd = 0.0, tokens = 0.0;
    for (std::size_t k = 0; k < results.size(); ++k) {
        const auto &r = results[k];
        checkSample(result.accounting, r, inputs[k].trace);
        result.accounting.attempt(r.arrived);
        result.accounting.fail("rejected requests", r.rejected);
        result.accounting.fail("unfinished requests", r.unfinished);
        const auto &s = r.latencies.samples();
        latencies.insert(latencies.end(), s.begin(), s.end());
        for (const auto &req : inputs[k].workload)
            counted += req.arrival >= w.experiment.warmupCutoff;
        for (const auto &c : r.perRequest)
            within += c.arrival >= w.experiment.warmupCutoff &&
                      c.latency <= w.sloLimitS;
        usd += r.costUsd;
        tokens += r.tokensGenerated;
    }
    result.digest = passes[0].digest;

    auto &e2e = result.endToEnd;
    e2e["setup_s"] = medianOf(setups);
    std::vector<double> raw_seconds, ref_seconds;
    for (const auto &p : passes) {
        if (options.trace && &p != &passes[0])
            continue;
        raw_seconds.push_back(p.seconds);
        ref_seconds.push_back(p.refSeconds);
    }
    e2e["host_s"] = medianOf(ref_seconds);
    char host[160];
    std::snprintf(host, sizeof host,
                  "median of %zu passes of %d samples (raw %.3f s)",
                  ref_seconds.size(), w.samples, medianOf(raw_seconds));
    result.detail["host_s"] = host;
    e2e["model_latency_p50_s"] = medianOf(latencies);
    result.detail["model_latency_p50_s"] =
        "p50 of n=" + std::to_string(latencies.size());
    putTail(result, e2e, "model_latency_p99_s", tailOf(latencies, 99.0));
    e2e["model_slo_attainment"] =
        counted > 0 ? static_cast<double>(within) / counted : 0.0;
    char slo[64];
    std::snprintf(slo, sizeof slo, "limit %.0f s, n=%ld", w.sloLimitS,
                  counted);
    result.detail["model_slo_attainment"] = slo;
    e2e["model_usd_per_mtok"] = tokens > 0.0 ? usd / tokens * 1e6 : 0.0;

    // replan_tail_ms: the availability changes of sample 0's trace
    // replayed through the planning path on this workload's fleet.
    const auto &trace0 = inputs[0].trace;
    measureReplans(result, gauge, w.spec, trace0.initialCount(),
                   w.replanRate, options.seed, eventsOfTrace(trace0),
                   options.trace ? 1 : w.replanRepeats,
                   options.trace ? &spans : nullptr, true);
    e2e["peak_rss_mb"] = peakRssMb();

    auto &pl = result.perLayer;
    pl["failed_frac"] = result.accounting.failedFrac();
    if (!options.trace)
        return result;

    // Per-layer figures from the traced pass.
    pl["bench.trace_overhead_s"] = passes[1].seconds - passes[0].seconds;
    double callback_s = 0.0, run_s = 0.0;
    long events = 0, schedules = 0, cancels = 0;
    std::vector<double> arrival_us;
    for (const auto &d : traced.decorators) {
        callback_s += d->callbackSeconds();
        run_s += d->runSeconds();
        events += d->callbacks();
        schedules += d->schedules();
        cancels += d->cancels();
        arrival_us.insert(arrival_us.end(), d->arrivalMicros().begin(),
                          d->arrivalMicros().end());
    }
    pl["simcore.events"] = static_cast<double>(events);
    pl["simcore.schedules"] = static_cast<double>(schedules);
    pl["simcore.cancels"] = static_cast<double>(cancels);
    pl["simcore.ns_per_event"] =
        passes[0].events > 0
            ? passes[0].seconds / static_cast<double>(passes[0].events) * 1e9
            : 0.0;
    pl["simcore.loop_self_s"] = run_s - callback_s;
    pl["simcore.callback_s"] = callback_s;
    pl["simcore.driver_lag_ms_p99"] = 0.0;
    double sum_us = 0.0;
    for (double v : arrival_us)
        sum_us += v;
    pl["serving.arrival_host_us_mean"] =
        arrival_us.empty() ? 0.0 : sum_us / arrival_us.size();
    putTail(result, pl, "serving.arrival_host_us_tail",
            tailOf(arrival_us, 99.0));

    long boundaries = 0, kv_n = 0, mid = 0, partial = 0, kept = 0,
         drained = 0;
    double kv_sum = 0.0, stall = 0.0, reused = 0.0, migrated = 0.0;
    std::vector<double> ttft;
    for (const auto &p : traced.probes) {
        boundaries += p.boundaries;
        kv_sum += p.kvUtilSum;
        kv_n += p.kvUtilSamples;
        mid += p.midBatch;
        partial += p.partialReconfigs;
        stall += p.stallS;
        reused += p.bytesReused;
        migrated += p.bytesMigrated;
        kept += p.keptServing;
        drained += p.drained;
        ttft.insert(ttft.end(), p.ttft.begin(), p.ttft.end());
    }
    putTail(result, pl, "model_ttft_p99_s", tailOf(ttft, 99.0));
    putTail(result, pl, "model_itl_p99_s", traced.itl.tail(99.0));

    double tokens_total = 0.0, evicted_s = 0.0, saved_s = 0.0, spot_h = 0.0,
           od_h = 0.0, makespan = 0.0;
    long peak_phys = 0, peak_logical = 0, peak_conc = 0, evictions = 0,
         hits = 0, matched = 0, cow = 0, prefixed = 0, restarted = 0,
         rejected = 0, unfinished = 0, notices = 0, hard = 0, reconfigs = 0,
         migrations = 0, contended = 0, aborts = 0, retries = 0,
         recovered = 0, salvaged = 0, requests = 0;
    for (std::size_t k = 0; k < results.size(); ++k) {
        const auto &r = results[k];
        tokens_total += r.tokensGenerated;
        peak_phys = std::max(peak_phys, r.peakKvPhysicalBlocks);
        peak_logical = std::max(peak_logical, r.peakKvHeldBlocks);
        peak_conc = std::max<long>(peak_conc, r.peakConcurrentRequests);
        evictions += r.evictions;
        evicted_s += r.evictedWorkSeconds;
        hits += r.prefixHits;
        matched += r.prefixMatchedTokens;
        cow += r.cowCopies;
        saved_s += r.savedPrefillSeconds;
        restarted += r.restartedRequeues;
        rejected += r.rejected;
        unfinished += r.unfinished;
        notices += countNotices(inputs[k].trace);
        hard += r.hardPreemptions;
        spot_h += r.spotInstanceHours;
        od_h += r.ondemandInstanceHours;
        reconfigs += static_cast<long>(r.configHistory.size());
        migrations += r.migrationsCompleted;
        makespan += r.migrationMakespanTotal;
        contended += r.contendedMigrations;
        aborts += r.migrationAborts;
        retries += r.migrationRetries;
        recovered += r.requestsRecovered;
        salvaged += r.salvagedBlocks;
        requests += static_cast<long>(inputs[k].workload.size());
        for (const auto &req : inputs[k].workload)
            prefixed += req.prefixId >= 0;
    }
    pl["engine.boundaries"] = static_cast<double>(boundaries);
    pl["engine.tokens"] = tokens_total;
    pl["engine.tokens_per_boundary"] =
        boundaries > 0 ? tokens_total / boundaries : 0.0;
    pl["engine.kv_util_mean"] = kv_n > 0 ? kv_sum / kv_n : 0.0;
    pl["engine.kv_peak_physical_blocks"] = static_cast<double>(peak_phys);
    pl["engine.kv_peak_logical_blocks"] = static_cast<double>(peak_logical);
    pl["engine.peak_concurrency"] = static_cast<double>(peak_conc);
    pl["engine.evictions"] = static_cast<double>(evictions);
    pl["engine.evicted_work_s"] = evicted_s;
    pl["engine.prefix_hit_rate"] =
        prefixed > 0 ? static_cast<double>(hits) / prefixed : 0.0;
    pl["engine.prefix_matched_tokens"] = static_cast<double>(matched);
    pl["engine.cow_copies"] = static_cast<double>(cow);
    pl["engine.saved_prefill_s"] = saved_s;
    pl["serving.mid_batch_admissions"] = static_cast<double>(mid);
    pl["serving.restarted_requeues"] = static_cast<double>(restarted);
    pl["serving.rejected"] = static_cast<double>(rejected);
    pl["serving.unfinished"] = static_cast<double>(unfinished);
    pl["cluster.preempt_notices"] = static_cast<double>(notices);
    pl["cluster.hard_preemptions"] = static_cast<double>(hard);
    pl["cluster.spot_hours"] = spot_h;
    pl["cluster.od_hours"] = od_h;
    // configHistory holds the initial deployment too.
    pl["core.reconfigs"] =
        static_cast<double>(reconfigs - static_cast<long>(results.size()));
    pl["core.partial_reconfigs"] = static_cast<double>(partial);
    pl["core.migrations"] = static_cast<double>(migrations);
    pl["core.migration_makespan_s"] = makespan;
    pl["core.migration_stall_s"] = stall;
    pl["core.reuse_ratio"] =
        reused + migrated > 0.0 ? reused / (reused + migrated) : 0.0;
    pl["core.kept_serving_ratio"] =
        kept + drained > 0
            ? static_cast<double>(kept) / static_cast<double>(kept + drained)
            : 0.0;
    pl["core.contended_migrations"] = static_cast<double>(contended);
    pl["core.migration_aborts"] = static_cast<double>(aborts);
    pl["core.migration_retries"] = static_cast<double>(retries);
    pl["core.requests_recovered"] = static_cast<double>(recovered);
    pl["core.salvaged_blocks"] = static_cast<double>(salvaged);
    pl["workload.requests"] = static_cast<double>(requests);
    pl["workload.gen_s"] = spans.total("workload.gen");
    writeTrace(result, options, spans);
    return result;
}

/**
 * Churn on a fixed cadence: a notice every 60 s (alternately one and two
 * instances, seeded jitter of a few seconds), each replaced 90 s later.
 * The cadence is fixed so run-to-run spread comes from the arrivals.
 */
cluster::AvailabilityTrace
churnTrace(sim::Rng &rng, int fleet, double duration)
{
    using cluster::InstanceType;
    using cluster::TraceEventKind;
    std::vector<cluster::TraceEvent> events{
        {0.0, TraceEventKind::Join, InstanceType::Spot, fleet}};
    int count = 1;
    for (double t = 60.0; t < duration - 60.0; t += 60.0) {
        const double at = t + rng.uniform(-5.0, 5.0);
        events.push_back(
            {at, TraceEventKind::PreemptNotice, InstanceType::Spot, count});
        if (at + 90.0 < duration)
            events.push_back(
                {at + 90.0, TraceEventKind::Join, InstanceType::Spot, count});
        count = 3 - count;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto &a, const auto &b) {
                         return a.time < b.time;
                     });
    return cluster::AvailabilityTrace("fleet-churn", duration, events);
}

} // namespace

Result
runFleetChurn(const RunOptions &options)
{
    constexpr int kFleet = 128;
    constexpr double kRate = 40.0;
    constexpr double kCv = 2.0;
    constexpr double kDuration = 420.0;
    SimWorkload w(model::ModelSpec::opt6_7b());
    w.system.designArrivalRate = kRate;
    w.samples = 8;
    w.sloLimitS = 20.0;
    w.replanRepeats = 9;
    w.replanRate = kRate;
    w.make = [](std::uint64_t seed) {
        sim::Rng rng(seed);
        auto trace = churnTrace(rng, kFleet, kDuration);
        auto workload = wl::stationaryGamma(kRate, kCv, kDuration,
                                            cost::SeqSpec{}, rng);
        return SimInputs{std::move(trace), std::move(workload)};
    };
    return runSimWorkload(w, options);
}

Result
runFewshotHostile(const RunOptions &options)
{
    constexpr double kMafScale = 0.6;
    SimWorkload w(model::ModelSpec::gpt20b());
    w.system.designArrivalRate = 0.55;
    w.samples = 384;
    w.gaugeEvery = 16;
    w.sloLimitS = 120.0;
    w.replanRepeats = 20;
    w.replanRate = 0.55;
    w.make = [](std::uint64_t seed) {
        sim::Rng rng(seed);
        auto trace = cluster::hardenPreemptions(cluster::traceFig8B(), 0.5,
                                                seed);
        const auto maf = wl::MafTrace::fig8Segment();
        auto workload = wl::fluctuating(
            [&maf](sim::SimTime t) { return kMafScale * maf.rateAt(t); },
            6.0, trace.duration(), cost::SeqSpec{}, rng);
        wl::withFewShotPrefixes(workload, 4, 768, rng);
        return SimInputs{std::move(trace), std::move(workload)};
    };
    return runSimWorkload(w, options);
}

} // namespace perfbench
