/**
 * @file
 * The harness's own tests: the percentile rule, failure accounting, and
 * that the tracing decorator leaves a simulation's timeline untouched.
 * Exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "serving/presets.h"
#include "simcore/simulation.h"
#include "stats.h"
#include "tracing.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i)
        v.push_back(i);
    return v;
}

void
percentileRule()
{
    // 1000 samples: p99 is the 990th value and leaves exactly 10 beyond.
    auto t = tailOf(oneTo(1000), 99.0);
    expect(t.percentile == 99.0 && t.value == 990.0 && t.samples == 1000,
           "p99 of 1000 samples");
    // 999 samples leave only 9 beyond p99: fall back to p95.
    t = tailOf(oneTo(999), 99.0);
    expect(t.percentile == 95.0 && t.value == 950.0, "p95 fallback at 999");
    // The nominal percentile caps the ladder: no p99.9 for a p99 metric.
    t = tailOf(oneTo(100000), 99.0);
    expect(t.percentile == 99.0 && t.value == 99000.0, "p99 cap");
    t = tailOf(oneTo(100000), 99.9);
    expect(t.percentile == 99.9 && t.value == 99900.0, "p99.9 when named");
    // Below 20 samples no rung has 10 beyond it: the median.
    t = tailOf(oneTo(19), 99.0);
    expect(t.percentile == 50.0 && t.value == 10.0, "median below 20");
    expect(tailOf({}, 99.0).samples == 0, "empty sample");
    expect(samplesBeyond(1000, 99.0) == 10, "samples beyond p99 of 1000");
    expect(medianOf({3.0, 1.0, 2.0}) == 2.0, "median of three");

    // The histogram agrees within its bin resolution.
    LogHistogram h;
    for (double x : oneTo(1000))
        h.add(x * 1e-3);
    const auto ht = h.tail(99.0);
    expect(ht.percentile == 99.0 && std::abs(ht.value - 0.990) < 0.002 &&
               h.count() == 1000,
           "histogram p99");
    h.add(0.0);
    expect(h.percentile(0.05) == 0.0, "zero lands in the zero bin");
}

void
failureAccounting()
{
    Accounting acct;
    acct.attempt(100);
    acct.fail("rejected", 3);
    acct.fail("unfinished", 0);
    expect(acct.failed() == 3 && acct.reasons().size() == 1,
           "zero failures record nothing");
    expect(std::abs(acct.failedFrac() - 0.03) < 1e-12, "failed fraction");
    expect(!acct.correct(), "failed operations make the run incorrect");
    acct.check(true, "holds");
    expect(acct.failed() == 3, "a passing check counts nothing");
    acct.check(false, "conservation");
    expect(acct.failed() == 4 && !acct.correct(),
           "a failed check counts as a failed operation");
    Accounting clean;
    clean.attempt(5);
    expect(clean.correct() && clean.failedFrac() == 0.0, "clean run");
}

void
decoratorDeterminism()
{
    using namespace spotserve;
    const auto spec = model::ModelSpec::opt6_7b();
    const auto params = cost::CostParams::awsG4dn();
    const cost::SeqSpec seq{};
    const cluster::AvailabilityTrace trace(
        "selftest", 240.0,
        {{0.0, cluster::TraceEventKind::Join, cluster::InstanceType::Spot, 6},
         {100.0, cluster::TraceEventKind::PreemptNotice,
          cluster::InstanceType::Spot, 1}});
    sim::Rng rng(5);
    const auto workload = wl::stationaryGamma(2.0, 6.0, 240.0, seq, rng);
    core::SpotServeOptions options;
    options.designArrivalRate = 2.0;
    const auto factory = presets::spotServeFactory(spec, params, seq, options);

    sim::Simulation bare;
    const auto a = serving::runExperimentOn(bare, spec, params, trace,
                                            workload, factory);
    sim::Simulation inner;
    SpanRecorder spans;
    TracingExecutor deco(inner, &spans);
    deco.expectTrailingArrivals(static_cast<long>(workload.size()));
    bool hook_ran = false;
    deco.setRunEndHook([&hook_ran] { hook_ran = true; });
    const auto b = serving::runExperimentOn(deco, spec, params, trace,
                                            workload, factory);

    expect(a.completed > 0, "the experiment served requests");
    expect(a.latencies.samples() == b.latencies.samples(),
           "decorated latencies are bit-identical");
    expect(a.configHistory.size() == b.configHistory.size() &&
               a.costUsd == b.costUsd && a.tokensGenerated == b.tokensGenerated,
           "decorated config history and cost are identical");
    expect(bare.eventsFired() == inner.eventsFired(),
           "decorated run fires the same events");
    expect(static_cast<std::uint64_t>(deco.callbacks()) ==
               inner.eventsFired(),
           "every fired event went through the decorator");
    expect(deco.arrivalMicros().size() == workload.size(),
           "every arrival callback was classified");
    expect(spans.durations("serving.arrival").size() == workload.size(),
           "one arrival span per request");
    expect(hook_ran, "run-end hook ran");
    expect(deco.runSeconds() >= deco.callbackSeconds(),
           "callback time is part of run time");
    expect(deco.lagMillis().empty(), "simulated events fire on time");
}

} // namespace

int
main()
{
    percentileRule();
    failureAccounting();
    decoratorDeterminism();
    if (failures == 0)
        std::printf("perfbench selftest: all passed\n");
    return failures == 0 ? 0 : 1;
}
