/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot algorithmic paths:
 * Kuhn-Munkres matching, the configuration optimizer, the migration
 * planner, and the discrete-event core.  The paper claims the online
 * optimizer overhead is negligible (<1 s); these benches verify our
 * implementation is comfortably inside that budget.
 *
 * `--json PATH` switches to the planning-path wall-clock harness: it
 * times the chooseConfig sweep (cold vs memoised), the device mapper
 * (full Hungarian solve vs identity fast path), the migration planner,
 * the link schedule and the full replan pass (mapper + planner + link
 * schedule) at 32 to 512 instances and writes a machine-readable
 * summary, which CI archives to seed the perf trajectory.  The memoised
 * sweep must stay >= 2x faster than the cold sweep at 128 instances, and
 * the full replan pass at 512 instances must fit in 250 ms.  It also
 * reports, without a gate, the Kuhn-Munkres solve alone on a tie-heavy
 * 396 x 512 matrix with the structure of the mapper's at the
 * 512-instance reshape, and one reconfiguration at the few-shot
 * scenario's scale (GPT-20B on 10 instances): device mapper, migration
 * planner, data-plane preview and submit, in microseconds per
 * reconfiguration.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "core/controller.h"
#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "core/transfer_data_plane.h"
#include "costmodel/link_schedule.h"
#include "matching/hungarian.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"

using namespace spotserve;

namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();
const cost::SeqSpec kSeq{};

void
BM_KuhnMunkres(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::Rng rng(42);
    match::Matrix w(n, std::vector<double>(n));
    for (auto &row : w) {
        for (auto &v : row)
            v = rng.uniform(0.0, 1e9);
    }
    for (auto _ : state) {
        auto a = match::maxWeightAssignment(w);
        benchmark::DoNotOptimize(a.totalWeight);
    }
}
BENCHMARK(BM_KuhnMunkres)->Arg(8)->Arg(16)->Arg(32)->Arg(48)->Arg(64);

/**
 * The device mapper's inter-instance matrix at fleet-replan's 512 -> 512
 * reshape (GPT-20B, target D=99 P=2 M=8), rebuilt from its structure:
 * 512 instances x 396 slots, four per target replica, the solver running
 * on the 396 x 512 transpose.  Instances come in triples: one reuses the
 * front two slots of every replica, one the back two, one all four at
 * two weights; the first 99 triples carry a 2.21% bonus on their own
 * replica's slots, and two instances hold nothing.  That gives 9 distinct weights,
 * 301 distinct instance rows and 198 distinct slot columns, and the same
 * 33,819 Dijkstra steps as the mapper's own matrix: a tie-heavy solve,
 * unlike BM_KuhnMunkres's random matrices.
 */
match::Matrix
mapperShapedMatrix()
{
    constexpr int kInstances = 512, kSlots = 396, kTriples = 170;
    constexpr int kBonusTriples = 99;
    constexpr double kFront = 6.8182e9, kBack = 6.3636e9;
    constexpr double kAllFront = 3.1818e9, kAllBack = 3.6364e9;
    constexpr double kBonus = 1.0221;
    match::Matrix w(kInstances, std::vector<double>(kSlots, 0.0));
    for (int k = 0; k < kTriples; ++k) {
        for (int s = 0; s < kSlots; ++s) {
            const bool front = s % 4 < 2;
            const double x = k < kBonusTriples && s / 4 == k ? kBonus : 1.0;
            w[3 * k][s] = front ? kFront * x : 0.0;
            w[3 * k + 1][s] = (front ? kAllFront : kAllBack) * x;
            w[3 * k + 2][s] = front ? 0.0 : kBack * x;
        }
    }
    return w;
}

void
BM_KuhnMunkresMapperShaped(benchmark::State &state)
{
    const auto w = mapperShapedMatrix();
    for (auto _ : state) {
        auto a = match::maxWeightAssignment(w);
        benchmark::DoNotOptimize(a.totalWeight);
    }
}
BENCHMARK(BM_KuhnMunkresMapperShaped)->Unit(benchmark::kMillisecond);

void
BM_ConfigOptimizer(benchmark::State &state)
{
    const auto spec = model::ModelSpec::gpt20b();
    core::ParallelizationController ctrl(spec, kParams, kSeq);
    const int instances = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto d = ctrl.chooseConfig(instances, 0.35);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_ConfigOptimizer)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

struct MapperSetup
{
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    core::DeviceMapper mapper{spec, kParams};
    core::MigrationPlanner planner{spec, kParams};
    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;
    engine::ContextSnapshot snapshot;

    explicit MapperSetup(int n)
    {
        for (int i = 0; i < n; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, 4, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
        par::ParallelConfig old_cfg{2, 2, 8, 8};
        par::Topology topo(old_cfg, spec.numLayers());
        for (int i = 0; i < topo.size() && i < n * 4; ++i) {
            engine::GpuContext ctx;
            ctx.gpu = i;
            ctx.instance = i / 4;
            ctx.hasModelContext = true;
            ctx.config = old_cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = 5000.0;
            snapshot.gpus.push_back(ctx);
        }
    }
};

void
BM_DeviceMapper(benchmark::State &state)
{
    MapperSetup setup(static_cast<int>(state.range(0)));
    par::ParallelConfig target{2, 3, 4, 8};
    for (auto _ : state) {
        auto m = setup.mapper.map(setup.snapshot, target, setup.instances,
                                  {5000.0, 5000.0});
        benchmark::DoNotOptimize(m.reusedModelBytes);
    }
}
BENCHMARK(BM_DeviceMapper)->Arg(8)->Arg(12)->Arg(16);

void
BM_MigrationPlanner(benchmark::State &state)
{
    MapperSetup setup(8);
    par::ParallelConfig target{2, 3, 4, 8};
    const auto mapping = setup.mapper.map(setup.snapshot, target,
                                          setup.instances, {5000.0, 5000.0});
    for (auto _ : state) {
        auto plan = setup.planner.plan(setup.snapshot, mapping, target,
                                       {5000.0, 5000.0});
        benchmark::DoNotOptimize(plan.totalDuration);
    }
}
BENCHMARK(BM_MigrationPlanner);

void
BM_EventQueueThroughput(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        long fired = 0;
        for (int i = 0; i < n; ++i) {
            sim.schedule(static_cast<double>(i % 100),
                         [&fired] { ++fired; });
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------------------
// Planning-path wall-clock harness (--json PATH).
// ---------------------------------------------------------------------

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Fleet-filling configs: old (P=2, M=8), target (P=3, M=4). */
par::ParallelConfig
fillingConfig(int instances, int pp, int tp)
{
    const int gpus = instances * 4;
    return par::ParallelConfig{std::max(1, gpus / (pp * tp)), pp, tp, 8};
}

struct PlanningRow
{
    int instances = 0;
    std::size_t candidates = 0;
    double chooseColdSec = 0.0;
    double chooseWarmSec = 0.0;
    double mapperFullSec = 0.0;
    double mapperIdentitySec = 0.0;
    double plannerSec = 0.0;
    /** Migration makespans (simulated seconds) for the same plan. @{ */
    double serializedMakespan = 0.0;
    double interleavedMakespan = 0.0;
    /** @} */
    /** Wall-clock cost of building the link schedule itself. */
    double linkScheduleSec = 0.0;
    /**
     * One full replan pass over the reshape: device mapper, migration
     * planner and link schedule back to back, best of kPassReps.
     */
    double fullPassSec = 0.0;
};

constexpr int kPassReps = 3;
/** Wall-clock budget of one full replan pass at 512 instances. */
constexpr double kFullPassBudgetSec = 0.250;

PlanningRow
timePlanningPath(int instances)
{
    PlanningRow row;
    row.instances = instances;
    const auto spec = model::ModelSpec::gpt20b();
    const double rate = 0.35;

    // chooseConfig: cold = fresh controller's first sweep (averaged over
    // a few controllers); warm = repeated sweeps on the same controller,
    // same fleet and alpha bucket — the memoised path.
    {
        const int cold_reps = 3;
        double cold = 0.0;
        for (int k = 0; k < cold_reps; ++k) {
            core::ParallelizationController ctrl(spec, kParams, kSeq);
            const auto t0 = std::chrono::steady_clock::now();
            auto d = ctrl.chooseConfig(instances, rate);
            cold += secondsSince(t0);
            benchmark::DoNotOptimize(d);
            row.candidates = ctrl.lastSweepStats().candidates;
        }
        row.chooseColdSec = cold / cold_reps;

        core::ParallelizationController ctrl(spec, kParams, kSeq);
        auto warmup = ctrl.chooseConfig(instances, rate);
        benchmark::DoNotOptimize(warmup);
        const int warm_reps = 50;
        const auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < warm_reps; ++k) {
            auto d = ctrl.chooseConfig(instances, rate);
            benchmark::DoNotOptimize(d);
        }
        row.chooseWarmSec = secondsSince(t0) / warm_reps;
    }

    // Device mapper: an old (P=2, M=8) deployment filling the fleet is
    // remapped to (P=3, M=4) (full two-step Hungarian solve), and to
    // itself (identity fast path).
    MapperSetup setup(instances);
    const par::ParallelConfig old_cfg = fillingConfig(instances, 2, 8);
    {
        // Rebuild the snapshot at fleet scale (MapperSetup's default old
        // deployment is testbed-sized).
        setup.snapshot.gpus.clear();
        par::Topology topo(old_cfg, setup.spec.numLayers());
        for (int i = 0; i < topo.size() && i < instances * 4; ++i) {
            engine::GpuContext ctx;
            ctx.gpu = i;
            ctx.instance = i / 4;
            ctx.hasModelContext = true;
            ctx.config = old_cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = 5000.0;
            setup.snapshot.gpus.push_back(ctx);
        }
    }
    const std::vector<double> tokens(old_cfg.dp, 5000.0);
    const par::ParallelConfig target = fillingConfig(instances, 3, 4);
    {
        const auto t0 = std::chrono::steady_clock::now();
        auto m = setup.mapper.map(setup.snapshot, target, setup.instances,
                                  tokens);
        row.mapperFullSec = secondsSince(t0);
        benchmark::DoNotOptimize(m.reusedModelBytes);
    }
    {
        const auto t0 = std::chrono::steady_clock::now();
        auto m = setup.mapper.map(setup.snapshot, old_cfg, setup.instances,
                                  tokens);
        row.mapperIdentitySec = secondsSince(t0);
        benchmark::DoNotOptimize(m.reusedModelBytes);
    }

    // Migration planner over the full-solve mapping, and the link
    // scheduler on the resulting plan: serialized-cursor makespan vs the
    // interleaved link-level schedule (ISSUE 7 data plane), plus the
    // wall-clock cost of building the schedule itself.
    {
        const auto mapping =
            setup.mapper.map(setup.snapshot, target, setup.instances, tokens);
        const auto t0 = std::chrono::steady_clock::now();
        auto plan =
            setup.planner.plan(setup.snapshot, mapping, target, tokens);
        row.plannerSec = secondsSince(t0);
        row.serializedMakespan = plan.serializedDuration;
        row.interleavedMakespan = plan.totalDuration;

        const auto steps = core::MigrationPlanner::transferSteps(plan);
        cost::LinkSchedule scheduler(kParams);
        cost::LinkScheduleOptions lopts;
        lopts.setupTime = kParams.migrationSetupTime;
        const auto t1 = std::chrono::steady_clock::now();
        auto schedule = scheduler.build(steps, lopts);
        row.linkScheduleSec = secondsSince(t1);
        benchmark::DoNotOptimize(schedule.makespan);

        row.fullPassSec = std::numeric_limits<double>::infinity();
        for (int k = 0; k < kPassReps; ++k) {
            const auto t2 = std::chrono::steady_clock::now();
            const auto m = setup.mapper.map(setup.snapshot, target,
                                            setup.instances, tokens);
            const auto p = setup.planner.plan(setup.snapshot, m, target,
                                              tokens);
            const auto sched = scheduler.build(
                core::MigrationPlanner::transferSteps(p), lopts);
            row.fullPassSec = std::min(row.fullPassSec, secondsSince(t2));
            benchmark::DoNotOptimize(sched.makespan);
        }
    }
    return row;
}

/** Per-stage wall clock of one reconfiguration, microseconds. */
struct ReconfigRow
{
    int instances = 0;
    int reps = 0;
    double mapUs = 0.0;
    double planUs = 0.0;
    double previewUs = 0.0;
    double submitUs = 0.0;
    double totalUs() const { return mapUs + planUs + previewUs + submitUs; }
};

/**
 * One reconfiguration at the few-shot scenario's scale, the path
 * SpotServeSystem runs per preemption when the arranger keeps the cache
 * (the common case): map, plan, quote against the data plane, commit
 * the quote.
 * GPT-20B on 10 four-GPU instances: instances 0-5 hold (D=2, P=3, M=4)
 * with in-flight cache on both replicas, instances 6-9 an older
 * (D=1, P=2, M=8); the target (D=5, P=2, M=4) uses all 10.  The data
 * plane is drained between reconfigurations, so each is quoted against
 * idle links.  Means over the repetitions.
 */
ReconfigRow
timeReconfiguration()
{
    constexpr int kInstances = 10;
    constexpr int kReps = 2000;
    const auto spec = model::ModelSpec::gpt20b();
    MapperSetup setup(kInstances);
    const par::ParallelConfig cfg_a{2, 3, 4, 8};
    const par::ParallelConfig cfg_b{1, 2, 8, 8};
    const par::ParallelConfig target{5, 2, 4, 8};
    const std::vector<double> tokens{900.0, 1400.0};
    setup.snapshot.gpus.clear();
    const par::Topology topo_a(cfg_a, spec.numLayers());
    for (int i = 0; i < topo_a.size(); ++i) {
        engine::GpuContext ctx;
        ctx.gpu = i;
        ctx.instance = i / 4;
        ctx.hasModelContext = true;
        ctx.config = cfg_a;
        ctx.position = topo_a.position(i);
        ctx.cacheTokens = tokens[static_cast<std::size_t>(ctx.position.d)];
        setup.snapshot.gpus.push_back(ctx);
    }
    const par::Topology topo_b(cfg_b, spec.numLayers());
    for (int i = 0; i < topo_b.size(); ++i) {
        engine::GpuContext ctx;
        ctx.gpu = 24 + i;
        ctx.instance = 6 + i / 4;
        ctx.hasModelContext = true;
        ctx.config = cfg_b;
        ctx.position = topo_b.position(i);
        setup.snapshot.gpus.push_back(ctx);
    }

    sim::Simulation sim;
    core::TransferDataPlane plane(sim, kParams);
    ReconfigRow row;
    row.instances = kInstances;
    row.reps = kReps;
    for (int k = 0; k < kReps; ++k) {
        auto t0 = std::chrono::steady_clock::now();
        auto mapping = setup.mapper.map(setup.snapshot, target,
                                        setup.instances, tokens);
        row.mapUs += secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        auto plan =
            setup.planner.plan(setup.snapshot, mapping, target, tokens);
        row.planUs += secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        auto quote = plane.preview(core::MigrationPlanner::transferSteps(plan),
                                   kParams.migrationSetupTime,
                                   plan.linkScheduled);
        row.previewUs += secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        const auto committed = plane.submit(std::move(quote), {});
        row.submitUs += secondsSince(t0);
        benchmark::DoNotOptimize(committed.makespan);
        sim.run();
    }
    for (double *us :
         {&row.mapUs, &row.planUs, &row.previewUs, &row.submitUs})
        *us *= 1e6 / kReps;
    return row;
}

int
runPlanningHarness(const std::string &json_path)
{
    std::printf("=== planning-path wall clock (chooseConfig / mapper / "
                "planner) ===\n");
    std::vector<PlanningRow> rows;
    for (int n : {32, 64, 128, 256, 512})
        rows.push_back(timePlanningPath(n));
    const PlanningRow &at128 = rows[2];
    const PlanningRow &at512 = rows[4];

    for (const auto &r : rows) {
        std::printf("  n=%3d  candidates=%5zu  chooseConfig cold %8.3f ms  "
                    "memoised %8.3f ms (%.1fx)  mapper full %8.3f ms  "
                    "identity %8.3f ms  planner %8.3f ms\n",
                    r.instances, r.candidates, r.chooseColdSec * 1e3,
                    r.chooseWarmSec * 1e3,
                    r.chooseWarmSec > 0.0 ? r.chooseColdSec / r.chooseWarmSec
                                          : 0.0,
                    r.mapperFullSec * 1e3, r.mapperIdentitySec * 1e3,
                    r.plannerSec * 1e3);
        std::printf("         migration makespan serialized %8.3f s  "
                    "interleaved %8.3f s (%.2fx)  schedule build %8.3f ms  "
                    "full pass %8.3f ms\n",
                    r.serializedMakespan, r.interleavedMakespan,
                    r.interleavedMakespan > 0.0
                        ? r.serializedMakespan / r.interleavedMakespan
                        : 0.0,
                    r.linkScheduleSec * 1e3, r.fullPassSec * 1e3);
    }

    // The Kuhn-Munkres solve on its own, on the mapper-shaped matrix:
    // best of kPassReps, report only.
    double km_sec = std::numeric_limits<double>::infinity();
    {
        const auto w = mapperShapedMatrix();
        for (int k = 0; k < kPassReps; ++k) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto a = match::maxWeightAssignment(w);
            km_sec = std::min(km_sec, secondsSince(t0));
            benchmark::DoNotOptimize(a.totalWeight);
        }
    }
    std::printf("  kuhn-munkres 396x512 mapper-shaped solve (best of %d, "
                "report only): %.3f ms\n",
                kPassReps, km_sec * 1e3);

    const ReconfigRow reconfig = timeReconfiguration();
    std::printf("  reconfiguration at %d instances (mean of %d, report "
                "only): map %.1f us  plan %.1f us  preview %.1f us  "
                "submit %.1f us  total %.1f us\n",
                reconfig.instances, reconfig.reps, reconfig.mapUs,
                reconfig.planUs, reconfig.previewUs, reconfig.submitUs,
                reconfig.totalUs());

    std::ofstream os(json_path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        const double speedup =
            r.chooseWarmSec > 0.0 ? r.chooseColdSec / r.chooseWarmSec : 0.0;
        os << "  {\"instances\": " << r.instances
           << ", \"candidates\": " << r.candidates
           << ", \"choose_config_cold_s\": " << r.chooseColdSec
           << ", \"choose_config_memoised_s\": " << r.chooseWarmSec
           << ", \"choose_config_speedup\": " << speedup
           << ", \"mapper_full_s\": " << r.mapperFullSec
           << ", \"mapper_identity_s\": " << r.mapperIdentitySec
           << ", \"planner_s\": " << r.plannerSec
           << ", \"migration_serialized_makespan_s\": "
           << r.serializedMakespan
           << ", \"migration_interleaved_makespan_s\": "
           << r.interleavedMakespan
           << ", \"link_schedule_build_s\": " << r.linkScheduleSec
           << ", \"full_pass_s\": " << r.fullPassSec << "},\n";
    }
    os << "  {\"kuhn_munkres_rows\": 396, \"kuhn_munkres_cols\": 512"
       << ", \"kuhn_munkres_mapper_shaped_s\": " << km_sec << "},\n";
    os << "  {\"reconfig_instances\": " << reconfig.instances
       << ", \"reconfig_map_us\": " << reconfig.mapUs
       << ", \"reconfig_plan_us\": " << reconfig.planUs
       << ", \"reconfig_preview_us\": " << reconfig.previewUs
       << ", \"reconfig_submit_us\": " << reconfig.submitUs
       << ", \"reconfig_total_us\": " << reconfig.totalUs() << "}\n";
    os << "]\n";
    std::printf("wrote %zu planning rows, the Kuhn-Munkres row and the "
                "reconfiguration row to %s\n",
                rows.size(), json_path.c_str());

    // The acceptance bar CI watches: memoisation must pay off at scale.
    if (at128.chooseWarmSec * 2.0 > at128.chooseColdSec) {
        std::fprintf(stderr,
                     "FAIL: memoised sweep at %d instances is only %.2fx "
                     "faster than cold (need >= 2x)\n",
                     at128.instances,
                     at128.chooseWarmSec > 0.0
                         ? at128.chooseColdSec / at128.chooseWarmSec
                         : 0.0);
        return 1;
    }
    // Second bar: the interleaved link-level schedule must never be
    // slower than the serialized cursor it replaces (the planner falls
    // back to the serialized timing otherwise, so a violation means the
    // fallback broke).
    for (const auto &r : rows) {
        if (r.interleavedMakespan > r.serializedMakespan + 1e-9) {
            std::fprintf(stderr,
                         "FAIL: interleaved migration makespan %.6f s "
                         "exceeds serialized cursor %.6f s at %d "
                         "instances\n",
                         r.interleavedMakespan, r.serializedMakespan,
                         r.instances);
            return 1;
        }
    }
    // Third bar: the grace-window planning budget.  One full replan pass
    // (mapper, planner, link schedule) at 512 instances must finish in
    // kFullPassBudgetSec of wall time.
    if (at512.fullPassSec > kFullPassBudgetSec) {
        std::fprintf(stderr,
                     "FAIL: full replan pass at %d instances took %.1f ms "
                     "(budget %.0f ms)\n",
                     at512.instances, at512.fullPassSec * 1e3,
                     kFullPassBudgetSec * 1e3);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[i + 1];
    }
    if (!json_path.empty())
        return runPlanningHarness(json_path);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
