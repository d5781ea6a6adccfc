/**
 * @file
 * Tests for the migration planner (Algorithm 2, §3.4).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "fleet_scale_scenario.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

class PlannerFixture : public ::testing::Test
{
  protected:
    model::ModelSpec spec = model::ModelSpec::gpt20b();
    DeviceMapper mapper{spec, kParams};
    MigrationPlanner planner{spec, kParams};

    std::vector<std::unique_ptr<cluster::Instance>> storage;
    std::vector<const cluster::Instance *> instances;

    void
    makeInstances(int n)
    {
        storage.clear();
        instances.clear();
        for (int i = 0; i < n; ++i) {
            storage.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, 4, 0.0));
            storage.back()->markRunning(0.0);
            instances.push_back(storage.back().get());
        }
    }

    engine::ContextSnapshot
    packedSnapshot(const par::ParallelConfig &cfg, double cache_tokens = 0.0)
    {
        engine::ContextSnapshot snap;
        par::Topology topo(cfg, spec.numLayers());
        for (int i = 0; i < topo.size(); ++i) {
            engine::GpuContext ctx;
            ctx.gpu = i;
            ctx.instance = i / 4;
            ctx.hasModelContext = true;
            ctx.config = cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = cache_tokens;
            snap.gpus.push_back(ctx);
        }
        return snap;
    }
};

TEST_F(PlannerFixture, IdentityMigrationIsNearlyFree)
{
    par::ParallelConfig cfg{2, 2, 8, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(cfg);
    const auto mapping = mapper.map(snap, cfg, instances, {0.0, 0.0});
    const auto plan = planner.plan(snap, mapping, cfg, {0.0, 0.0});
    EXPECT_NEAR(plan.movedModelBytes, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0);
    EXPECT_LE(plan.totalDuration, kParams.migrationSetupTime + 1e-9);
}

TEST_F(PlannerFixture, ColdStartLoadsEverythingFromDisk)
{
    par::ParallelConfig cfg{1, 2, 8, 8};
    makeInstances(4);
    const auto mapping =
        mapper.map(engine::ContextSnapshot{}, cfg, instances, {});
    const auto plan =
        planner.plan(engine::ContextSnapshot{}, mapping, cfg, {});
    EXPECT_NEAR(plan.coldLoadBytes, spec.totalWeightBytes(),
                spec.totalWeightBytes() * 1e-9);
    EXPECT_DOUBLE_EQ(plan.movedModelBytes, plan.coldLoadBytes);
    // Per-instance disk loads run concurrently: the duration tracks the
    // per-instance bytes (W/4 per instance at 1 GB/s), not the total.
    const double per_instance = spec.totalWeightBytes() / 4.0;
    EXPECT_NEAR(plan.totalDuration,
                kParams.migrationSetupTime +
                    per_instance / kParams.diskBandwidth,
                2.0);
}

TEST_F(PlannerFixture, ByteConservation)
{
    // Re-parallelize (2,2,8) -> (2,3,4) on the same 8 instances: every
    // needed byte is either reused in place or moved.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {0.0, 0.0});
    EXPECT_NEAR(plan.reusedBytes + plan.movedModelBytes,
                mapping.neededModelBytes, mapping.neededModelBytes * 1e-6);
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0);
    EXPECT_GT(plan.reusedBytes, 0.0);
    EXPECT_GT(plan.movedModelBytes, 0.0);
}

TEST_F(PlannerFixture, CacheStepComesFirst)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 5000.0);
    const auto mapping =
        mapper.map(snap, new_cfg, instances, {5000.0, 5000.0});
    const auto plan =
        planner.plan(snap, mapping, new_cfg, {5000.0, 5000.0});
    ASSERT_FALSE(plan.steps.empty());
    EXPECT_TRUE(plan.cacheMigrated);
    EXPECT_TRUE(plan.steps.front().isCache());
    EXPECT_GT(plan.movedCacheBytes, 0.0);
    for (std::size_t i = 1; i < plan.steps.size(); ++i)
        EXPECT_FALSE(plan.steps[i].isCache());
}

TEST_F(PlannerFixture, MigrateCacheFalseDropsCacheStep)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 5000.0);
    const auto mapping =
        mapper.map(snap, new_cfg, instances, {5000.0, 5000.0});
    PlannerOptions opts;
    opts.migrateCache = false;
    const auto plan =
        planner.plan(snap, mapping, new_cfg, {5000.0, 5000.0}, opts);
    EXPECT_FALSE(plan.cacheMigrated);
    EXPECT_DOUBLE_EQ(plan.movedCacheBytes, 0.0);
    for (const auto &s : plan.steps)
        EXPECT_FALSE(s.isCache());
}

TEST_F(PlannerFixture, ProgressiveResumeBeatsBlocking)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});

    PlannerOptions progressive;
    const auto p1 = planner.plan(snap, mapping, new_cfg, {0.0, 0.0},
                                 progressive);
    PlannerOptions blocking;
    blocking.progressive = false;
    const auto p2 =
        planner.plan(snap, mapping, new_cfg, {0.0, 0.0}, blocking);

    // Progressive resume never waits longer than blocking; the *strict*
    // win shows on replicas whose context is reused in place (see
    // UntouchedReplicaResumesImmediately) — when the memory-optimised
    // order defers a front-stage layer to the end, a fully re-sharded
    // replica can only start when everything has arrived.
    EXPECT_LE(p1.resumeOffset, p2.resumeOffset + 1e-12);
    EXPECT_DOUBLE_EQ(p2.resumeOffset, p2.totalDuration);
    EXPECT_LE(p1.resumeOffset, p1.totalDuration + 1e-12);
    for (double r : p1.pipelineResume)
        EXPECT_LE(r, p1.totalDuration + 1e-12);
}

TEST_F(PlannerFixture, UntouchedReplicaResumesImmediately)
{
    // One replica keeps its context in place; the other is rebuilt on
    // four fresh instances.  The warm replica's resume must be ~setup
    // time only.
    par::ParallelConfig cfg{2, 2, 8, 8};
    makeInstances(12);
    auto snap = packedSnapshot(cfg);
    // Drop replica 0's holdings (instances 0-3) as if those were lost.
    engine::ContextSnapshot partial;
    for (const auto &g : snap.gpus) {
        if (g.instance >= 4)
            partial.gpus.push_back(g);
    }
    // Survivors: warm instances 4..7 plus fresh instances 8..11.
    std::vector<const cluster::Instance *> survivors(instances.begin() + 4,
                                                     instances.end());
    const auto mapping = mapper.map(partial, cfg, survivors, {0.0, 0.0});
    const auto plan = planner.plan(partial, mapping, cfg, {0.0, 0.0});
    ASSERT_EQ(plan.pipelineResume.size(), 2u);
    const double fast =
        std::min(plan.pipelineResume[0], plan.pipelineResume[1]);
    const double slow =
        std::max(plan.pipelineResume[0], plan.pipelineResume[1]);
    EXPECT_NEAR(fast, kParams.migrationSetupTime, 1e-6);
    EXPECT_GT(slow, fast);
}

TEST_F(PlannerFixture, MemoryOptRespectsUmaxWhenPossible)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});

    PlannerOptions opt;
    const auto optimised = planner.plan(snap, mapping, new_cfg, {0.0, 0.0},
                                        opt);
    PlannerOptions naive;
    naive.memoryOpt = false;
    const auto plain =
        planner.plan(snap, mapping, new_cfg, {0.0, 0.0}, naive);

    EXPECT_LE(optimised.peakBufferBytes, plain.peakBufferBytes + 1.0);
    // Both plans carry every layer exactly once.
    std::set<int> layers_a, layers_b;
    for (const auto &s : optimised.steps) {
        if (!s.isCache())
            layers_a.insert(s.layer);
    }
    for (const auto &s : plain.steps) {
        if (!s.isCache())
            layers_b.insert(s.layer);
    }
    EXPECT_EQ(layers_a.size(), static_cast<std::size_t>(spec.numLayers()));
    EXPECT_EQ(layers_a, layers_b);
    EXPECT_NEAR(optimised.movedModelBytes, plain.movedModelBytes, 1.0);
}

TEST_F(PlannerFixture, StageReadyWithinTotal)
{
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    const auto mapping = mapper.map(snap, new_cfg, instances, {0.0, 0.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {0.0, 0.0});
    ASSERT_EQ(plan.stageReady.size(), 3u);
    for (double r : plan.stageReady) {
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, plan.totalDuration + 1e-9);
    }
    // Step durations sum to the total.
    double sum = kParams.migrationSetupTime;
    for (const auto &s : plan.steps)
        sum += s.duration;
    EXPECT_NEAR(sum, plan.totalDuration, 1e-6);
}

TEST_F(PlannerFixture, ScaleInFindsPeerSources)
{
    // (2,2,8) on 8 instances -> (1,2,8) on 4 survivors: the survivors
    // hold replica-0 or replica-1 context; all needs are servable from
    // peers, nothing from disk.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{1, 2, 8, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg);
    std::vector<const cluster::Instance *> survivors(instances.begin(),
                                                     instances.begin() + 4);
    engine::ContextSnapshot partial;
    for (const auto &g : snap.gpus) {
        if (g.instance < 4)
            partial.gpus.push_back(g);
    }
    const auto mapping = mapper.map(partial, new_cfg, survivors, {0.0});
    const auto plan = planner.plan(partial, mapping, new_cfg, {0.0});
    EXPECT_DOUBLE_EQ(plan.coldLoadBytes, 0.0);
    // Identity on the survivors: nothing moves either.
    EXPECT_NEAR(plan.movedModelBytes, 0.0, 1.0);
}

TEST_F(PlannerFixture, StepEventScheduleIsConsistent)
{
    // Serialized-cursor ablation (linkSchedule off): the per-step event
    // schedule (startOffset/finishOffset) must agree with the legacy
    // duration chain — wire starts serialize, finishes are monotone,
    // stageReady matches the latest finishing step of each stage, and
    // durations telescope to totalDuration.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});
    PlannerOptions serialized;
    serialized.linkSchedule = false;
    const auto plan =
        planner.plan(snap, mapping, new_cfg, {600.0, 600.0}, serialized);
    ASSERT_FALSE(plan.steps.empty());
    EXPECT_FALSE(plan.linkScheduled);
    EXPECT_DOUBLE_EQ(plan.serializedDuration, plan.totalDuration);

    double prev_start = kParams.migrationSetupTime;
    double prev_finish = kParams.migrationSetupTime;
    double sum = kParams.migrationSetupTime;
    std::vector<double> stage_latest(new_cfg.pp, kParams.migrationSetupTime);
    const par::Topology topo(new_cfg, spec.numLayers());
    for (const auto &s : plan.steps) {
        EXPECT_GE(s.startOffset, prev_start - 1e-9); // wire serializes
        EXPECT_GE(s.finishOffset, s.startOffset - 1e-9);
        EXPECT_GE(s.finishOffset, prev_finish - 1e-9); // monotone finishes
        EXPECT_LE(s.finishOffset, plan.totalDuration + 1e-9);
        sum += s.duration;
        EXPECT_NEAR(s.duration,
                    std::max(s.finishOffset - prev_finish, 0.0), 1e-9);
        prev_start = s.startOffset;
        prev_finish = std::max(prev_finish, s.finishOffset);
        if (!s.isCache()) {
            const int p = topo.stageOfLayer(s.layer);
            stage_latest[p] = std::max(stage_latest[p], s.finishOffset);
        }
    }
    EXPECT_NEAR(sum, plan.totalDuration, 1e-6);
    for (int p = 0; p < new_cfg.pp; ++p)
        EXPECT_GE(plan.stageReady[p] + 1e-9, stage_latest[p]);
}

TEST_F(PlannerFixture, LinkScheduledPlanBeatsOrMatchesSerializedCursor)
{
    // Default (link-scheduled) timing: step finishes need not be
    // monotone — disjoint instance pairs overlap — but every finish
    // stays inside totalDuration, stageReady still tracks the latest
    // finishing step of each stage, the per-replica resumes stay causal,
    // and the adopted makespan never exceeds the serialized-cursor
    // estimate the ablation would have charged.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});
    const auto plan = planner.plan(snap, mapping, new_cfg, {600.0, 600.0});
    ASSERT_FALSE(plan.steps.empty());

    PlannerOptions serialized;
    serialized.linkSchedule = false;
    const auto legacy =
        planner.plan(snap, mapping, new_cfg, {600.0, 600.0}, serialized);

    EXPECT_DOUBLE_EQ(plan.serializedDuration, legacy.totalDuration);
    EXPECT_LE(plan.totalDuration, plan.serializedDuration + 1e-9);
    // This transition has two replicas exchanging context over disjoint
    // NIC pairs: interleaving must genuinely beat the serial cursor.
    EXPECT_LT(plan.totalDuration, plan.serializedDuration - 1e-6);
    EXPECT_TRUE(plan.linkScheduled);

    std::vector<double> stage_latest(new_cfg.pp,
                                     kParams.migrationSetupTime);
    const par::Topology topo(new_cfg, spec.numLayers());
    for (const auto &s : plan.steps) {
        EXPECT_GE(s.startOffset, kParams.migrationSetupTime - 1e-9);
        EXPECT_GE(s.finishOffset, s.startOffset - 1e-9);
        EXPECT_LE(s.finishOffset, plan.totalDuration + 1e-9);
        if (!s.isCache()) {
            const int p = topo.stageOfLayer(s.layer);
            stage_latest[p] = std::max(stage_latest[p], s.finishOffset);
        }
    }
    for (int p = 0; p < new_cfg.pp; ++p)
        EXPECT_NEAR(plan.stageReady[p], stage_latest[p], 1e-9);
    for (int d = 0; d < new_cfg.dp; ++d) {
        EXPECT_GE(plan.pipelineResume[d],
                  kParams.migrationSetupTime - 1e-9);
        EXPECT_LE(plan.pipelineResume[d], plan.totalDuration + 1e-9);
    }
    // Identical byte accounting in both modes: timing is the only thing
    // the scheduler changes.
    EXPECT_DOUBLE_EQ(plan.movedModelBytes, legacy.movedModelBytes);
    EXPECT_DOUBLE_EQ(plan.movedCacheBytes, legacy.movedCacheBytes);
    EXPECT_DOUBLE_EQ(plan.reusedBytes, legacy.reusedBytes);
}

TEST_F(PlannerFixture, RetimeShiftsResumesWithStepFinishes)
{
    // retime() re-derives every timing field from external step finishes
    // (what the transfer data plane feeds back after scheduling against
    // busy links): shifting all finishes by a constant shifts
    // totalDuration and every resume by at most that constant, and
    // keeps stageReady consistent.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});
    auto plan = planner.plan(snap, mapping, new_cfg, {600.0, 600.0});
    ASSERT_FALSE(plan.steps.empty());
    const double base_total = plan.totalDuration;
    const double base_resume = plan.resumeOffset;

    const double shift = 2.5;
    std::vector<double> starts, finishes;
    for (const auto &s : plan.steps) {
        starts.push_back(s.startOffset + shift);
        finishes.push_back(s.finishOffset + shift);
    }
    planner.retime(plan, new_cfg, PlannerOptions{}, starts, finishes);
    EXPECT_NEAR(plan.totalDuration, base_total + shift, 1e-9);
    EXPECT_GE(plan.resumeOffset, base_resume - 1e-9);
    EXPECT_LE(plan.resumeOffset, base_resume + shift + 1e-9);
    for (int d = 0; d < new_cfg.dp; ++d)
        EXPECT_LE(plan.pipelineResume[d], plan.totalDuration + 1e-9);
}

TEST_F(PlannerFixture, PlanBothMatchesTwoSeparatePasses)
{
    // planBoth must be byte-identical to invoking plan() twice with
    // migrateCache toggled — it exists so beginReconfig stops paying a
    // second full analysis pass when the arranger flips to recompute.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    par::ParallelConfig new_cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(old_cfg, 600.0);
    const auto mapping = mapper.map(snap, new_cfg, instances, {600.0, 600.0});

    const auto pair =
        planner.planBoth(snap, mapping, new_cfg, {600.0, 600.0});
    const auto with = planner.plan(snap, mapping, new_cfg, {600.0, 600.0});
    PlannerOptions no_cache;
    no_cache.migrateCache = false;
    const auto without =
        planner.plan(snap, mapping, new_cfg, {600.0, 600.0}, no_cache);

    auto expect_equal = [](const MigrationPlan &a, const MigrationPlan &b) {
        EXPECT_DOUBLE_EQ(a.totalDuration, b.totalDuration);
        EXPECT_DOUBLE_EQ(a.resumeOffset, b.resumeOffset);
        EXPECT_DOUBLE_EQ(a.movedModelBytes, b.movedModelBytes);
        EXPECT_DOUBLE_EQ(a.movedCacheBytes, b.movedCacheBytes);
        EXPECT_DOUBLE_EQ(a.reusedBytes, b.reusedBytes);
        EXPECT_DOUBLE_EQ(a.peakBufferBytes, b.peakBufferBytes);
        EXPECT_EQ(a.cacheMigrated, b.cacheMigrated);
        ASSERT_EQ(a.steps.size(), b.steps.size());
        for (std::size_t i = 0; i < a.steps.size(); ++i) {
            EXPECT_EQ(a.steps[i].layer, b.steps[i].layer);
            EXPECT_DOUBLE_EQ(a.steps[i].startOffset, b.steps[i].startOffset);
            EXPECT_DOUBLE_EQ(a.steps[i].finishOffset,
                             b.steps[i].finishOffset);
            EXPECT_DOUBLE_EQ(a.steps[i].duration, b.steps[i].duration);
        }
        ASSERT_EQ(a.pipelineResume.size(), b.pipelineResume.size());
        for (std::size_t d = 0; d < a.pipelineResume.size(); ++d)
            EXPECT_DOUBLE_EQ(a.pipelineResume[d], b.pipelineResume[d]);
    };
    expect_equal(pair.withCache, with);
    expect_equal(pair.withoutCache, without);
    EXPECT_TRUE(pair.withCache.cacheMigrated);
    EXPECT_FALSE(pair.withoutCache.cacheMigrated);
    EXPECT_DOUBLE_EQ(pair.withoutCache.movedCacheBytes, 0.0);
}

/**
 * Digest of a plan's decisions: byte accounting, the step order with each
 * step's transfers and cold loads, the dependency sets and the timing.
 */
std::uint64_t
planDigest(const MigrationPlan &plan)
{
    testing_support::Fnv1a h;
    h.add(plan.reusedBytes);
    h.add(plan.movedModelBytes);
    h.add(plan.movedCacheBytes);
    h.add(plan.coldLoadBytes);
    h.add(plan.peakBufferBytes);
    h.add(plan.cacheMigrated);
    for (const auto &step : plan.steps) {
        h.add(step.layer);
        for (const auto &t : step.transfers) {
            h.add(t.srcInstance);
            h.add(t.dstInstance);
            h.add(t.bytes);
        }
        for (const auto &[inst, bytes] : step.coldLoads) {
            h.add(inst);
            h.add(bytes);
        }
        h.add(step.startOffset);
        h.add(step.finishOffset);
    }
    for (const auto &stages : plan.dpStepDeps) {
        for (const auto &deps : stages) {
            h.add(static_cast<int>(deps.size()));
            for (int s : deps)
                h.add(s);
        }
    }
    h.add(plan.linkScheduled);
    h.add(plan.serializedDuration);
    h.add(plan.totalDuration);
    for (double r : plan.pipelineResume)
        h.add(r);
    return h.value();
}

// Fleet-scale byte identity of the planner (see fleet_scale_scenario.h):
// every source pick, cold load, step order and dependency set of a
// 256-instance reshape and a one-instance-notice shrink, pinned to the
// digests of the reference implementation.
TEST(PlannerFleetScale, ReshapePlanIsByteIdentical)
{
    const testing_support::FleetScaleScenario fleet(1);
    const auto in = fleet.reshape();
    DeviceMapper mapper(fleet.spec, kParams);
    MigrationPlanner planner(fleet.spec, kParams);
    const auto m = mapper.map(in.snapshot, in.target, in.instances,
                              in.oldTokens);
    const auto plan = planner.plan(in.snapshot, m, in.target, in.oldTokens);
    EXPECT_GT(plan.movedModelBytes, 0.0);
    EXPECT_GT(plan.movedCacheBytes, 0.0);
    EXPECT_EQ(planDigest(plan), 0xdada3097702e2b63ull)
        << std::hex << planDigest(plan);
}

TEST(PlannerFleetScale, ShrinkPlanIsByteIdentical)
{
    const testing_support::FleetScaleScenario fleet(1);
    const auto in = fleet.shrink();
    DeviceMapper mapper(fleet.spec, kParams);
    MigrationPlanner planner(fleet.spec, kParams);
    const auto m = mapper.map(in.snapshot, in.target, in.instances,
                              in.oldTokens);
    const auto plan = planner.plan(in.snapshot, m, in.target, in.oldTokens);
    EXPECT_GT(plan.movedModelBytes, 0.0);
    EXPECT_EQ(planDigest(plan), 0xa8e9b97daaa0ae0aull)
        << std::hex << planDigest(plan);
}

} // namespace
} // namespace spotserve::core
