/**
 * @file
 * Tests for the device mapper (bipartite matching, §3.3).
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/device_mapper.h"
#include "fleet_scale_scenario.h"

namespace spotserve::core {
namespace {

const cost::CostParams kParams = cost::CostParams::awsG4dn();

/** Fixture owning a fleet of instances and daemon snapshots. */
class MapperFixture : public ::testing::Test
{
  protected:
    model::ModelSpec spec = model::ModelSpec::gpt20b();

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

    /** Snapshot with every GPU of a packed deployment of @p cfg. */
    engine::ContextSnapshot
    packedSnapshot(const par::ParallelConfig &cfg, double cache_tokens = 0.0)
    {
        engine::ContextSnapshot snap;
        par::Topology topo(cfg, spec.numLayers());
        int gpu = 0;
        for (int i = 0; i < topo.size(); ++i, ++gpu) {
            engine::GpuContext ctx;
            ctx.gpu = gpu;
            ctx.instance = gpu / 4;
            ctx.hasModelContext = true;
            ctx.config = cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = cache_tokens;
            snap.gpus.push_back(ctx);
        }
        return snap;
    }
};

TEST_F(MapperFixture, IdentityMappingReusesEverything)
{
    par::ParallelConfig cfg{2, 2, 8, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(cfg);
    DeviceMapper mapper(spec, kParams);
    const auto result = mapper.map(snap, cfg, instances, {0.0, 0.0});
    EXPECT_TRUE(result.mesh.complete());
    // Every byte of model context is reused: zero migration needed.
    EXPECT_NEAR(result.reusedModelBytes, result.neededModelBytes,
                result.neededModelBytes * 1e-9);
}

TEST_F(MapperFixture, TensorGroupsStayCoLocated)
{
    par::ParallelConfig cfg{2, 3, 4, 8};
    makeInstances(6);
    DeviceMapper mapper(spec, kParams);
    const auto result =
        mapper.map(engine::ContextSnapshot{}, cfg, instances, {});
    const auto &topo = result.mesh.topology();
    for (int d = 0; d < cfg.dp; ++d) {
        for (int p = 0; p < cfg.pp; ++p) {
            // All M shards of one stage must live on one instance (M<=4).
            int inst = -1;
            for (int m = 0; m < cfg.tp; ++m) {
                const auto g = result.mesh.gpuAt(par::Position{d, p, m});
                const int gi = cluster::Instance::instanceOfGpu(g, 4);
                if (inst < 0)
                    inst = gi;
                EXPECT_EQ(gi, inst) << "stage split across instances";
            }
        }
    }
    (void)topo;
}

TEST_F(MapperFixture, WideTensorGroupsSpanWholeInstances)
{
    par::ParallelConfig cfg{1, 2, 8, 8};
    makeInstances(4);
    DeviceMapper mapper(spec, kParams);
    const auto result =
        mapper.map(engine::ContextSnapshot{}, cfg, instances, {});
    for (int p = 0; p < cfg.pp; ++p) {
        std::set<int> insts;
        for (int m = 0; m < 8; ++m) {
            insts.insert(cluster::Instance::instanceOfGpu(
                result.mesh.gpuAt(par::Position{0, p, m}), 4));
        }
        EXPECT_EQ(insts.size(), 2u); // exactly two full instances
    }
}

TEST_F(MapperFixture, PrefersWarmInstancesOverCold)
{
    // Old deployment (2,2,8) on instances 0..7; two fresh instances join.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    makeInstances(10);
    const auto snap = packedSnapshot(old_cfg);
    DeviceMapper mapper(spec, kParams);
    // Same config again: the mapper must put it back on the warm 8.
    const auto result = mapper.map(snap, old_cfg, instances, {0.0, 0.0});
    for (par::GpuId g : result.mesh.gpus()) {
        EXPECT_LT(cluster::Instance::instanceOfGpu(g, 4), 8)
            << "mapped onto a cold instance while warm ones existed";
    }
    EXPECT_NEAR(result.reusedModelBytes, result.neededModelBytes, 1.0);
}

TEST_F(MapperFixture, KmBeatsNaiveAfterLoss)
{
    // Lose instance 0 from a (2,2,8) deployment; map (2,3,4) onto the
    // survivors.  KM must reuse more than the id-order assignment.
    par::ParallelConfig old_cfg{2, 2, 8, 8};
    const auto full = packedSnapshot(old_cfg);
    engine::ContextSnapshot snap;
    for (const auto &g : full.gpus) {
        if (g.instance != 0)
            snap.gpus.push_back(g);
    }
    makeInstances(8);
    instances.erase(instances.begin()); // survivors: 1..7
    storage[0]->markPreempted(1.0);

    par::ParallelConfig target{2, 3, 4, 8};
    DeviceMapper km(spec, kParams);
    DeviceMapperOptions naive_opt;
    naive_opt.useKuhnMunkres = false;
    DeviceMapper naive(spec, kParams, naive_opt);

    const auto a = km.map(snap, target, instances, {0.0, 0.0});
    const auto b = naive.map(snap, target, instances, {0.0, 0.0});
    EXPECT_GT(a.reusedModelBytes, b.reusedModelBytes);
    EXPECT_TRUE(a.mesh.complete());
    EXPECT_TRUE(b.mesh.complete());
}

TEST_F(MapperFixture, InheritanceKeepsMostProgressedPipelines)
{
    DeviceMapper mapper(spec, kParams);
    makeInstances(8);
    // Old D=3 with different progress; new D=2 keeps the top two.
    par::ParallelConfig old_cfg{3, 2, 4, 8};
    const auto snap = packedSnapshot(old_cfg, 100.0);
    par::ParallelConfig target{2, 2, 8, 8};
    const auto result =
        mapper.map(snap, target, instances, {50.0, 900.0, 400.0});
    ASSERT_EQ(result.inheritedOldPipeline.size(), 2u);
    EXPECT_EQ(result.inheritedOldPipeline[0], 1); // most progressed
    EXPECT_EQ(result.inheritedOldPipeline[1], 2);
}

TEST_F(MapperFixture, NoInheritanceWithoutProgress)
{
    DeviceMapper mapper(spec, kParams);
    makeInstances(8);
    const auto result = mapper.map(engine::ContextSnapshot{},
                                   par::ParallelConfig{2, 2, 8, 8},
                                   instances, {0.0, 0.0});
    EXPECT_EQ(result.inheritedOldPipeline[0], -1);
    EXPECT_EQ(result.inheritedOldPipeline[1], -1);
}

TEST_F(MapperFixture, ThrowsWhenShort)
{
    DeviceMapper mapper(spec, kParams);
    makeInstances(2);
    EXPECT_THROW(mapper.map(engine::ContextSnapshot{},
                            par::ParallelConfig{2, 2, 8, 8}, instances, {}),
                 std::invalid_argument);
}

TEST_F(MapperFixture, IdentityFastPathByteIdenticalToFullSolve)
{
    // Membership-only remap: the snapshot already holds the exact target
    // placement.  With live cache on every replica the identity is the
    // full solve's unique optimum, so the fast path must reproduce the
    // Hungarian result byte for byte — mesh, inheritance and both reuse
    // accumulators.
    for (const par::ParallelConfig cfg :
         {par::ParallelConfig{2, 2, 8, 8}, par::ParallelConfig{2, 3, 4, 8},
          par::ParallelConfig{3, 2, 4, 8}}) {
        makeInstances((cfg.totalGpus() + 3) / 4 + 1); // one cold spare
        const auto snap = packedSnapshot(cfg, /*cache_tokens=*/600.0);
        const std::vector<double> tokens(cfg.dp, 600.0);

        DeviceMapper fast(spec, kParams); // identityFastPath defaults on
        DeviceMapperOptions full_opt;
        full_opt.identityFastPath = false;
        DeviceMapper full(spec, kParams, full_opt);

        const auto a = fast.map(snap, cfg, instances, tokens);
        const auto b = full.map(snap, cfg, instances, tokens);

        const auto &topo = a.mesh.topology();
        for (int i = 0; i < topo.size(); ++i) {
            const auto pos = topo.position(i);
            EXPECT_EQ(a.mesh.gpuAt(pos), b.mesh.gpuAt(pos))
                << cfg.str() << " position " << pos.str();
        }
        EXPECT_EQ(a.inheritedOldPipeline, b.inheritedOldPipeline)
            << cfg.str();
        EXPECT_DOUBLE_EQ(a.reusedModelBytes, b.reusedModelBytes);
        EXPECT_DOUBLE_EQ(a.reusedCacheBytes, b.reusedCacheBytes);
        EXPECT_DOUBLE_EQ(a.neededModelBytes, b.neededModelBytes);
    }
}

TEST_F(MapperFixture, IdentityFastPathDeclinesPartialCoverage)
{
    // One mesh member lost: the fast path must bail out and the full
    // solve must still produce a complete mapping onto the survivors.
    par::ParallelConfig cfg{2, 2, 8, 8};
    const auto full_snap = packedSnapshot(cfg, 600.0);
    engine::ContextSnapshot snap;
    for (const auto &g : full_snap.gpus) {
        if (g.instance != 3)
            snap.gpus.push_back(g);
    }
    makeInstances(9);
    instances.erase(instances.begin() + 3);
    storage[3]->markPreempted(1.0);

    DeviceMapper mapper(spec, kParams);
    const auto result = mapper.map(snap, cfg, instances, {600.0, 600.0});
    EXPECT_TRUE(result.mesh.complete());
    // The lost instance's positions were rebuilt elsewhere: some model
    // context must move.
    EXPECT_LT(result.reusedModelBytes, result.neededModelBytes);
}

TEST_F(MapperFixture, ReplicaPinsSurviveWeightTies)
{
    // Zero cache tokens everywhere: model-context weights tie across
    // same-shape replicas and the free Hungarian solve may mix stages
    // from different old replicas.  Pins must keep the live replicas'
    // placement verbatim so they can serve through the reconfiguration.
    par::ParallelConfig cfg{3, 3, 4, 8};
    const auto full = packedSnapshot(cfg, /*cache_tokens=*/0.0);
    engine::ContextSnapshot snap;
    for (const auto &g : full.gpus) {
        if (g.instance != 0) // replica 0 loses its first stage
            snap.gpus.push_back(g);
    }
    makeInstances(10);
    instances.erase(instances.begin());
    storage[0]->markPreempted(1.0);

    par::Topology topo(cfg, spec.numLayers());
    auto old_gpus = [&](int d) {
        std::vector<par::GpuId> out;
        for (int p = 0; p < cfg.pp; ++p) {
            for (int m = 0; m < cfg.tp; ++m)
                out.push_back(topo.flatIndex(par::Position{d, p, m}));
        }
        return out;
    };
    std::vector<ReplicaPin> pins;
    pins.push_back(ReplicaPin{0, 1, old_gpus(1)});
    pins.push_back(ReplicaPin{1, 2, old_gpus(2)});

    DeviceMapper mapper(spec, kParams);
    const auto result =
        mapper.map(snap, cfg, instances, {0.0, 700.0, 300.0}, pins);
    EXPECT_TRUE(result.mesh.complete());
    EXPECT_EQ(result.mesh.pipelineGpus(0), old_gpus(1));
    EXPECT_EQ(result.mesh.pipelineGpus(1), old_gpus(2));
    // Pinned replicas inherit themselves; the drained old replica 0 had
    // no progress worth inheriting... but here it has tokens 0.0 anyway.
    EXPECT_EQ(result.inheritedOldPipeline[0], 1);
    EXPECT_EQ(result.inheritedOldPipeline[1], 2);
    // The rebuilt replica must not reuse any pinned GPU.
    std::set<par::GpuId> pinned;
    for (const auto &p : pins)
        pinned.insert(p.gpus.begin(), p.gpus.end());
    for (par::GpuId g : result.mesh.pipelineGpus(2))
        EXPECT_EQ(pinned.count(g), 0u);

    // Malformed pins are rejected loudly.
    std::vector<ReplicaPin> bad;
    bad.push_back(ReplicaPin{0, 1, {1, 2, 3}}); // wrong size
    EXPECT_THROW(mapper.map(snap, cfg, instances, {}, bad),
                 std::invalid_argument);
}

TEST_F(MapperFixture, DeterministicMapping)
{
    par::ParallelConfig cfg{2, 3, 4, 8};
    makeInstances(8);
    const auto snap = packedSnapshot(par::ParallelConfig{2, 2, 8, 8});
    DeviceMapper mapper(spec, kParams);
    const auto a = mapper.map(snap, cfg, instances, {0.0, 0.0});
    const auto b = mapper.map(snap, cfg, instances, {0.0, 0.0});
    for (int i = 0; i < a.mesh.topology().size(); ++i) {
        const auto pos = a.mesh.topology().position(i);
        EXPECT_EQ(a.mesh.gpuAt(pos), b.mesh.gpuAt(pos));
    }
}

/** Digest of the mapper's decisions: mesh GPUs, inheritance, reuse. */
std::uint64_t
mappingDigest(const MappingResult &m)
{
    testing_support::Fnv1a h;
    for (par::GpuId g : m.mesh.gpus())
        h.add(g);
    for (int od : m.inheritedOldPipeline)
        h.add(od);
    h.add(m.reusedModelBytes);
    h.add(m.reusedCacheBytes);
    h.add(m.neededModelBytes);
    return h.value();
}

// Fleet-scale byte identity: a seeded 256-instance reshape (full two-step
// solve across (P, M) shapes) and a one-instance-notice shrink (the
// near-identity full solve).  The digests were recorded from the
// reference implementation; any change to a placement, an inheritance
// pick or the reuse arithmetic changes them.
TEST(MapperFleetScale, ReshapeDecisionsAreByteIdentical)
{
    const testing_support::FleetScaleScenario fleet(1);
    const auto in = fleet.reshape();
    DeviceMapper mapper(fleet.spec, kParams);
    const auto m = mapper.map(in.snapshot, in.target, in.instances,
                              in.oldTokens);
    EXPECT_EQ(mappingDigest(m), 0x525957abd77eb342ull)
        << std::hex << mappingDigest(m);
}

TEST(MapperFleetScale, ShrinkDecisionsAreByteIdentical)
{
    const testing_support::FleetScaleScenario fleet(1);
    const auto in = fleet.shrink();
    DeviceMapper mapper(fleet.spec, kParams);
    const auto m = mapper.map(in.snapshot, in.target, in.instances,
                              in.oldTokens);
    EXPECT_EQ(mappingDigest(m), 0xd7f1140e87e620eeull)
        << std::hex << mappingDigest(m);
}

} // namespace
} // namespace spotserve::core
