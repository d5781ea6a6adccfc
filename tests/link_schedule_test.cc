/**
 * @file
 * Invariants of the link-level transfer scheduler and the data plane
 * that executes its schedules (ISSUE 7 tentpole): no link carries two
 * slices at once, byte accounting is exact, single-pair topologies
 * reproduce the closed-form estimate to the bit, interleaving is never
 * slower than the per-step barrier, and the TransferDataPlane makes
 * successive migrations honestly contend for shared links.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/device_mapper.h"
#include "core/migration_planner.h"
#include "core/transfer_data_plane.h"
#include "costmodel/link_schedule.h"
#include "costmodel/migration_cost.h"
#include "fleet_scale_scenario.h"
#include "simcore/simulation.h"

namespace spotserve {
namespace {

using cost::LinkId;
using cost::LinkSchedule;
using cost::LinkScheduleOptions;
using cost::LinkScheduleResult;
using cost::LinkSlice;
using cost::LinkType;
using cost::Transfer;
using cost::TransferStep;

TransferStep wireStep(int layer, std::vector<Transfer> transfers)
{
    TransferStep step;
    step.layer = layer;
    step.transfers = std::move(transfers);
    return step;
}

class LinkScheduleFixture : public ::testing::Test
{
  protected:
    LinkScheduleFixture()
        : params(cost::CostParams::awsG4dn()), scheduler(params),
          costModel(params)
    {
    }

    /** Every link must be occupied by at most one slice at any instant. */
    static void expectNoOversubscription(const LinkScheduleResult &result)
    {
        std::map<LinkId, std::vector<std::pair<double, double>>> occupancy;
        for (const LinkSlice &s : result.slices) {
            ASSERT_GE(s.numLinks, 1);
            ASSERT_LE(s.numLinks, 2);
            EXPECT_GT(s.finish, s.start - 1e-12);
            for (int l = 0; l < s.numLinks; ++l)
                occupancy[s.links[l]].emplace_back(s.start, s.finish);
        }
        for (auto &entry : occupancy) {
            auto &spans = entry.second;
            std::sort(spans.begin(), spans.end());
            for (std::size_t i = 1; i < spans.size(); ++i)
                EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9)
                    << "link oversubscribed";
        }
    }

    /** Slices of each transfer must sum to exactly its bytes. */
    static void expectExactBytes(const std::vector<TransferStep> &steps,
                                 const LinkScheduleResult &result)
    {
        std::map<std::pair<int, int>, double> wire_bytes, cold_bytes;
        for (const LinkSlice &s : result.slices) {
            if (s.coldLoad)
                cold_bytes[{s.step, s.transfer}] += s.bytes;
            else
                wire_bytes[{s.step, s.transfer}] += s.bytes;
        }
        for (std::size_t k = 0; k < steps.size(); ++k) {
            const int sk = static_cast<int>(k);
            for (std::size_t t = 0; t < steps[k].transfers.size(); ++t)
                EXPECT_NEAR(
                    (wire_bytes[{sk, static_cast<int>(t)}]),
                    steps[k].transfers[t].bytes, 1.0);
            for (std::size_t t = 0; t < steps[k].coldLoads.size(); ++t)
                EXPECT_NEAR(
                    (cold_bytes[{sk, static_cast<int>(t)}]),
                    steps[k].coldLoads[t].second, 1.0);
        }
    }

    /**
     * A contended many-replica churn: four pipelines exchange context
     * over partially shared instances, two newcomers cold-load.
     */
    std::vector<TransferStep> churnSteps() const
    {
        const double gb = 1e9;
        std::vector<TransferStep> steps;
        TransferStep cache;
        cache.layer = -1;
        cache.transfers = {{0, 4, 2.0 * gb},
                           {1, 5, 2.0 * gb},
                           {2, 6, 1.0 * gb},
                           {0, 5, 0.5 * gb}};
        steps.push_back(cache);
        steps.push_back(wireStep(0, {{0, 4, 1.5 * gb}, {2, 7, 1.0 * gb}}));
        steps.push_back(wireStep(1, {{1, 4, 1.5 * gb}, {3, 3, 2.0 * gb}}));
        TransferStep mixed = wireStep(2, {{0, 6, 0.75 * gb}});
        mixed.coldLoads = {{7, 3.0 * gb}, {6, 1.0 * gb}};
        steps.push_back(mixed);
        return steps;
    }

    cost::CostParams params;
    LinkSchedule scheduler;
    cost::MigrationCostModel costModel;
};

TEST_F(LinkScheduleFixture, SinglePairMakespanMatchesClosedForm)
{
    // One step, one inter-instance transfer: there is nothing to
    // interleave, so the scheduled makespan must equal the closed-form
    // port-bottleneck estimate exactly, in both modes.
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 3.2e9}})};
    LinkScheduleOptions options;
    options.setupTime = params.migrationSetupTime;
    const double closed_form = costModel.transferTime(steps[0].transfers);
    for (bool interleave : {true, false}) {
        options.interleave = interleave;
        const auto result = scheduler.build(steps, options);
        EXPECT_DOUBLE_EQ(result.makespan, closed_form);
        ASSERT_EQ(result.stepStart.size(), 1u);
        EXPECT_DOUBLE_EQ(result.stepStart[0], params.migrationSetupTime);
        EXPECT_DOUBLE_EQ(result.stepFinish[0], closed_form);
        expectNoOversubscription(result);
        expectExactBytes(steps, result);
    }
}

TEST_F(LinkScheduleFixture, IntraInstanceMovesRideThePcieLink)
{
    const std::vector<TransferStep> steps = {
        wireStep(0, {{3, 3, 4.0e9}})};
    const auto result = scheduler.build(steps, {});
    EXPECT_DOUBLE_EQ(result.makespan, 4.0e9 / params.intraBandwidth);
    ASSERT_EQ(result.slices.size(), 1u);
    EXPECT_EQ(result.slices[0].numLinks, 1);
    EXPECT_EQ(result.slices[0].links[0],
              (LinkId{LinkType::Pcie, 3}));
}

TEST_F(LinkScheduleFixture, DisjointPairsOverlapOnlyWhenInterleaved)
{
    // Two steps moving context between disjoint instance pairs: with
    // the per-step barrier their wire times add; interleaved, the
    // slower pair hides the faster one entirely.
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}}), wireStep(1, {{2, 3, 1.0e9}})};
    const double w0 = costModel.wireTime(steps[0].transfers);
    const double w1 = costModel.wireTime(steps[1].transfers);
    LinkScheduleOptions options;
    options.setupTime = params.migrationSetupTime;

    options.interleave = false;
    const auto serialized = scheduler.build(steps, options);
    EXPECT_NEAR(serialized.makespan,
                params.migrationSetupTime + w0 + w1, 1e-9);

    options.interleave = true;
    const auto interleaved = scheduler.build(steps, options);
    EXPECT_NEAR(interleaved.makespan,
                params.migrationSetupTime + std::max(w0, w1), 1e-9);
    expectNoOversubscription(interleaved);
    expectExactBytes(steps, interleaved);
}

TEST_F(LinkScheduleFixture, ChurnScheduleKeepsEveryInvariant)
{
    const auto steps = churnSteps();
    for (bool interleave : {true, false}) {
        LinkScheduleOptions options;
        options.interleave = interleave;
        options.setupTime = params.migrationSetupTime;
        const auto result = scheduler.build(steps, options);
        expectNoOversubscription(result);
        expectExactBytes(steps, result);
        ASSERT_EQ(result.stepStart.size(), steps.size());
        ASSERT_EQ(result.stepFinish.size(), steps.size());
        double latest = 0.0;
        for (std::size_t k = 0; k < steps.size(); ++k) {
            // No link works before the setup interval has elapsed.
            EXPECT_GE(result.stepStart[k],
                      params.migrationSetupTime - 1e-9);
            EXPECT_GE(result.stepFinish[k], result.stepStart[k] - 1e-9);
            latest = std::max(latest, result.stepFinish[k]);
        }
        EXPECT_NEAR(result.makespan, latest, 1e-9);
        // Every slice runs at its link class's full bandwidth.
        for (const LinkSlice &s : result.slices) {
            if (s.finish - s.start < 1e-12)
                continue;
            double rate = params.interBandwidth;
            if (s.coldLoad)
                rate = params.diskBandwidth;
            else if (s.numLinks == 1 &&
                     s.links[0].type == LinkType::Pcie)
                rate = params.intraBandwidth;
            EXPECT_NEAR(s.bytes / (s.finish - s.start), rate,
                        rate * 1e-6);
        }
    }
}

TEST_F(LinkScheduleFixture, InterleavingIsNeverSlowerThanTheBarrier)
{
    // The preemptive priority schedule guarantees step k is never
    // delayed by step k' > k, so lifting the barrier can only help.
    // Sweep a family of fleet sizes and sharing patterns.
    const double gb = 1e9;
    for (int fleet = 2; fleet <= 12; fleet += 2) {
        std::vector<TransferStep> steps;
        for (int layer = 0; layer < 8; ++layer) {
            const int src = layer % fleet;
            const int dst = (layer + 1 + layer / fleet) % fleet;
            TransferStep step = wireStep(
                layer, {{src, dst, (1.0 + 0.25 * layer) * gb}});
            if (layer % 3 == 0)
                step.transfers.push_back(
                    {(src + 2) % fleet, (dst + 2) % fleet, 0.5 * gb});
            if (layer == 5)
                step.coldLoads = {{dst, 2.0 * gb}};
            steps.push_back(step);
        }
        LinkScheduleOptions options;
        options.setupTime = params.migrationSetupTime;
        options.interleave = true;
        const auto interleaved = scheduler.build(steps, options);
        options.interleave = false;
        const auto serialized = scheduler.build(steps, options);
        EXPECT_LE(interleaved.makespan, serialized.makespan + 1e-9)
            << "fleet=" << fleet;
        expectNoOversubscription(interleaved);
        expectNoOversubscription(serialized);
        expectExactBytes(steps, interleaved);
        expectExactBytes(steps, serialized);
    }
}

TEST_F(LinkScheduleFixture, BusyLinksDelayOnlyTheTransfersTouchingThem)
{
    const std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 1.0e9}}), wireStep(1, {{2, 3, 1.0e9}})};
    std::map<LinkId, double> busy;
    busy[{LinkType::NicSend, 0}] = 5.0; // instance 0 egress draining
    const auto result = scheduler.build(steps, {}, busy);
    const double w = 1.0e9 / params.interBandwidth;
    // The 0->1 transfer waits for its egress port; 2->3 is unaffected.
    EXPECT_NEAR(result.stepStart[0], 5.0, 1e-9);
    EXPECT_NEAR(result.stepFinish[0], 5.0 + w, 1e-9);
    EXPECT_NEAR(result.stepFinish[1], w, 1e-9);
    // The busy horizon carries forward for the next submission.
    EXPECT_NEAR(result.linkBusyUntil.at({LinkType::NicSend, 0}), 5.0 + w,
                1e-9);
}

TEST_F(LinkScheduleFixture, ColdLoadsOverlapWireWorkEvenUnderTheBarrier)
{
    // The legacy serialized cursor overlapped per-instance disk loads
    // with the whole wire schedule; the barrier mode must preserve that
    // equivalence, so disk slices start at setup time regardless of the
    // wire barrier.
    TransferStep wire = wireStep(0, {{0, 1, 4.0e9}});
    TransferStep cold = wireStep(1, {});
    cold.coldLoads = {{2, 1.0e9}};
    LinkScheduleOptions options;
    options.interleave = false;
    options.setupTime = params.migrationSetupTime;
    const auto result = scheduler.build({wire, cold}, options);
    EXPECT_NEAR(result.stepStart[1], params.migrationSetupTime, 1e-9);
    EXPECT_NEAR(result.stepFinish[1],
                params.migrationSetupTime +
                    1.0e9 / params.diskBandwidth,
                1e-9);
}

// ---------------------------------------------------------------------
// TransferDataPlane: the executor-facing wrapper.
// ---------------------------------------------------------------------

class DataPlaneFixture : public ::testing::Test
{
  protected:
    DataPlaneFixture()
        : params(cost::CostParams::awsG4dn()), plane(sim, params),
          costModel(params)
    {
    }

    sim::Simulation sim;
    cost::CostParams params;
    core::TransferDataPlane plane;
    cost::MigrationCostModel costModel;
};

TEST_F(DataPlaneFixture, PreviewQuotesExactlyWhatSubmitCommits)
{
    std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}, {1, 2, 1.0e9}})};
    const auto quote =
        plane.preview(steps, params.migrationSetupTime, true);
    const auto committed =
        plane.submit(steps, params.migrationSetupTime, true);
    ASSERT_EQ(quote.stepFinish.size(), committed.stepFinish.size());
    for (std::size_t k = 0; k < quote.stepFinish.size(); ++k) {
        EXPECT_DOUBLE_EQ(quote.stepStart[k], committed.stepStart[k]);
        EXPECT_DOUBLE_EQ(quote.stepFinish[k], committed.stepFinish[k]);
    }
    EXPECT_DOUBLE_EQ(quote.makespan, committed.makespan);
    EXPECT_FALSE(quote.contended);
    // A preview never reserves: only the submit moved the horizons.
    EXPECT_GT(plane.busyUntil(cost::LinkType::NicSend, 0), sim.now());
    EXPECT_EQ(plane.submissions(), 1);
}

TEST_F(DataPlaneFixture, SecondMigrationContendsForSharedLinks)
{
    std::vector<TransferStep> steps = {
        wireStep(0, {{0, 1, 2.0e9}})};
    const auto first =
        plane.submit(steps, params.migrationSetupTime, true);
    // Same pair again, immediately: must queue behind the first wire
    // transfer rather than pretend the link is free.
    const auto second =
        plane.submit(steps, params.migrationSetupTime, true);
    EXPECT_TRUE(second.contended);
    const double w = costModel.wireTime(steps[0].transfers);
    EXPECT_NEAR(second.makespan, first.makespan + w, 1e-9);
    EXPECT_EQ(plane.contendedSubmissions(), 1);

    // A pair on untouched instances is quoted as if the plane were idle.
    std::vector<TransferStep> disjoint = {
        wireStep(0, {{4, 5, 2.0e9}})};
    const auto third =
        plane.preview(disjoint, params.migrationSetupTime, true);
    EXPECT_FALSE(third.contended);
    EXPECT_NEAR(third.makespan, first.makespan, 1e-9);
}

TEST_F(DataPlaneFixture, ColdLoadMatchesClosedFormAndFiresCompletion)
{
    const double bytes = 3.0e9;
    const double expected = bytes / params.diskBandwidth;
    bool fired = false;
    const double makespan = plane.submitColdLoad(
        {{0, bytes}, {1, bytes}}, [&fired] { fired = true; });
    // Distinct disks load in parallel: the batch is one disk's time.
    EXPECT_NEAR(makespan, expected, 1e-9);
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_NEAR(sim.now(), expected, 1e-9);

    // Back-to-back on the same disk honestly doubles.
    const double again = plane.submitColdLoad({{0, bytes}});
    EXPECT_NEAR(again, expected, 1e-9);
    const double queued = plane.submitColdLoad({{0, bytes}});
    EXPECT_NEAR(queued, 2.0 * expected, 1e-9);
}

// ---------------------------------------------------------------------
// Fleet-scale byte identity (see fleet_scale_scenario.h): the schedules
// of a 256-instance reshape plan, interleaved, behind per-step barriers,
// and against the busy horizons a previous migration left behind (the
// TransferDataPlane path), pinned to the reference implementation's
// digests over every slice and every step's start and finish.
// ---------------------------------------------------------------------

std::uint64_t
scheduleDigest(const LinkScheduleResult &r)
{
    testing_support::Fnv1a h;
    for (const LinkSlice &s : r.slices) {
        h.add(s.step);
        h.add(s.transfer);
        h.add(s.coldLoad);
        h.add(s.start);
        h.add(s.finish);
        h.add(s.bytes);
        for (int k = 0; k < s.numLinks; ++k) {
            h.add(static_cast<int>(s.links[k].type));
            h.add(s.links[k].instance);
        }
    }
    for (double t : r.stepStart)
        h.add(t);
    for (double t : r.stepFinish)
        h.add(t);
    h.add(r.makespan);
    for (const auto &[link, until] : r.linkBusyUntil) {
        h.add(static_cast<int>(link.type));
        h.add(link.instance);
        h.add(until);
    }
    return h.value();
}

class LinkScheduleFleetScale : public ::testing::Test
{
  protected:
    /** The planner's transfer steps for one of the scenario's replans. */
    static std::vector<TransferStep>
    stepsOf(const testing_support::FleetScaleScenario &fleet,
            const testing_support::ReplanInput &in)
    {
        const auto params = cost::CostParams::awsG4dn();
        core::DeviceMapper mapper(fleet.spec, params);
        core::MigrationPlanner planner(fleet.spec, params);
        const auto m = mapper.map(in.snapshot, in.target, in.instances,
                                  in.oldTokens);
        return core::MigrationPlanner::transferSteps(
            planner.plan(in.snapshot, m, in.target, in.oldTokens));
    }

    LinkScheduleFleetScale()
        : params(cost::CostParams::awsG4dn()), scheduler(params),
          reshape(stepsOf(fleet, fleet.reshape()))
    {
        options.setupTime = params.migrationSetupTime;
    }

    cost::CostParams params;
    LinkSchedule scheduler;
    testing_support::FleetScaleScenario fleet{1};
    std::vector<TransferStep> reshape;
    LinkScheduleOptions options;
};

TEST_F(LinkScheduleFleetScale, InterleavedScheduleIsByteIdentical)
{
    const auto r = scheduler.build(reshape, options);
    EXPECT_GT(r.slices.size(), reshape.size());
    EXPECT_EQ(scheduleDigest(r), 0xe005e394e6209884ull)
        << std::hex << scheduleDigest(r);
}

TEST_F(LinkScheduleFleetScale, SerializedScheduleIsByteIdentical)
{
    options.interleave = false;
    const auto r = scheduler.build(reshape, options);
    EXPECT_EQ(scheduleDigest(r), 0xb652c20f04336d9full)
        << std::hex << scheduleDigest(r);
}

TEST_F(LinkScheduleFleetScale, ScheduleOnBusyLinksIsByteIdentical)
{
    // A shrink migration is in flight when the reshape is submitted.
    const auto first =
        scheduler.build(stepsOf(fleet, fleet.shrink()), options);
    ASSERT_FALSE(first.linkBusyUntil.empty());
    LinkScheduleOptions later = options;
    later.startTime = 0.5;
    const auto r = scheduler.build(reshape, later, first.linkBusyUntil);
    EXPECT_NE(r.stepFinish, scheduler.build(reshape, later).stepFinish);
    EXPECT_EQ(scheduleDigest(r), 0xdeb55bcf8cbbba47ull)
        << std::hex << scheduleDigest(r);
}

} // namespace
} // namespace spotserve
