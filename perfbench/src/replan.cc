#include "replan.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "costmodel/planning_latency_model.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

} // namespace

ReplanDriver::ReplanDriver(const model::ModelSpec &spec,
                           const cost::CostParams &params,
                           int initial_instances, double rate,
                           std::uint64_t seed)
    : spec_(spec), params_(params), rate_(rate), rng_(seed),
      controller_(spec, params, cost::SeqSpec{}), mapper_(spec, params),
      planner_(spec, params), links_(params)
{
    addInstances(initial_instances);
    const auto decision = controller_.chooseConfig(initial_instances, rate);
    if (!decision)
        return;
    deployed_ = decision->config;
    par::DeviceMesh mesh(deployed_, spec_.numLayers());
    const auto &topo = mesh.topology();
    int flat = 0;
    for (const auto &inst : alive_) {
        for (par::GpuId g : inst->gpuIds()) {
            if (flat < topo.size())
                mesh.assign(topo.position(flat++), g);
        }
    }
    commit(mesh);
}

void
ReplanDriver::addInstances(int count)
{
    for (int i = 0; i < count; ++i) {
        alive_.push_back(std::make_unique<cluster::Instance>(
            nextId_++, cluster::InstanceType::Spot, params_.gpusPerInstance,
            0.0));
        alive_.back()->markRunning(0.0);
    }
}

std::vector<cluster::InstanceId>
ReplanDriver::pickVictims(int count)
{
    // Victims are drawn from the instances the deployment uses: losing an
    // idle spare leaves the mesh intact and replans nothing.  Only when
    // fewer serving instances remain than requested does the draw cover
    // the whole fleet.
    std::set<cluster::InstanceId> serving;
    for (const auto &g : snapshot_.gpus)
        serving.insert(g.instance);
    std::vector<cluster::InstanceId> victims;
    for (int i = 0; i < count && !alive_.empty(); ++i) {
        std::vector<std::size_t> pool;
        for (std::size_t j = 0; j < alive_.size(); ++j) {
            if (serving.count(alive_[j]->id()))
                pool.push_back(j);
        }
        if (static_cast<int>(pool.size()) < count - i) {
            pool.clear();
            for (std::size_t j = 0; j < alive_.size(); ++j)
                pool.push_back(j);
        }
        const auto idx = pool[static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<int>(pool.size()) - 1))];
        victims.push_back(alive_[idx]->id());
        serving.erase(alive_[idx]->id());
        alive_.erase(alive_.begin() + static_cast<long>(idx));
    }
    return victims;
}

void
ReplanDriver::commit(const par::DeviceMesh &mesh)
{
    snapshot_.gpus.clear();
    // One seeded level for every replica: per-replica levels would make
    // each cache transfer a different size, which multiplies the link
    // schedule's events and changes what the workload measures.
    replicaTokens_.assign(static_cast<std::size_t>(mesh.config().dp),
                          rng_.uniform(1500.0, 2500.0));
    const auto &topo = mesh.topology();
    for (int i = 0; i < topo.size(); ++i) {
        const auto pos = topo.position(i);
        engine::GpuContext ctx;
        ctx.gpu = mesh.gpuAt(pos);
        ctx.instance = cluster::Instance::instanceOfGpu(
            ctx.gpu, params_.gpusPerInstance);
        ctx.hasModelContext = true;
        ctx.config = mesh.config();
        ctx.position = pos;
        ctx.cacheTokens = replicaTokens_[static_cast<std::size_t>(pos.d)];
        snapshot_.gpus.push_back(ctx);
    }
}

ReplanRecord
ReplanDriver::apply(const FleetEvent &event, SpanRecorder *spans,
                    Digest &digest)
{
    ReplanRecord rec;
    rec.fleet = static_cast<int>(alive_.size());
    // Noticed instances still hold their context (they are migration
    // sources during the grace window) but are no longer targets; killed
    // ones take their context with them.
    std::set<cluster::InstanceId> leaving;
    switch (event.kind) {
    case FleetEvent::Kind::Notice:
        for (auto id : pickVictims(event.count))
            leaving.insert(id);
        break;
    case FleetEvent::Kind::Kill: {
        std::set<cluster::InstanceId> dead;
        for (auto id : pickVictims(event.count))
            dead.insert(id);
        std::erase_if(snapshot_.gpus, [&dead](const engine::GpuContext &g) {
            return dead.count(g.instance) > 0;
        });
        break;
    }
    case FleetEvent::Kind::Join:
        addInstances(event.count);
        break;
    case FleetEvent::Kind::Rate:
        rate_ = event.rate;
        break;
    }

    std::vector<const cluster::Instance *> targets;
    for (const auto &inst : alive_)
        targets.push_back(inst.get());
    rec.instances = static_cast<int>(targets.size());
    const std::vector<double> old_tokens = replicaTokens_;

    const auto t_replan = Clock::now();
    ScopedSpan replan_span(spans, "core.replan");

    auto t0 = Clock::now();
    std::optional<core::ControllerDecision> decision;
    {
        ScopedSpan span(spans, "core.controller");
        decision = controller_.chooseConfig(rec.instances, rate_);
    }
    rec.controllerMs = msSince(t0);
    rec.candidates = controller_.lastSweepStats().candidates;
    if (!decision) {
        rec.totalMs = msSince(t_replan);
        digest.add(std::string("infeasible"));
        return rec;
    }
    rec.feasible = true;
    rec.config = decision->config;
    rec.reshape = !(decision->config == deployed_);
    // Identity fast path: same config and every member still a target
    // (the charge rule SpotServeSystem::planningDuration applies).
    bool identity = !rec.reshape && leaving.empty();
    if (identity) {
        std::set<cluster::InstanceId> live;
        for (const auto *inst : targets)
            live.insert(inst->id());
        for (const auto &g : snapshot_.gpus)
            identity = identity && live.count(g.instance) > 0;
        identity = identity &&
                   static_cast<int>(snapshot_.gpus.size()) ==
                       deployed_.totalGpus();
    }

    t0 = Clock::now();
    const core::MappingResult mapping = [&] {
        ScopedSpan span(spans, rec.reshape ? "core.mapper.reshape"
                                           : "core.mapper.shrink");
        return mapper_.map(snapshot_, rec.config, targets, old_tokens);
    }();
    rec.mapperMs = msSince(t0);

    t0 = Clock::now();
    core::MigrationPlan plan;
    {
        ScopedSpan span(spans, "core.planner");
        plan = planner_.plan(snapshot_, mapping, rec.config, old_tokens);
    }
    rec.plannerMs = msSince(t0);

    t0 = Clock::now();
    cost::LinkScheduleResult schedule;
    {
        ScopedSpan span(spans, "costmodel.link_schedule");
        const auto steps = core::MigrationPlanner::transferSteps(plan);
        rec.linkSteps = static_cast<int>(steps.size());
        cost::LinkScheduleOptions options;
        options.setupTime = params_.migrationSetupTime;
        schedule = links_.build(steps, options);
    }
    rec.linkMs = msSince(t0);
    rec.totalMs = msSince(t_replan);

    const int gpi = params_.gpusPerInstance;
    const int slots = (rec.config.totalGpus() + gpi - 1) / gpi;
    const auto &sweep = controller_.lastSweepStats();
    rec.modelPlanningS = cost::PlanningLatencyModel{}.totalTime(
        sweep.candidates, sweep.coldEvals, rec.instances, slots, identity,
        spec_.numLayers(), rec.instances * gpi);
    rec.planMakespan = schedule.makespan;
    rec.modelLatencyS = rec.modelPlanningS + schedule.makespan;
    rec.interleaveGain = schedule.makespan > 0.0
                             ? plan.serializedDuration / schedule.makespan
                             : 1.0;
    const double total_bytes = plan.reusedBytes + plan.movedModelBytes +
                               plan.movedCacheBytes + plan.coldLoadBytes;
    rec.planReuseRatio = total_bytes > 0.0 ? plan.reusedBytes / total_bytes
                                           : 0.0;
    const double tokens_per_hour = decision->throughput *
                                   cost::SeqSpec{}.outputLen * 3600.0;
    const double usd_per_hour =
        params_.spotPricePerHour * decision->instancesNeeded;
    rec.usdPerMtok =
        tokens_per_hour > 0.0 ? usd_per_hour / tokens_per_hour * 1e6 : 0.0;

    // Invariants: every mesh position filled exactly once by a live
    // target, reuse never exceeds the bytes moved into place, and the
    // interleaved schedule is never slower than the serialized cursor.
    std::set<cluster::InstanceId> live;
    for (const auto *inst : targets)
        live.insert(inst->id());
    const auto gpus = mapping.mesh.gpus();
    std::set<par::GpuId> seen;
    for (par::GpuId g : gpus) {
        if (g == par::kInvalidGpu)
            rec.violation = "mesh position left empty";
        else if (!seen.insert(g).second)
            rec.violation = "GPU placed twice";
        else if (!live.count(cluster::Instance::instanceOfGpu(g, gpi)))
            rec.violation = "GPU of a non-surviving instance placed";
    }
    if (static_cast<int>(gpus.size()) != rec.config.totalGpus() ||
        !mapping.mesh.complete())
        rec.violation = "mesh incomplete";
    if (mapping.reusedModelBytes > mapping.neededModelBytes * (1 + 1e-9) ||
        plan.reusedBytes > total_bytes * (1 + 1e-9))
        rec.violation = "reused bytes exceed total bytes";
    if (schedule.makespan > plan.serializedDuration + 1e-9)
        rec.violation = "interleaved makespan exceeds serialized";

    digest.add(rec.config.dp);
    digest.add(rec.config.pp);
    digest.add(rec.config.tp);
    digest.add(rec.config.batch);
    for (par::GpuId g : gpus)
        digest.add(g);
    digest.add(plan.reusedBytes);
    digest.add(schedule.makespan);

    deployed_ = rec.config;
    commit(mapping.mesh);
    std::erase_if(alive_, [&leaving](const auto &inst) {
        return leaving.count(inst->id()) > 0;
    });
    return rec;
}

std::vector<FleetEvent>
eventsOfTrace(const cluster::AvailabilityTrace &trace)
{
    std::vector<FleetEvent> out;
    for (const auto &e : trace.events()) {
        if (e.time <= 0.0)
            continue;
        FleetEvent ev;
        ev.count = e.count;
        switch (e.kind) {
        case cluster::TraceEventKind::Join:
            ev.kind = FleetEvent::Kind::Join;
            break;
        case cluster::TraceEventKind::PreemptNotice:
        case cluster::TraceEventKind::Release:
            ev.kind = FleetEvent::Kind::Notice;
            break;
        case cluster::TraceEventKind::HardPreempt:
            ev.kind = FleetEvent::Kind::Kill;
            break;
        }
        out.push_back(ev);
    }
    return out;
}

} // namespace perfbench
