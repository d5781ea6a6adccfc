/**
 * @file
 * A seeded fleet-scale planning scenario shared by the byte-identity
 * regressions of the device mapper, the migration planner and the link
 * schedule, plus the FNV-1a digest they pin.
 *
 * 256 four-GPU instances serve GPT-20B as (D=85, P=3, M=4) on a seeded
 * instance permutation, with seeded per-replica in-flight cache; the
 * one spare instance's daemons are in the snapshot without context.  Two
 * replans are derived from it:
 *  - reshape: three seeded instances die with their context and the
 *    survivors move to (D=63, P=2, M=8);
 *  - shrink: one serving instance gets a preemption notice (it stays a
 *    migration source but is no longer a target) and the config is kept.
 *
 * The generator is a local splitmix64 so the scenario does not depend on
 * the standard library's distribution implementations.
 */

#ifndef SPOTSERVE_TESTS_FLEET_SCALE_SCENARIO_H
#define SPOTSERVE_TESTS_FLEET_SCALE_SCENARIO_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/instance.h"
#include "engine/context_state.h"
#include "model/model_spec.h"
#include "parallel/parallel_config.h"

namespace spotserve::testing_support {

/** 64-bit FNV-1a over integers and the bit patterns of doubles. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }
    void
    add(int v)
    {
        add(static_cast<std::uint64_t>(static_cast<long long>(v)));
    }
    void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/** One replan's inputs. */
struct ReplanInput
{
    engine::ContextSnapshot snapshot;
    par::ParallelConfig target;
    std::vector<const cluster::Instance *> instances;
    std::vector<double> oldTokens;
};

/** The seeded 256-instance GPT-20B fleet and its two replans. */
class FleetScaleScenario
{
  public:
    static constexpr int kInstances = 256;
    static constexpr int kGpusPerInstance = 4;

    explicit FleetScaleScenario(std::uint64_t seed) : state_(seed)
    {
        for (int i = 0; i < kInstances; ++i) {
            storage_.push_back(std::make_unique<cluster::Instance>(
                i, cluster::InstanceType::Spot, kGpusPerInstance, 0.0));
            storage_.back()->markRunning(0.0);
        }
        // Seeded instance order; replica r occupies instances
        // order_[3r .. 3r+2], the last instance is the spare.
        order_.resize(kInstances);
        for (int i = 0; i < kInstances; ++i)
            order_[i] = i;
        for (int i = kInstances - 1; i > 0; --i)
            std::swap(order_[i], order_[below(i + 1)]);

        const par::ParallelConfig old_cfg = oldConfig();
        tokens_.resize(old_cfg.dp);
        for (int d = 0; d < old_cfg.dp; ++d)
            tokens_[d] = d % 7 == 3 ? 0.0 : 1000.0 + below(2000);

        const par::Topology topo(old_cfg, spec.numLayers());
        for (int i = 0; i < topo.size(); ++i) {
            engine::GpuContext ctx;
            ctx.instance = order_[i / kGpusPerInstance];
            ctx.gpu = ctx.instance * kGpusPerInstance + i % kGpusPerInstance;
            ctx.hasModelContext = true;
            ctx.config = old_cfg;
            ctx.position = topo.position(i);
            ctx.cacheTokens = tokens_[ctx.position.d];
            snapshot_.gpus.push_back(ctx);
        }
        // The spare's daemons are up but hold nothing yet.
        for (int k = 0; k < kGpusPerInstance; ++k) {
            engine::GpuContext ctx;
            ctx.instance = order_[kInstances - 1];
            ctx.gpu = ctx.instance * kGpusPerInstance + k;
            snapshot_.gpus.push_back(ctx);
        }

        while (dead_.size() < 3) {
            const int inst = below(kInstances);
            if (std::find(dead_.begin(), dead_.end(), inst) == dead_.end())
                dead_.push_back(inst);
        }
        noticed_ = order_[below(kInstances - 1)];
    }

    static par::ParallelConfig oldConfig() { return {85, 3, 4, 8}; }

    /** Three seeded instances die; the survivors move to P=2, M=8. */
    ReplanInput
    reshape() const
    {
        const std::vector<int> &dead = dead_;
        ReplanInput in;
        in.oldTokens = tokens_;
        for (const auto &g : snapshot_.gpus) {
            if (std::find(dead.begin(), dead.end(), g.instance) == dead.end())
                in.snapshot.gpus.push_back(g);
        }
        for (const auto &inst : storage_) {
            if (std::find(dead.begin(), dead.end(), inst->id()) == dead.end())
                in.instances.push_back(inst.get());
        }
        const int gpus =
            static_cast<int>(in.instances.size()) * kGpusPerInstance;
        in.target = par::ParallelConfig{gpus / 16, 2, 8, 8};
        return in;
    }

    /** One serving instance gets a notice; the config is kept. */
    ReplanInput
    shrink() const
    {
        ReplanInput in;
        in.oldTokens = tokens_;
        in.snapshot = snapshot_;
        for (const auto &inst : storage_) {
            if (inst->id() != noticed_)
                in.instances.push_back(inst.get());
        }
        in.target = oldConfig();
        return in;
    }

    model::ModelSpec spec = model::ModelSpec::gpt20b();

  private:
    /** splitmix64 step. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform integer in [0, n). */
    int
    below(int n)
    {
        return static_cast<int>(next() % static_cast<std::uint64_t>(n));
    }

    std::uint64_t state_;
    std::vector<std::unique_ptr<cluster::Instance>> storage_;
    std::vector<int> order_;
    std::vector<double> tokens_;
    engine::ContextSnapshot snapshot_;
    std::vector<int> dead_;
    int noticed_ = -1;
};

} // namespace spotserve::testing_support

#endif // SPOTSERVE_TESTS_FLEET_SCALE_SCENARIO_H
