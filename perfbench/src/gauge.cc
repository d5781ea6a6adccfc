#include "gauge.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

/** The reference kernel; returns a checksum so it cannot be elided. */
std::uint64_t
referenceKernel()
{
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    using Entry = std::pair<double, std::uint64_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    std::vector<std::function<void()>> callbacks;
    std::uint64_t acc = 0;
    double t = 0.0;
    for (int i = 0; i < 20000; ++i)
        heap.push({t + static_cast<double>(next() % 1000) * 1e-3, next()});
    for (int i = 0; i < 60000; ++i) {
        const Entry e = heap.top();
        heap.pop();
        t = e.first;
        acc += e.second;
        heap.push({t + static_cast<double>(next() % 1000) * 1e-3, next()});
        table[e.second & 0xffff] += acc;
        if ((i & 7) == 0) {
            callbacks.emplace_back([&acc, i] { acc += static_cast<unsigned>(i); });
            if (callbacks.size() > 1024) {
                for (auto &fn : callbacks)
                    fn();
                callbacks.clear();
            }
        }
    }
    return acc + table.size();
}

} // namespace

double
SpeedGauge::measure()
{
    const auto t0 = std::chrono::steady_clock::now();
    volatile std::uint64_t sink = referenceKernel();
    (void)sink;
    const double took =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const double factor = took > 0.0 ? kNominalSeconds / took : 1.0;
    factors_.push_back(factor);
    return factor;
}

double
SpeedGauge::medianFactor() const
{
    return factors_.empty() ? 1.0 : medianOf(factors_);
}

} // namespace perfbench
