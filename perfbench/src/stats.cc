#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

/** Nearest-rank index of percentile @p pct among @p n sorted samples. */
std::size_t
rankIndex(std::size_t n, double pct)
{
    // The epsilon keeps exact ranks exact: 99.9% of 100000 is 99900.
    const double rank =
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return std::min(idx, n - 1);
}

} // namespace

double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    return sorted[rankIndex(sorted.size(), pct)];
}

double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, 50.0);
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    if (n == 0)
        return 0;
    return n - 1 - rankIndex(n, pct);
}

Tail
tailOf(std::vector<double> samples, double nominal)
{
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (pct > nominal + 1e-9)
            continue;
        if (samplesBeyond(samples.size(), pct) >= 10) {
            tail.percentile = pct;
            tail.value = percentileSorted(samples, pct);
            return tail;
        }
    }
    tail.percentile = 50.0;
    tail.value = percentileSorted(samples, 50.0);
    return tail;
}

namespace {

constexpr double kHistFloor = 1e-7;
constexpr double kBinsPerDecade = 2000.0;

} // namespace

void
LogHistogram::add(double x)
{
    std::size_t idx = 0;
    if (x > kHistFloor)
        idx = 1 + static_cast<std::size_t>(std::log10(x / kHistFloor) *
                                           kBinsPerDecade);
    if (idx >= bins_.size())
        bins_.resize(idx + 1, 0);
    ++bins_[idx];
    ++count_;
}

double
LogHistogram::percentile(double pct) const
{
    if (count_ == 0)
        return 0.0;
    const std::size_t want = rankIndex(count_, pct) + 1;
    std::size_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += static_cast<std::size_t>(bins_[i]);
        if (seen >= want)
            return i == 0 ? 0.0
                          : kHistFloor * std::pow(10.0, i / kBinsPerDecade);
    }
    return 0.0;
}

Tail
LogHistogram::tail(double nominal) const
{
    Tail tail;
    tail.samples = count_;
    if (count_ == 0)
        return tail;
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (pct > nominal + 1e-9)
            continue;
        if (samplesBeyond(count_, pct) >= 10) {
            tail.percentile = pct;
            tail.value = percentile(pct);
            return tail;
        }
    }
    tail.percentile = 50.0;
    tail.value = percentile(50.0);
    return tail;
}

void
Accounting::fail(const std::string &why, long n)
{
    if (n <= 0)
        return;
    failed_ += n;
    reasons_.push_back(why + " x" + std::to_string(n));
}

void
Accounting::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    ++checksFailed_;
    ++failed_;
    reasons_.push_back("check failed: " + what);
}

double
Accounting::failedFrac() const
{
    return attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace perfbench
