/**
 * @file
 * Statistics shared by every perfbench workload: the percentile rule,
 * failure accounting and the digest of modelled behaviour.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile @p pct (0..100] of an ascending @p sorted. */
double percentileSorted(const std::vector<double> &sorted, double pct);

/** Median (nearest rank) of @p samples; 0 when empty. */
double medianOf(std::vector<double> samples);

/**
 * A tail estimate that honours the benchmark's percentile rule: the
 * highest percentile, no higher than the metric's nominal one, that still
 * has at least ten samples beyond it.
 */
struct Tail
{
    double value = 0.0;
    /** Percentile actually reported (50 when the sample is too small). */
    double percentile = 0.0;
    std::size_t samples = 0;
};

/** Samples a nearest-rank percentile @p pct leaves above it. */
std::size_t samplesBeyond(std::size_t n, double pct);

/**
 * Apply the percentile rule to @p samples for a metric whose nominal
 * percentile is @p nominal: walk the ladder 99.9, 99, 95, 90, 75 and take
 * the first rung <= nominal with >= 10 samples beyond it.  Below 20
 * samples no rung qualifies and the median is reported.
 */
Tail tailOf(std::vector<double> samples, double nominal = 99.0);

/**
 * Log-binned histogram (2000 bins per decade, 0.12% resolution) for
 * sample streams too long to keep, such as every inter-token gap.
 */
class LogHistogram
{
  public:
    void add(double x);
    std::size_t count() const { return count_; }
    /** Nearest-rank percentile, as the upper edge of its bin. */
    double percentile(double pct) const;
    /** The percentile rule of tailOf() applied to the histogram. */
    Tail tail(double nominal = 99.0) const;

  private:
    std::vector<long> bins_;
    std::size_t count_ = 0;
};

/**
 * Failure accounting: every attempted operation either succeeds or is
 * counted failed with a reason.  Failed checks count as failed
 * operations too, so a broken output can never read as a clean run.
 */
class Accounting
{
  public:
    void attempt(long n) { attempted_ += n; }
    /** Count @p n failed operations for @p why (n = 0 records nothing). */
    void fail(const std::string &why, long n = 1);
    /** A correctness check: on failure count one failed op. */
    void check(bool ok, const std::string &what);
    long attempted() const { return attempted_; }
    long failed() const { return failed_; }
    double failedFrac() const;
    /** True when no operation failed and every check held. */
    bool correct() const { return failed_ == 0 && checksFailed_ == 0; }
    const std::vector<std::string> &reasons() const { return reasons_; }

  private:
    long attempted_ = 0;
    long failed_ = 0;
    long checksFailed_ = 0;
    std::vector<std::string> reasons_;
};

/** FNV-1a digest of modelled outputs (reported, never gated). */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    void add(long long v) { add(static_cast<std::uint64_t>(v)); }
    void add(int v) { add(static_cast<std::uint64_t>(static_cast<long long>(v))); }
    void add(long v) { add(static_cast<std::uint64_t>(static_cast<long long>(v))); }
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
