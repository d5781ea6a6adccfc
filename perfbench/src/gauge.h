/**
 * @file
 * Host-speed gauge.  A shared machine's speed drifts by tens of percent
 * within a minute (other tenants, frequency scaling), which swamps the
 * differences a benchmark must resolve.  The gauge times a fixed
 * reference kernel — owned by the benchmark and independent of the
 * library, so no change to the code under test can move it — next to
 * each measured unit of work, and scales that unit's host time to the
 * kernel's nominal speed.  The raw times stay in the report's detail.
 */

#ifndef PERFBENCH_GAUGE_H
#define PERFBENCH_GAUGE_H

#include <vector>

namespace perfbench {

class SpeedGauge
{
  public:
    /** Seconds the reference kernel takes at reference speed. */
    static constexpr double kNominalSeconds = 0.020;

    /**
     * Time the reference kernel once (a heap, hash-map and
     * std::function mix shaped like the simulator's hot loop) and
     * return the factor that scales host time measured now to
     * reference speed.
     */
    double measure();

    /** Median of every factor measured so far (1 before any). */
    double medianFactor() const;

  private:
    std::vector<double> factors_;
};

} // namespace perfbench

#endif // PERFBENCH_GAUGE_H
