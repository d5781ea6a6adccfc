/**
 * @file
 * The traced run's machinery: an in-memory span recorder written out as
 * Chrome trace-event JSON, and a sim::Executor decorator that counts and
 * times every event the wrapped executor fires.
 *
 * Spans are recorded only by the benchmark's own code, around its calls
 * into the library's layers; nothing under src/ is instrumented.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "simcore/executor.h"

namespace perfbench {

using namespace spotserve;

/** One closed span.  Names are static strings ("layer.call"). */
struct Span
{
    const char *name = "";
    double start = 0.0; ///< seconds since the recorder's origin
    double end = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 at the root
    long long request = -1;
};

/**
 * Single-threaded span recorder: spans nest through an explicit stack,
 * stay in memory, and are written once the run ends.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Seconds since construction on the steady clock. */
    double now() const;

    /** Open a span under the innermost open one; returns its index. */
    int begin(const char *name, long long request = -1);
    /** Close span @p index (must be the innermost open span). */
    void end(int index);
    /** Record an already-timed span under the innermost open one. */
    void add(const char *name, double start, double end,
             long long request = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of spans named @p name. */
    double total(const std::string &name) const;
    /** Durations (seconds) of spans named @p name, in record order. */
    std::vector<double> durations(const std::string &name) const;
    /**
     * Self time per layer: each span's duration minus the time its
     * direct children cover, summed by layer (the name up to the first
     * '.').
     */
    std::map<std::string, double> layerSelfTimes() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null recorder makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name,
               long long request = -1)
        : recorder_(recorder),
          index_(recorder ? recorder->begin(name, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (recorder_)
            recorder_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *recorder_;
    int index_;
};

/**
 * sim::Executor decorator: delegates every call to the wrapped executor
 * and wraps each scheduled callback to count and time it.  The wrapped
 * callback runs unchanged at the same (time, order) slot, so a decorated
 * Simulation fires the identical event sequence as a bare one — the
 * traced run's modelled outputs must match the untraced run bit for bit.
 *
 * Callbacks run on one driver thread; schedule()/cancel() may come from
 * other threads in wall-clock mode, so the counters they touch are
 * atomic.  Per-callback samples are written only by the driver thread
 * and must be read after the driver has stopped.
 */
class TracingExecutor : public sim::Executor
{
  public:
    /**
     * @param time_scale virtual seconds per real second of the wrapped
     *        executor (1 for a Simulation is irrelevant: its lag is 0).
     */
    TracingExecutor(sim::Executor &inner, SpanRecorder *spans,
                    double time_scale = 1.0);

    sim::SimTime now() const override { return inner_.now(); }
    sim::EventId schedule(sim::SimTime when, sim::EventCallback fn) override;
    sim::EventId scheduleAfter(sim::SimTime delay,
                               sim::EventCallback fn) override;
    bool cancel(sim::EventId id) override;
    std::uint64_t run(sim::SimTime until = sim::kTimeInfinity) override;
    bool step() override { return inner_.step(); }
    bool idle() const override { return inner_.idle(); }
    std::uint64_t eventsFired() const override { return inner_.eventsFired(); }

    /**
     * Declare that the last @p count callbacks scheduled before the
     * first run() are request arrivals (runExperimentOn schedules
     * the workload last, after the trace and fault events); they are
     * timed individually as serving.arrival spans.
     */
    void expectTrailingArrivals(long count) { trailingArrivals_ = count; }

    /** Hook invoked after run() returns, while the system still lives. */
    void setRunEndHook(std::function<void()> hook)
    {
        runEndHook_ = std::move(hook);
    }

    long schedules() const { return schedules_.load(); }
    long cancels() const { return cancels_.load(); }
    long callbacks() const { return callbacks_; }
    /** Seconds spent inside callbacks (driver thread). */
    double callbackSeconds() const { return callbackSeconds_; }
    /** Seconds spent inside run(), callbacks included. */
    double runSeconds() const { return runSeconds_; }
    /** Host microseconds of each arrival callback. */
    const std::vector<double> &arrivalMicros() const { return arrivalUs_; }
    /**
     * Real milliseconds by which callbacks fired after their due time,
     * one entry per late callback (a Simulation is never late).
     */
    const std::vector<double> &lagMillis() const { return lagMs_; }

  private:
    sim::EventCallback wrap(sim::SimTime due, sim::EventCallback fn);
    void fire(long seq, sim::SimTime due, const sim::EventCallback &fn);

    sim::Executor &inner_;
    SpanRecorder *spans_;
    double timeScale_;
    std::atomic<long> schedules_{0};
    std::atomic<long> cancels_{0};
    long trailingArrivals_ = 0;
    bool started_ = false;
    long arrivalBegin_ = 0;
    long arrivalEnd_ = 0;
    long callbacks_ = 0;
    double callbackSeconds_ = 0.0;
    double runSeconds_ = 0.0;
    std::vector<double> arrivalUs_;
    std::vector<double> lagMs_;
    std::function<void()> runEndHook_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
