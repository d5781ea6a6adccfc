#include "tracing.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
layerOf(const char *name)
{
    std::string s(name);
    const auto dot = s.find('.');
    return dot == std::string::npos ? s : s.substr(0, dot);
}

} // namespace

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

double
SpanRecorder::now() const
{
    return secondsBetween(origin_, Clock::now());
}

int
SpanRecorder::begin(const char *name, long long request)
{
    Span span;
    span.name = name;
    span.start = now();
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    spans_[static_cast<std::size_t>(index)].end = now();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
SpanRecorder::add(const char *name, double start, double end,
                  long long request)
{
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(span);
}

double
SpanRecorder::total(const std::string &name) const
{
    double sum = 0.0;
    for (const auto &s : spans_) {
        if (name == s.name)
            sum += s.end - s.start;
    }
    return sum;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : spans_) {
        if (name == s.name)
            out.push_back(s.end - s.start);
    }
    return out;
}

std::map<std::string, double>
SpanRecorder::layerSelfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const auto &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[layerOf(spans_[i].name)] += self[i];
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}",
                      s.name, layerOf(s.name).c_str(), s.start * 1e6,
                      (s.end - s.start) * 1e6, i, s.parent, s.request);
        os << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

TracingExecutor::TracingExecutor(sim::Executor &inner, SpanRecorder *spans,
                                 double time_scale)
    : inner_(inner), spans_(spans), timeScale_(time_scale)
{
}

sim::EventCallback
TracingExecutor::wrap(sim::SimTime due, sim::EventCallback fn)
{
    const long seq = schedules_.fetch_add(1);
    return [this, seq, due, fn = std::move(fn)] { fire(seq, due, fn); };
}

void
TracingExecutor::fire(long seq, sim::SimTime due, const sim::EventCallback &fn)
{
    const double lag = inner_.now() - due;
    if (lag > 0.0)
        lagMs_.push_back(lag / timeScale_ * 1e3);
    const bool arrival = seq >= arrivalBegin_ && seq < arrivalEnd_;
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double dt = secondsBetween(t0, t1);
    ++callbacks_;
    callbackSeconds_ += dt;
    if (arrival) {
        arrivalUs_.push_back(dt * 1e6);
        if (spans_) {
            const double end = spans_->now();
            spans_->add("serving.arrival", end - dt, end, seq - arrivalBegin_);
        }
    }
}

sim::EventId
TracingExecutor::schedule(sim::SimTime when, sim::EventCallback fn)
{
    return inner_.schedule(when, wrap(when, std::move(fn)));
}

sim::EventId
TracingExecutor::scheduleAfter(sim::SimTime delay, sim::EventCallback fn)
{
    return inner_.scheduleAfter(delay, wrap(inner_.now() + delay,
                                            std::move(fn)));
}

bool
TracingExecutor::cancel(sim::EventId id)
{
    cancels_.fetch_add(1);
    return inner_.cancel(id);
}

std::uint64_t
TracingExecutor::run(sim::SimTime until)
{
    if (!started_) {
        started_ = true;
        arrivalEnd_ = schedules_.load();
        arrivalBegin_ = std::max(0L, arrivalEnd_ - trailingArrivals_);
    }
    const int span = spans_ ? spans_->begin("simcore.run") : -1;
    const auto t0 = Clock::now();
    const auto fired = inner_.run(until);
    runSeconds_ += secondsBetween(t0, Clock::now());
    if (spans_)
        spans_->end(span);
    if (runEndHook_)
        runEndHook_();
    return fired;
}

} // namespace perfbench
