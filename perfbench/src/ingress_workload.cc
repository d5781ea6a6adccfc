/**
 * @file
 * ingress-stream: the only workload on the wall clock.  In-process, a
 * sim::WallClockExecutor at time-scale 400 drives SpotServe (OPT-6.7B on
 * a stable 8-instance spot fleet) behind serving::SocketIngress on
 * loopback.  A single-threaded open-loop Poisson generator sends
 * `gen 512 128` lines over at most four connections and steps through
 * fixed real rates.  There is no churn and no prefix, so anything above
 * modelled time / time-scale is host overhead: the socket front door and
 * the wall-clock driver are the layers under load.
 *
 * Latencies are timed from when each request was due to be sent, so a
 * stall also charges the requests queued behind it; the generator's own
 * lateness is reported.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <unordered_map>

#include "serving/presets.h"
#include "serving/socket_ingress.h"
#include "simcore/wallclock_executor.h"
#include "workloads.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kTimeScale = 400.0;
constexpr int kFleet = 8;
/** Real request rates stepped through, ascending; the nominal one is
 *  where the latency figures are taken. */
constexpr double kRates[] = {300.0, 600.0, 900.0, 1200.0, 1800.0};
constexpr double kNominalRps = 600.0;
/** Real-time limits a rate must meet to count towards max_rate_rps. */
constexpr double kTtftLimitMs = 10.0;
constexpr double kItlLimitMs = 5.0;
/** Modelled (virtual) latency limit of model_slo_attainment. */
constexpr double kSloLimitS = 30.0;
/** Generator fan-out: at most this many connections. */
constexpr int kMaxConnections = 4;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The server under test: executor, fleet, SpotServe and the ingress. */
class Server
{
  public:
    explicit Server(bool traced)
        : executor_(sim::WallClockExecutor::Options{kTimeScale})
    {
        if (traced)
            deco_ = std::make_unique<TracingExecutor>(executor_, nullptr,
                                                      kTimeScale);
        sim::Executor &exec = this->exec();
        const auto spec = model::ModelSpec::opt6_7b();
        const auto params = cost::CostParams::awsG4dn();
        fleet_ = std::make_unique<cluster::InstanceManager>(exec, params);
        requests_ = std::make_unique<serving::RequestManager>(exec);
        core::SpotServeOptions options;
        options.designArrivalRate = kNominalRps / kTimeScale;
        system_ = presets::spotServeFactory(spec, params, cost::SeqSpec{},
                                            options)(exec, *fleet_,
                                                     *requests_);
        base_ = dynamic_cast<serving::BaseServingSystem *>(system_.get());
        base_->setKvObserver([this](const engine::InferencePipeline &p) {
            ++boundaries_;
            if (p.kvBudgetBlocks() > 0) {
                kvUtilSum_ += static_cast<double>(p.kvPhysicalBlocksHeld()) /
                              static_cast<double>(p.kvBudgetBlocks());
                ++kvUtilSamples_;
            }
        });
        fleet_->setListener(system_.get());
        fleet_->loadTrace(cluster::AvailabilityTrace(
            "stable", 7 * 24 * 3600.0,
            {{0.0, cluster::TraceEventKind::Join, cluster::InstanceType::Spot,
              kFleet}}));
        ingress_ = std::make_unique<serving::SocketIngress>(
            exec, *system_, *requests_);
    }

    ~Server() { stop(); }
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Start serving and wait until the first deployment is live. */
    bool start()
    {
        ingress_->start();
        executor_.start();
        const auto t0 = Clock::now();
        while (secondsSince(t0) < 30.0) {
            if (onDriver([this] { return base_->currentConfig().has_value(); }))
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return false;
    }

    void stop()
    {
        if (stopped_)
            return;
        stopped_ = true;
        ingress_->stop();
        executor_.stop();
    }

    /** Run @p fn on the executor's driver thread and return its value. */
    template <typename F> auto onDriver(F fn) -> decltype(fn())
    {
        std::promise<decltype(fn())> promise;
        auto future = promise.get_future();
        exec().scheduleAfter(0.0, [&promise, &fn] { promise.set_value(fn()); });
        return future.get();
    }

    /** (accrued USD, tokens generated) read on the driver thread. */
    std::pair<double, double> costAndTokens()
    {
        return onDriver([this] {
            return std::make_pair(fleet_->accruedCost(exec().now()),
                                  requests_->tokensGenerated());
        });
    }

    int port() const { return ingress_->boundPort(); }
    sim::Executor &exec()
    {
        return deco_ ? static_cast<sim::Executor &>(*deco_) : executor_;
    }
    const TracingExecutor *decorator() const { return deco_.get(); }
    const serving::SocketIngress &ingress() const { return *ingress_; }
    /** Driver-thread counters: read only after stop(). @{ */
    long boundaries() const { return boundaries_; }
    double kvUtilMean() const
    {
        return kvUtilSamples_ > 0 ? kvUtilSum_ / kvUtilSamples_ : 0.0;
    }
    /** @} */

  private:
    sim::WallClockExecutor executor_;
    std::unique_ptr<TracingExecutor> deco_;
    std::unique_ptr<cluster::InstanceManager> fleet_;
    std::unique_ptr<serving::RequestManager> requests_;
    std::unique_ptr<serving::ServingSystem> system_;
    serving::BaseServingSystem *base_ = nullptr;
    std::unique_ptr<serving::SocketIngress> ingress_;
    bool stopped_ = false;
    long boundaries_ = 0;
    double kvUtilSum_ = 0.0;
    long kvUtilSamples_ = 0;
};

/** Client-side record of one request. */
struct Sent
{
    double due = 0.0;
    double sent = -1.0;
    double queued = -1.0;
    double firstToken = -1.0;
    double lastToken = -1.0;
    double done = -1.0;
    double modelLatency = -1.0;
    bool rejected = false;
};

/** One open-loop step at a fixed real rate. */
struct Step
{
    double rate = 0.0;
    std::vector<Sent> sent;
    std::vector<double> ttftMs;
    std::vector<double> itlMs;
    std::vector<double> ackMs;
    double genLateMaxMs = 0.0;
    long refused = 0;
    long errors = 0;
    long lines = 0;
    long backlogHalf = 0;
    long backlogEnd = 0;
    /** CPU seconds of the server's threads (the client's excluded). */
    double cpuSeconds = 0.0;
    double wallSeconds = 0.0;
    double usd = 0.0;
    double tokens = 0.0;

    long failures() const
    {
        long missing = 0;
        for (const auto &s : sent)
            missing += s.done < 0.0 || s.rejected;
        return refused + errors + missing;
    }
    bool backlogGrows() const
    {
        return backlogEnd > backlogHalf + backlogHalf / 2 + 10;
    }
};

struct Conn
{
    int fd = -1;
    std::string inbox;
    std::string outbox;
    std::deque<int> awaitingQueued;
};

int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/**
 * Drive one step: send Poisson arrivals at @p rate for @p window seconds
 * over @p conns connections, then wait up to @p drain seconds for every
 * outstanding request to finish.
 */
Step
runStep(Server &server, double rate, double window, double drain,
        std::uint64_t seed)
{
    Step step;
    step.rate = rate;
    const int nconn = std::max(
        1, std::min<int>(kMaxConnections,
                         static_cast<int>(std::thread::hardware_concurrency())));
    std::vector<Conn> conns;
    for (int i = 0; i < nconn; ++i) {
        const int fd = connectLoopback(server.port());
        if (fd < 0)
            ++step.refused;
        else
            conns.push_back(Conn{fd, {}, {}, {}});
    }
    if (conns.empty())
        return step;

    sim::Rng rng(seed);
    std::unordered_map<long long, int> byId;
    long outstanding = 0;
    const double cpu0 = processCpuSeconds() - callerCpuSeconds();
    const auto [usd0, tok0] = server.costAndTokens();
    const auto t0 = Clock::now();
    auto now = [&t0] { return secondsSince(t0); };
    double next_due = rng.exponential(rate);
    std::size_t rr = 0;
    bool half_taken = false;

    auto handleLine = [&](Conn &c, const char *line, double t) {
        ++step.lines;
        char kind[16] = {0};
        long long id = -1;
        double latency = -1.0;
        if (std::sscanf(line, "%15s %lld %lf", kind, &id, &latency) < 1)
            return;
        if (std::strcmp(kind, "error") == 0) {
            ++step.errors;
            if (!c.awaitingQueued.empty()) {
                c.awaitingQueued.pop_front();
                --outstanding;
            }
            return;
        }
        if (std::strcmp(kind, "queued") == 0) {
            if (c.awaitingQueued.empty())
                return;
            const int idx = c.awaitingQueued.front();
            c.awaitingQueued.pop_front();
            byId[id] = idx;
            step.sent[static_cast<std::size_t>(idx)].queued = t;
            return;
        }
        const auto it = byId.find(id);
        if (it == byId.end())
            return;
        Sent &s = step.sent[static_cast<std::size_t>(it->second)];
        if (std::strcmp(kind, "token") == 0) {
            if (s.firstToken < 0.0)
                s.firstToken = t;
            else
                step.itlMs.push_back((t - s.lastToken) * 1e3);
            s.lastToken = t;
        } else if (std::strcmp(kind, "done") == 0) {
            s.done = t;
            s.modelLatency = latency;
            --outstanding;
        } else if (std::strcmp(kind, "rejected") == 0) {
            s.rejected = true;
            --outstanding;
        }
    };

    std::vector<pollfd> fds(conns.size());
    char buf[65536];
    while (true) {
        const double t = now();
        const bool sending = t < window;
        if (!sending && (outstanding <= 0 || t >= window + drain))
            break;
        if (!half_taken && t >= window / 2) {
            half_taken = true;
            step.backlogHalf = outstanding;
        }
        // Send everything that is due.
        while (sending && next_due <= t && next_due < window) {
            Conn &c = conns[rr++ % conns.size()];
            Sent s;
            s.due = next_due;
            s.sent = t;
            step.genLateMaxMs = std::max(step.genLateMaxMs,
                                         (t - next_due) * 1e3);
            c.awaitingQueued.push_back(static_cast<int>(step.sent.size()));
            step.sent.push_back(s);
            c.outbox += "gen 512 128\n";
            ++outstanding;
            next_due += rng.exponential(rate);
        }
        if (!sending && step.backlogEnd == 0)
            step.backlogEnd = std::max(outstanding, 1L);
        for (std::size_t i = 0; i < conns.size(); ++i) {
            fds[i].fd = conns[i].fd;
            fds[i].events = POLLIN;
            if (!conns[i].outbox.empty())
                fds[i].events |= POLLOUT;
            fds[i].revents = 0;
        }
        const double wait = sending ? std::max(0.0, next_due - now()) : 0.005;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait);
        ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 &&
            errno != EINTR)
            break;
        const double tr = now();
        for (std::size_t i = 0; i < conns.size(); ++i) {
            Conn &c = conns[i];
            if (fds[i].revents & POLLOUT) {
                const ssize_t n =
                    ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
                if (n > 0)
                    c.outbox.erase(0, static_cast<std::size_t>(n));
            }
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            while (true) {
                const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
                if (n <= 0)
                    break;
                c.inbox.append(buf, static_cast<std::size_t>(n));
            }
            std::size_t pos = 0;
            while (true) {
                const auto nl = c.inbox.find('\n', pos);
                if (nl == std::string::npos)
                    break;
                c.inbox[nl] = '\0';
                handleLine(c, c.inbox.c_str() + pos, tr);
                pos = nl + 1;
            }
            c.inbox.erase(0, pos);
        }
        // Writes can be accepted without waiting for POLLOUT.
        for (auto &c : conns) {
            if (c.outbox.empty())
                continue;
            const ssize_t n =
                ::send(c.fd, c.outbox.data(), c.outbox.size(), MSG_NOSIGNAL);
            if (n > 0)
                c.outbox.erase(0, static_cast<std::size_t>(n));
        }
    }
    step.wallSeconds = now();
    step.cpuSeconds = processCpuSeconds() - callerCpuSeconds() - cpu0;
    const auto [usd1, tok1] = server.costAndTokens();
    step.usd = usd1 - usd0;
    step.tokens = tok1 - tok0;
    for (auto &c : conns)
        ::close(c.fd);
    for (const auto &s : step.sent) {
        if (s.firstToken >= 0.0)
            step.ttftMs.push_back((s.firstToken - s.due) * 1e3);
        if (s.queued >= 0.0)
            step.ackMs.push_back((s.queued - s.sent) * 1e3);
    }
    return step;
}

bool
meetsLimits(const Step &s)
{
    return s.failures() == 0 && !s.backlogGrows() &&
           tailOf(s.ttftMs, 99.0).value <= kTtftLimitMs &&
           tailOf(s.itlMs, 99.0).value <= kItlLimitMs;
}

std::string
stepLine(const Step &s)
{
    char buf[256];
    const auto ttft = tailOf(s.ttftMs, 99.0);
    const auto itl = tailOf(s.itlMs, 99.0);
    std::snprintf(buf, sizeof buf,
                  "rate %6.0f/s sent %5zu fail %ld ttft p50 %.3f ms "
                  "p%g %.3f ms itl p%g %.3f ms backlog %ld->%ld late "
                  "%.2f ms cpu %.2f s %s",
                  s.rate, s.sent.size(), s.failures(), medianOf(s.ttftMs),
                  ttft.percentile, ttft.value, itl.percentile, itl.value,
                  s.backlogHalf, s.backlogEnd, s.genLateMaxMs, s.cpuSeconds,
                  meetsLimits(s) ? "meets limits" : "misses limits");
    return buf;
}

} // namespace

Result
runIngressStream(const RunOptions &options)
{
    Result result;
    SpanRecorder spans;
    SpanRecorder *rec = options.trace ? &spans : nullptr;
    const int nsteps = static_cast<int>(std::size(kRates));
    const double drain = 1.0;
    // The nominal step, whose figures are the end-to-end ones, gets 40%
    // of the run; the other steps share 35%.
    const double nominal_window = std::max(2.0, options.seconds * 0.4);
    const double window =
        std::max(1.0, options.seconds * 0.35 / (nsteps - 1) - 0.25);

    // Set-up: server start and deployment warm-up, three times; the
    // last server is the one measured.
    SpeedGauge gauge;
    std::vector<double> setups;
    std::unique_ptr<Server> server;
    for (int rep = 0; rep < 3; ++rep) {
        server.reset();
        ScopedSpan span(rec, "serving.server_start");
        const auto t0 = Clock::now();
        server = std::make_unique<Server>(options.trace);
        if (!server->start())
            throw std::runtime_error("ingress-stream: no deployment came up");
        // Not gauge-scaled: start-up is mostly the modelled engine launch
        // and weight load slept out at time-scale 400.
        setups.push_back(secondsSince(t0));
    }

    double untraced_cpu = 0.0;
    if (options.trace) {
        // Tracing overhead: the nominal step on an untraced server.
        Server plain(false);
        if (plain.start())
            untraced_cpu = runStep(plain, kNominalRps, nominal_window, drain,
                                   sampleSeed(options.seed, 99))
                               .cpuSeconds;
    }

    std::vector<Step> steps;
    const Step *nominal = nullptr;
    double max_rate = 0.0, rss_mb = 0.0;
    std::vector<double> nominal_factors;
    for (int i = 0; i < nsteps; ++i) {
        ScopedSpan span(rec, "serving.ingress.step", i);
        const bool is_nominal = kRates[i] == kNominalRps;
        // Three gauge readings on each side of the nominal step.
        auto read_gauge = [&] {
            for (int g = 0; g < 3; ++g)
                nominal_factors.push_back(gauge.measure());
        };
        if (is_nominal)
            read_gauge();
        steps.push_back(runStep(*server, kRates[i],
                                is_nominal ? nominal_window : window, drain,
                                sampleSeed(options.seed,
                                           static_cast<std::uint64_t>(i))));
        if (is_nominal) {
            read_gauge();
            // Peak RSS up to the nominal rate; the overload steps after
            // it hold a backlog whose size is what they measure.
            rss_mb = peakRssMb();
        }
        const Step &s = steps.back();
        result.notes.push_back(stepLine(s));
        const bool ok = meetsLimits(s);
        if (ok)
            max_rate = s.rate;
        if (!ok && kRates[i] >= kNominalRps)
            break;
    }
    for (const auto &s : steps) {
        if (s.rate == kNominalRps)
            nominal = &s;
    }
    server->stop();
    if (!nominal)
        throw std::runtime_error("ingress-stream: nominal step missing");

    result.digest = "n/a (wall clock)";
    // Failures and latency figures are taken at the nominal rate.
    result.accounting.attempt(static_cast<long>(nominal->sent.size()) +
                              nominal->refused);
    long missing = 0, rejected = 0;
    for (const auto &s : nominal->sent) {
        missing += s.done < 0.0 && !s.rejected;
        rejected += s.rejected;
    }
    result.accounting.fail("refused connects", nominal->refused);
    result.accounting.fail("rejected requests", rejected);
    result.accounting.fail("protocol errors", nominal->errors);
    result.accounting.fail("no done by the deadline", missing);
    result.accounting.check(!nominal->sent.empty(), "nominal step sent work");

    std::vector<double> model_latency;
    long within = 0;
    for (const auto &s : nominal->sent) {
        if (s.done < 0.0)
            continue;
        model_latency.push_back(s.modelLatency);
        within += s.modelLatency <= kSloLimitS;
    }
    auto &e2e = result.endToEnd;
    e2e["setup_s"] = medianOf(setups);
    e2e["host_s"] = nominal->cpuSeconds * medianOf(nominal_factors);
    char host[128];
    std::snprintf(host, sizeof host,
                  "server CPU over the nominal step (raw %.3f s)",
                  nominal->cpuSeconds);
    result.detail["host_s"] = host;
    e2e["model_latency_p50_s"] = medianOf(model_latency);
    result.detail["model_latency_p50_s"] =
        "p50 of n=" + std::to_string(model_latency.size());
    putTail(result, e2e, "model_latency_p99_s", tailOf(model_latency, 99.0));
    e2e["model_slo_attainment"] =
        nominal->sent.empty()
            ? 0.0
            : static_cast<double>(within) / nominal->sent.size();
    e2e["model_usd_per_mtok"] =
        nominal->tokens > 0.0 ? nominal->usd / nominal->tokens * 1e6 : 0.0;

    // The replan the server would run if one of its instances got a
    // notice (and its replacement joined).
    const std::vector<FleetEvent> events = {
        {FleetEvent::Kind::Notice, 1, 0.0}, {FleetEvent::Kind::Join, 1, 0.0}};
    measureReplans(result, gauge, model::ModelSpec::opt6_7b(), kFleet,
                   kNominalRps / kTimeScale, options.seed, events,
                   options.trace ? 1 : 50, rec, true);
    e2e["peak_rss_mb"] = rss_mb;

    auto &pl = result.perLayer;
    pl["failed_frac"] = result.accounting.failedFrac();
    if (!options.trace)
        return result;

    const auto ttft = tailOf(nominal->ttftMs, 99.0);
    pl["ttft_p50_ms"] = medianOf(nominal->ttftMs);
    putTail(result, pl, "ttft_p99_ms", ttft);
    putTail(result, pl, "itl_p99_ms", tailOf(nominal->itlMs, 99.0));
    pl["max_rate_rps"] = max_rate;
    pl["bench.trace_overhead_s"] = nominal->cpuSeconds - untraced_cpu;
    const auto *deco = server->decorator();
    pl["simcore.events"] = static_cast<double>(deco->callbacks());
    pl["simcore.schedules"] = static_cast<double>(deco->schedules());
    pl["simcore.cancels"] = static_cast<double>(deco->cancels());
    pl["simcore.callback_s"] = deco->callbackSeconds();
    pl["simcore.ns_per_event"] =
        deco->callbacks() > 0 ? deco->callbackSeconds() / deco->callbacks() *
                                    1e9
                              : 0.0;
    putTail(result, pl, "simcore.driver_lag_ms_p99",
            tailOf(deco->lagMillis(), 99.0));
    pl["engine.boundaries"] = static_cast<double>(server->boundaries());
    double tokens = 0.0;
    for (const auto &s : steps)
        tokens += s.tokens;
    pl["engine.tokens"] = tokens;
    pl["engine.tokens_per_boundary"] =
        server->boundaries() > 0 ? tokens / server->boundaries() : 0.0;
    pl["engine.kv_util_mean"] = server->kvUtilMean();
    const auto &ing = server->ingress();
    pl["serving.ingress.accepted"] =
        static_cast<double>(ing.connectionsAccepted());
    long refused = 0;
    double lines = 0.0, wall = 0.0, late = 0.0;
    for (const auto &s : steps) {
        refused += s.refused;
        lines += static_cast<double>(s.lines);
        wall += s.wallSeconds;
        late = std::max(late, s.genLateMaxMs);
    }
    pl["serving.ingress.refused"] = static_cast<double>(refused);
    pl["serving.ingress.injected"] =
        static_cast<double>(ing.requestsInjected());
    pl["serving.ingress.protocol_errors"] =
        static_cast<double>(ing.protocolErrors());
    pl["serving.ingress.dropped_slow"] =
        static_cast<double>(ing.clientsDroppedSlow());
    putTail(result, pl, "serving.ingress.ack_ms_p99",
            tailOf(nominal->ackMs, 99.0));
    pl["serving.ingress.lines_per_s"] = wall > 0.0 ? lines / wall : 0.0;
    pl["serving.ingress.gen_late_ms_max"] = late;
    pl["serving.rejected"] = static_cast<double>(rejected);
    pl["workload.requests"] = static_cast<double>(nominal->sent.size());
    writeTrace(result, options, spans);
    return result;
}

} // namespace perfbench
