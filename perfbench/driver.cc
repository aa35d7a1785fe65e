/**
 * @file
 * perfbench_driver: the in-process half of the lab benchmark
 * (perfbench/run.py is the other half and owns the statistics).
 *
 * Each section drives one workload through the layers' public entry
 * points and prints exactly one JSON line on stdout: raw samples,
 * single values, and the attempted/failed tally of its correctness
 * checks. With --trace 1 the section also records spans from this
 * file around every call into a layer and writes them to
 * <work>/spans-<section>.json; the per-layer values come from those
 * spans. Nothing inside the simulator is instrumented here.
 *
 *   perfbench_driver machine
 *   perfbench_driver paper-setup  --scale X --work DIR
 *   perfbench_driver paper-layers --scale X --jobs N --work DIR
 *   perfbench_driver whatif  --seed N --seconds S --trace 0|1 ...
 *   perfbench_driver service --seed N --seconds S --trace 0|1 ...
 *   perfbench_driver scale   --seed N --seconds S --trace 0|1 ...
 *
 * Exit codes: 0 ran (failed checks are in the tally), 2 bad usage,
 * 3 refused to time an unoptimized or sanitizer build.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "apps/app.hh"
#include "backend/backend.hh"
#include "backend/model.hh"
#include "bench_util.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "splitc/splitc.hh"
#include "stats/comm_stats.hh"
#include "svc/codec.hh"
#include "svc/json.hh"
#include "svc/server.hh"
#include "svc/service.hh"
#include "svc/spec.hh"
#include "svc/store.hh"

using namespace nowcluster;

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- command line --------------------------------------------------

struct Args
{
    std::string section;
    std::uint64_t seed = 1;
    double seconds = 5;
    bool trace = false;
    double scale = -1; ///< paper-* sections only, and required there.
    int jobs = 0;      ///< Worker threads; 0 = hardwareJobs().
    std::string work = ".";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    if (argc < 2)
        return false;
    a.section = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        long n = 0;
        double d = 0;
        if (flag == "--seed" && parseLongStrict(v, n) && n >= 0)
            a.seed = static_cast<std::uint64_t>(n);
        else if (flag == "--seconds" && parseDoubleStrict(v, d) && d > 0)
            a.seconds = d;
        else if (flag == "--trace" && parseLongStrict(v, n))
            a.trace = n != 0;
        else if (flag == "--scale" && a.section.rfind("paper-", 0) == 0 &&
                 parseDoubleStrict(v, d) && d > 0)
            a.scale = d;
        else if (flag == "--jobs" && parseLongStrict(v, n) && n >= 0)
            a.jobs = static_cast<int>(n);
        else if (flag == "--work")
            a.work = v;
        else
            return false;
    }
    if (a.jobs <= 0)
        a.jobs = hardwareJobs();
    return a.scale > 0 || a.section.rfind("paper-", 0) != 0;
}

// --- spans ---------------------------------------------------------

/**
 * The benchmark's own span recorder: name, trace (the request or app
 * a span belongs to), parent span, and steady-clock begin/end. Spans
 * stay in memory and are written once at the end. Single-threaded:
 * only the section's main thread opens spans.
 */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    /** Opens a span for its lifetime (no-op when tracing is off). */
    class Scope
    {
      public:
        Scope(Spans &s, const char *name) : s_(s), idx_(s.open(name)) {}
        ~Scope() { s_.close(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &s_;
        long idx_;
    };

    bool on() const { return on_; }
    void setTrace(std::uint64_t id) { trace_ = id; }
    std::size_t size() const { return recs_.size(); }

    /** Summed duration of every span with this name, milliseconds. */
    double totalMs(const std::string &name) const
    {
        std::int64_t ns = 0;
        for (const Rec &r : recs_) {
            if (r.name == name)
                ns += r.end - r.begin;
        }
        return static_cast<double>(ns) / 1e6;
    }

    bool write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fputs("[\n", f);
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            const Rec &r = recs_[i];
            std::fprintf(f,
                         "{\"id\":%zu,\"name\":\"%s\",\"trace\":%llu,"
                         "\"parent\":%ld,\"begin_ns\":%lld,"
                         "\"end_ns\":%lld}%s\n",
                         i, r.name, static_cast<unsigned long long>(r.trace),
                         r.parent, static_cast<long long>(r.begin),
                         static_cast<long long>(r.end),
                         i + 1 < recs_.size() ? "," : "");
        }
        std::fputs("]\n", f);
        return std::fclose(f) == 0;
    }

  private:
    struct Rec
    {
        const char *name; ///< Always a string literal.
        std::uint64_t trace;
        long parent;
        std::int64_t begin;
        std::int64_t end;
    };

    long open(const char *name)
    {
        if (!on_)
            return -1;
        long idx = static_cast<long>(recs_.size());
        long parent = stack_.empty() ? -1 : stack_.back();
        recs_.push_back({name, trace_, parent, nowNs(), 0});
        stack_.push_back(idx);
        return idx;
    }

    void close(long idx)
    {
        if (idx < 0)
            return;
        recs_[static_cast<std::size_t>(idx)].end = nowNs();
        stack_.pop_back();
    }

    bool on_;
    std::uint64_t trace_ = 0;
    std::vector<Rec> recs_;
    std::vector<long> stack_;
};

/** Host cost of one span open/close pair, nanoseconds: multiplied by
 *  a section's span count it is the tracing overhead the section's
 *  traced numbers carry. */
double
spanCostNs()
{
    constexpr int kSpans = 20000;
    Spans probe(true);
    std::int64_t t0 = nowNs();
    for (int i = 0; i < kSpans; ++i)
        Spans::Scope s(probe, "probe");
    return static_cast<double>(nowNs() - t0) / kSpans;
}

// --- report --------------------------------------------------------

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;

    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }

    void print() const
    {
        std::string out = "{\"attempted\":" + std::to_string(attempted) +
                          ",\"failed\":" + std::to_string(failed) +
                          ",\"failures\":[";
        for (std::size_t i = 0; i < failures.size(); ++i)
            out += (i ? "," : "") + svc::jsonQuote(failures[i]);
        out += "],\"values\":{";
        bool first = true;
        for (const auto &[k, v] : values) {
            out += (first ? "" : ",") + svc::jsonQuote(k) + ":" + num(v);
            first = false;
        }
        out += "},\"samples\":{";
        first = true;
        for (const auto &[k, vs] : samples) {
            out += (first ? "" : ",") + svc::jsonQuote(k) + ":[";
            for (std::size_t i = 0; i < vs.size(); ++i)
                out += (i ? "," : "") + num(vs[i]);
            out += "]";
            first = false;
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }

    static std::string num(double v)
    {
        if (!std::isfinite(v))
            return "null";
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }
};

double
msSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

/** Peak resident set of this process so far, MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

LogGPParams
resolved(const RunConfig &c)
{
    LogGPParams p = c.machine.params;
    c.knobs.applyTo(p);
    return p;
}

/**
 * runApp (harness/experiment.cc), one public call at a time, with a
 * span around each: makeApp, App::setup, SplitCRuntime (plus
 * App::prepare), SplitCRuntime::run, summarizeComm (plus commMatrix),
 * App::validate. The caller checks the result's fingerprint against
 * runApp's, so the steps time exactly the work runApp does.
 */
RunResult
steppedRun(const std::string &key, const RunConfig &config, Spans &sp)
{
    Spans::Scope whole(sp, "harness.run_app");
    std::unique_ptr<App> app;
    {
        Spans::Scope s(sp, "apps.make");
        app = makeApp(key);
    }
    {
        Spans::Scope s(sp, "apps.setup");
        app->setup(config.nprocs, config.scale, config.seed);
    }
    LogGPParams params = resolved(config);
    if (config.knobs.simThreads < 0 && envConfig().simThreads >= 0)
        params.simThreads = envConfig().simThreads;
    if (config.knobs.collAlg.empty() && !envConfig().collAlg.empty())
        params.collAlg = envConfig().collAlg;

    std::unique_ptr<SplitCRuntime> rt;
    {
        Spans::Scope s(sp, "splitc.runtime_build");
        rt = std::make_unique<SplitCRuntime>(config.nprocs, params,
                                             config.seed);
        app->prepare(*rt);
    }
    RunResult r;
    {
        Spans::Scope s(sp, "sim.run");
        r.ok = rt->run([&](SplitC &sc) { app->run(sc); }, config.maxTime);
    }
    r.runtime = rt->runtime();
    {
        Spans::Scope s(sp, "stats.summarize");
        r.summary = summarizeComm(rt->cluster(), r.runtime, app->name());
        r.matrix = commMatrix(rt->cluster());
    }
    r.maxMsgsPerProc = r.summary.maxMsgsPerProc;
    r.lockFailures = r.summary.lockFailures;
    r.simEvents = rt->cluster().eventsExecuted();
    r.simShards = rt->cluster().nshards();
    r.metrics = rt->cluster().metrics().snapshot();
    {
        Spans::Scope s(sp, "apps.validate");
        r.validated = r.ok && (!config.validate || app->validate());
    }
    {
        Spans::Scope s(sp, "splitc.runtime_teardown");
        rt.reset();
    }
    return r;
}

void
finishSpans(const Args &a, const Spans &sp, Report &rep)
{
    if (!sp.on())
        return;
    rep.values["obs.bench_spans"] = static_cast<double>(sp.size());
    rep.values["obs.span_cost_ns"] = spanCostNs();
    std::string path = a.work + "/spans-" + a.section + ".json";
    rep.check(sp.write(path), "cannot write " + path);
}

// --- paper: the ten 32-node baselines, layer by layer ----------------

void
paperLayers(const Args &a, Report &rep)
{
    Spans sp(true);
    const double scale = a.scale;
    std::vector<RunPoint> points;
    std::vector<std::string> fps;
    double serial_ms = 0;
    double events = 0, messages = 0, barriers = 0;
    std::uint64_t trace = 0;
    for (const std::string &key : appKeys()) {
        RunPoint pt{key, bench::baseConfig(32, scale)};
        std::int64_t t0 = nowNs();
        RunResult u = runApp(key, pt.config);
        serial_ms += msSince(t0);
        rep.check(u.ok && u.validated, "paper: " + key + " not validated");

        sp.setTrace(++trace);
        RunResult s = steppedRun(key, pt.config, sp);
        rep.check(fingerprint(s) == fingerprint(u),
                  "paper: stepped " + key + " differs from runApp");
        events += static_cast<double>(s.simEvents);
        messages += static_cast<double>(s.metrics.counterOr("am.sent"));
        barriers += static_cast<double>(s.metrics.counterOr("am.barriers"));
        points.push_back(pt);
        fps.push_back(fingerprint(u));
    }

    sp.setTrace(++trace);
    std::vector<RunResult> batch;
    double batch_ms = 0;
    {
        Spans::Scope s(sp, "harness.run_points");
        std::int64_t t0 = nowNs();
        batch = runPoints(points, a.jobs);
        batch_ms = msSince(t0);
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        rep.check(fingerprint(batch[i]) == fps[i],
                  "paper: runPoints " + points[i].app + " differs");
    }

    const double run_ms = sp.totalMs("sim.run");
    auto &v = rep.values;
    v["apps.setup_ms"] = sp.totalMs("apps.setup");
    v["splitc.runtime_build_ms"] = sp.totalMs("splitc.runtime_build");
    v["sim.run_ms"] = run_ms;
    v["stats.summarize_ms"] = sp.totalMs("stats.summarize");
    v["apps.validate_ms"] = sp.totalMs("apps.validate");
    v["sim.events"] = events;
    v["sim.ns_per_event"] = run_ms * 1e6 / std::max(events, 1.0);
    v["am.messages"] = messages;
    v["am.ns_per_message"] = run_ms * 1e6 / std::max(messages, 1.0);
    v["am.barriers"] = barriers;
    v["harness.parallel_eff"] = serial_ms / (a.jobs * batch_ms);
    finishSpans(a, sp, rep);
}

/*
 * Set-up time follows the host's load, which drifts over a few hundred
 * milliseconds: on a 4-vCPU VM, 20-sample bursts of the paper's set-up
 * within one run read 7.4-11 ms. So each untraced run takes its
 * set-ups at several moments and setup_s is the median of all of them:
 * one set-up (whatif) or a burst of kSetupBurst (paper, scale) before
 * each long operation and after the last one. service, whose clients
 * cannot pause, sets up three times before its window and twice after.
 * A traced run sets up only what it measures with; set-up is not a
 * per-layer metric.
 */
constexpr int kSetupBurst = 15;

/** One burst of set-ups of the paper's points: the ten apps' 32-node
 *  worlds (inputs plus runtime). run.py asks for one before each
 *  artifact. */
void
paperSetup(const Args &a, Report &rep)
{
    const double scale = a.scale;
    for (int i = 0; i < kSetupBurst; ++i) {
        std::int64_t t0 = nowNs();
        for (const std::string &key : appKeys()) {
            const RunConfig c = bench::baseConfig(32, scale);
            std::unique_ptr<App> app = makeApp(key);
            app->setup(c.nprocs, c.scale, c.seed);
            SplitCRuntime rt(c.nprocs, resolved(c), c.seed);
            app->prepare(rt);
        }
        rep.samples["setup_s"].push_back(msSince(t0) / 1e3);
    }
}

// --- whatif: the analytic backend ----------------------------------

/** The models' scale, at which the backend serves both. */
constexpr double kWhatifScale = 0.1;

RunPoint
whatifPoint(const std::string &app, std::uint64_t seed)
{
    RunPoint pt{app, bench::baseConfig(32, kWhatifScale)};
    pt.config.seed = seed;
    return pt;
}

void
whatif(const Args &a, Report &rep)
{
    Spans sp(a.trace);
    const std::vector<std::string> apps = {"em3d-read", "sample"};

    // Set-up: build both models from scratch.
    auto buildModels = [&] {
        std::int64_t t0 = nowNs();
        auto be = std::make_unique<backend::AnalyticBackend>();
        for (const std::string &app : apps) {
            backend::AnalyticPrediction p =
                be->predict(whatifPoint(app, a.seed));
            rep.check(p.ok, "whatif: model for " + app + " not built");
        }
        rep.samples["setup_s"].push_back(msSince(t0) / 1e3);
        return be;
    };
    // This backend serves the window; the later builds are samples.
    std::unique_ptr<backend::AnalyticBackend> be = buildModels();

    // Residual calibration: the base point reproduces the measured
    // runtime exactly.
    for (const std::string &app : apps) {
        RunPoint base = whatifPoint(app, a.seed);
        RunResult sim = runApp(app, base.config);
        RunResult an = be->run(base);
        rep.check(sim.ok && sim.validated,
                  "whatif: base " + app + " not validated");
        rep.check(an.runtime == sim.runtime,
                  "whatif: base point of " + app + " not reproduced");
    }

    // The L x o x g x G grid over the paper's sweep ranges, in an
    // order drawn from the seed.
    std::vector<Knobs> grid;
    for (double l : bench::latencySweep())
        for (double o : bench::overheadSweep())
            for (double g : bench::gapSweep())
                for (double mbps : bench::bandwidthSweep()) {
                    Knobs k;
                    k.latencyUs = l;
                    k.overheadUs = o;
                    k.gapUs = g;
                    k.bulkMBps = mbps;
                    grid.push_back(k);
                }
    std::mt19937_64 rng(a.seed);
    std::shuffle(grid.begin(), grid.end(), rng);
    auto pointAt = [&](const std::string &app, std::size_t i) {
        RunPoint pt = whatifPoint(app, a.seed);
        pt.config.knobs = grid[i % grid.size()];
        return pt;
    };

    // One what-if operation answers the whole grid on every model, as
    // regenerating every what-if table does; each takes seconds. A
    // single point takes under a millisecond, and on a shared 4-vCPU VM
    // its latency is bimodal (0.55 vs 0.85 ms) in host episodes of
    // seconds, so a run's per-point median read either mode: 0.56-0.85
    // ms over ten runs. Per-point latency is a per-layer metric.
    // Untraced, at least three grids, so one disturbed grid cannot move
    // the median.
    std::vector<double> &lat = rep.samples["op_ms"];
    std::vector<double> &point_ms = rep.samples["point_ms"];
    std::uint64_t served = 0, asked = 0;
    double measured_s = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
    do {
        if (!sp.on())
            buildModels();
        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            sp.setTrace(i);
            std::int64_t p0 = nowNs();
            for (const std::string &app : apps) {
                backend::AnalyticPrediction p;
                {
                    Spans::Scope s(sp, "backend.predict");
                    p = be->predict(pointAt(app, i));
                }
                ++asked;
                served += p.ok;
                rep.check(p.ok, "whatif: predict not ok for " + app);
            }
            if (sp.on())
                point_ms.push_back(msSince(p0));
        }
        lat.push_back(msSince(t0));
        measured_s += lat.back() / 1e3;
    } while (nowNs() < deadline || (!sp.on() && lat.size() < 3));
    rep.values["measured_s"] = measured_s;
    rep.values["backend.served_frac"] =
        static_cast<double>(served) / std::max<std::uint64_t>(asked, 1);
    if (!sp.on())
        buildModels();

    // Held-out points: grid points no model was built or probed at,
    // drawn by their own stream and answered by the simulator as the
    // reference.
    std::mt19937_64 pick(a.seed ^ 0x5eedfaceULL);
    double err_max = 0;
    for (int i = 0; i < 6; ++i) {
        const RunPoint pt = pointAt(apps[i % apps.size()], pick());
        RunResult sim = runApp(pt.app, pt.config);
        backend::AnalyticPrediction p = be->predict(pt);
        bool ok = sim.ok && p.ok;
        rep.check(ok, "whatif: held-out point of " + pt.app + " failed");
        if (ok) {
            double sim_t = static_cast<double>(sim.runtime);
            err_max = std::max(err_max,
                               std::fabs(p.runtime - sim_t) / sim_t * 100);
        }
    }
    rep.values["backend.err_pct_max"] = err_max;

    if (!sp.on())
        return;

    // The model build one public call at a time: the traced base run
    // (vs the same run untraced), AnalyticModel::build, the 4x-latency
    // probe, then AnalyticModel::predict alone.
    double untraced_ms = 0, obs_spans = 0, nodes = 0, edges = 0;
    std::vector<double> &solve_us = rep.samples["backend.solve_us"];
    double solve_ns = 0, solve_edges = 0;
    std::uint64_t trace = 1u << 30;
    for (const std::string &app : apps) {
        sp.setTrace(++trace);
        RunPoint base = whatifPoint(app, a.seed);
        base.config.validate = false;
        std::int64_t t0 = nowNs();
        RunResult plain = runApp(app, base.config);
        untraced_ms += msSince(t0);

        SpanTracer tracer;
        RunConfig tc = base.config;
        tc.obs = &tracer;
        RunResult traced;
        {
            Spans::Scope s(sp, "obs.traced_run");
            traced = runApp(app, tc);
        }
        rep.check(fingerprint(traced) == fingerprint(plain),
                  "whatif: tracing changed " + app + "'s result");
        obs_spans += static_cast<double>(tracer.spans().size());

        const LogGPParams bp = resolved(base.config);
        backend::AnalyticModel model;
        bool built = false;
        {
            Spans::Scope s(sp, "backend.lower");
            built = model.build(tracer, bp, traced.runtime);
        }
        rep.check(built, "whatif: " + app + " did not lower");

        RunConfig probe = base.config;
        probe.knobs.latencyUs =
            static_cast<double>(bp.totalLatency()) / kUsec * 4;
        {
            Spans::Scope s(sp, "backend.probe");
            rep.check(runApp(app, probe).ok, "whatif: probe failed");
        }
        nodes += static_cast<double>(model.stats().lpNodes);
        edges += static_cast<double>(model.stats().lpEdges);

        for (std::size_t i = 0; i < 100; ++i) {
            const LogGPParams tp = resolved(pointAt(app, i).config);
            std::int64_t s0 = nowNs();
            {
                Spans::Scope s(sp, "backend.solve");
                model.predict(tp);
            }
            double ns = static_cast<double>(nowNs() - s0);
            solve_us.push_back(ns / 1e3);
            solve_ns += ns;
            solve_edges += static_cast<double>(model.stats().lpEdges);
        }
    }
    const double traced_ms = sp.totalMs("obs.traced_run");
    auto &v = rep.values;
    v["obs.traced_run_ms"] = traced_ms;
    v["obs.spans"] = obs_spans;
    v["obs.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100;
    v["backend.lower_ms"] = sp.totalMs("backend.lower");
    v["backend.probe_ms"] = sp.totalMs("backend.probe");
    v["backend.lp_nodes"] = nodes;
    v["backend.lp_edges"] = edges;
    v["backend.solve_ns_per_edge"] = solve_ns / std::max(solve_edges, 1.0);
    finishSpans(a, sp, rep);
}

// --- service: nowlabd on loopback ----------------------------------

std::string
submitLine(const std::string &app, std::uint64_t seed)
{
    return "{\"op\":\"submit\",\"app\":\"" + app +
           "\",\"procs\":4,\"scale\":0.05,\"seed\":" +
           std::to_string(seed) + "}";
}

/** The part of a get reply that must not depend on which job or
 *  whether the store answered: everything from "app" on. */
std::string
resultPart(const std::string &reply)
{
    std::size_t at = reply.find("\"app\":");
    return at == std::string::npos ? std::string() : reply.substr(at);
}

struct OpResult
{
    bool ok = false;
    bool cached = false;
    std::uint64_t id = 0;
    std::string get; ///< The get reply.
};

/** One closed-loop operation: submit, status until done, get. */
OpResult
submitStatusGet(svc::Client &c, const std::string &line)
{
    OpResult out;
    std::string reply;
    svc::JsonValue j;
    if (!c.request(line, reply) || !svc::parseJson(reply, j) ||
        !j.boolOr("ok", false))
        return out;
    out.id = static_cast<std::uint64_t>(j.numberOr("id", 0));
    out.cached = j.boolOr("cached", false);
    const std::string idf = ",\"id\":" + std::to_string(out.id) + "}";
    for (;;) {
        if (!c.request("{\"op\":\"status\"" + idf, reply) ||
            !svc::parseJson(reply, j) || !j.boolOr("ok", false))
            return out;
        std::string state = j.stringOr("state", "");
        if (state == "done")
            break;
        if (state == "failed")
            return out;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!c.request("{\"op\":\"get\"" + idf, out.get) ||
        !svc::parseJson(out.get, j))
        return out;
    out.ok = j.boolOr("ok", false) && j.boolOr("run_ok", false) &&
             j.boolOr("validated", false);
    return out;
}

RunPoint
pointOfLine(const std::string &line)
{
    svc::JsonValue j;
    svc::parseJson(line, j);
    return svc::pointOfRequest(j);
}

std::string
fingerprintOf(const std::string &getReply)
{
    svc::JsonValue j;
    if (!svc::parseJson(getReply, j))
        return "";
    return j.stringOr("fingerprint", "");
}

template <typename F>
std::vector<double>
timeUs(int n, F &&f)
{
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        std::int64_t t0 = nowNs();
        f(i);
        out.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return out;
}

void
service(const Args &a, Report &rep)
{
    namespace fs = std::filesystem;
    Spans sp(a.trace);
    const std::vector<std::string> apps = {"em3d-write", "nowsort"};
    constexpr int kHitSet = 64;
    // Misses are kept rare: a put holds the store lock across its
    // fsyncs, so the hits queued behind it follow the disk, and a miss
    // costs a client about sixty hits. Run to run, hit latency moved
    // 60% at a quarter misses, p90 25% at 2% (where it sat between
    // waiting and free hits) and throughput 18% at 1%.
    constexpr double kHitShare = 0.995;
    // Input seeds derive from the workload seed; misses take seeds no
    // hit spec and no other client uses.
    const std::uint64_t hit_base = (a.seed % 100000) * 1000000 + 1;
    std::vector<std::string> hit_lines;
    for (int i = 0; i < kHitSet; ++i)
        hit_lines.push_back(submitLine(apps[i % apps.size()],
                                       hit_base + static_cast<unsigned>(i)));

    // Set-up: start a server on an empty store and fill the hit working
    // set. Every fill must give the first fill's results.
    std::vector<std::string> first(kHitSet);
    std::vector<std::string> first_fp(kHitSet);
    int setups = 0;
    auto startFilled = [&]() -> std::unique_ptr<svc::NowlabServer> {
        std::string dir = a.work + "/svc-store-" + std::to_string(setups++);
        fs::remove_all(dir);
        std::int64_t t0 = nowNs();
        svc::ServiceConfig cfg;
        cfg.jobs = a.jobs;
        cfg.cacheDir = dir;
        auto s = std::make_unique<svc::NowlabServer>(cfg, 0);
        bool up = s->start();
        rep.check(up, "service: server did not start");
        if (!up)
            return nullptr;
        svc::Client c("127.0.0.1", s->port());
        for (int i = 0; i < kHitSet; ++i) {
            OpResult r = submitStatusGet(c, hit_lines[i]);
            rep.check(r.ok && !r.cached, "service: fill op failed");
            if (first[i].empty()) {
                first[i] = resultPart(r.get);
                first_fp[i] = fingerprintOf(r.get);
            }
            rep.check(resultPart(r.get) == first[i],
                      "service: fill differs across set-ups");
        }
        rep.samples["setup_s"].push_back(msSince(t0) / 1e3);
        return s;
    };
    auto stop = [](std::unique_ptr<svc::NowlabServer> &s) {
        s->requestStop();
        s->wait();
        s.reset();
    };
    // The last server started before the window serves it.
    std::unique_ptr<svc::NowlabServer> srv;
    for (int i = 0; i < (a.trace ? 1 : 3); ++i) {
        if (srv)
            stop(srv);
        srv = startFilled();
        if (!srv)
            return;
    }
    const int port = srv->port();

    // Closed loop: each client waits for its reply before the next
    // request.
    struct ClientOut
    {
        std::vector<double> hit_ms, miss_ms;
        std::vector<std::pair<std::string, std::string>> misses;
        std::vector<std::string> failures;
        std::uint64_t hit_id = 0;
    };
    const int clients = std::min(4, a.jobs);
    std::vector<ClientOut> outs(static_cast<std::size_t>(clients));
    // The job table keeps every job, so the process grows with the
    // operations served. Its peak is read once kRssOps operations have
    // completed, so that it does not depend on throughput.
    constexpr std::uint64_t kRssOps = 20000;
    std::atomic<std::uint64_t> done{0};
    std::atomic<double> rss_mb{0};
    const std::int64_t t_start = nowNs();
    const std::int64_t deadline =
        t_start + static_cast<std::int64_t>(a.seconds * 1e9);
    {
        std::vector<std::thread> threads;
        for (int ci = 0; ci < clients; ++ci) {
            threads.emplace_back([&, ci] {
                ClientOut &o = outs[static_cast<std::size_t>(ci)];
                std::mt19937_64 rng(a.seed * 1000 + static_cast<unsigned>(ci));
                std::uniform_real_distribution<double> u(0, 1);
                svc::Client c("127.0.0.1", port);
                std::uint64_t miss_seed =
                    hit_base + 100000 + static_cast<std::uint64_t>(ci) * 100000;
                while (nowNs() < deadline) {
                    bool hit = u(rng) < kHitShare;
                    int h = static_cast<int>(rng() % kHitSet);
                    std::string line =
                        hit ? hit_lines[h]
                            : submitLine(apps[rng() % apps.size()],
                                         miss_seed++);
                    std::int64_t t0 = nowNs();
                    OpResult r = submitStatusGet(c, line);
                    double ms = msSince(t0);
                    if (done.fetch_add(1) + 1 == kRssOps)
                        rss_mb = peakRssMb();
                    if (!r.ok) {
                        o.failures.push_back("service: op failed: " + line);
                        continue;
                    }
                    if (hit) {
                        o.hit_ms.push_back(ms);
                        o.hit_id = r.id;
                        if (!r.cached || resultPart(r.get) != first[h])
                            o.failures.push_back(
                                "service: hit differs from first "
                                "computation: " + line);
                    } else {
                        o.miss_ms.push_back(ms);
                        if (r.cached)
                            o.failures.push_back("service: miss hit: " + line);
                        o.misses.emplace_back(line, fingerprintOf(r.get));
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double measured_s = msSince(t_start) / 1e3;

    std::uint64_t hit_id = 0;
    std::vector<std::pair<std::string, std::string>> misses;
    std::vector<double> &hit_ms = rep.samples["hit_ms"];
    std::vector<double> &miss_ms = rep.samples["miss_ms"];
    for (ClientOut &o : outs) {
        hit_ms.insert(hit_ms.end(), o.hit_ms.begin(), o.hit_ms.end());
        miss_ms.insert(miss_ms.end(), o.miss_ms.begin(), o.miss_ms.end());
        rep.attempted += o.hit_ms.size() + o.miss_ms.size() +
                         o.failures.size();
        rep.failed += o.failures.size();
        for (std::string &f : o.failures) {
            if (rep.failures.size() < 20)
                rep.failures.push_back(std::move(f));
        }
        misses.insert(misses.end(), o.misses.begin(), o.misses.end());
        if (o.hit_id)
            hit_id = o.hit_id;
    }
    rep.values["measured_s"] = measured_s;
    if (done < kRssOps) {
        std::fprintf(stderr, "perfbench_driver: %llu operations; peak RSS "
                             "read at the end\n",
                     static_cast<unsigned long long>(done.load()));
        rss_mb = peakRssMb();
    }
    rep.values["peak_rss_mb"] = rss_mb;
    for (int i = 0; i < (a.trace ? 0 : 2); ++i) {
        if (auto s = startFilled())
            stop(s);
    }

    MetricsSnapshot snap = srv->core().metricsSnapshot();
    const Histogram *qw = nullptr;
    if (auto it = snap.histograms.find("svc.queue_wait");
        it != snap.histograms.end())
        qw = &it->second;
    rep.values["harness.queue_wait_ms"] =
        qw && qw->count() ? toMsec(qw->sum()) / qw->count() : 0;
    rep.values["svc.hit_ratio"] =
        static_cast<double>(snap.counterOr("svc.cache.hits")) /
        std::max<std::uint64_t>(snap.counterOr("svc.submits"), 1);

    // Every get reply must match a direct runApp fingerprint: the
    // fill's first computations, then every miss.
    for (int i = 0; i < kHitSet; ++i)
        misses.emplace(misses.begin() + i, hit_lines[i], first_fp[i]);
    std::vector<RunPoint> direct_points;
    for (const auto &[line, fp] : misses)
        direct_points.push_back(pointOfLine(line));
    std::vector<RunResult> direct = runPoints(direct_points, a.jobs);
    for (std::size_t i = 0; i < direct.size(); ++i) {
        rep.check(fingerprint(direct[i]) == misses[i].second,
                  "service: result differs from runApp: " +
                      misses[i].first);
    }

    if (sp.on()) {
        // Each step of a hit and of a miss, called directly.
        const RunPoint pt = pointOfLine(hit_lines[0]);
        const RunResult res = runApp(pt.app, pt.config);
        auto &v = rep.samples;
        std::string key, payload;
        {
            Spans::Scope s(sp, "svc.cachekey");
            v["svc.cachekey_us"] =
                timeUs(500, [&](int) { key = svc::cacheKey(pt); });
        }
        {
            Spans::Scope s(sp, "svc.encode");
            v["svc.encode_us"] =
                timeUs(500, [&](int) { payload = svc::encodeResult(res); });
        }
        std::string micro = a.work + "/svc-micro";
        fs::remove_all(micro);
        svc::ResultStore store(micro);
        std::vector<std::string> keys;
        for (int i = 0; i < 20; ++i) {
            RunPoint q = pt;
            q.config.seed += static_cast<unsigned>(i) + 1;
            keys.push_back(svc::cacheKey(q));
        }
        {
            Spans::Scope s(sp, "svc.store_put");
            std::vector<double> put_ms = timeUs(20, [&](int i) {
                rep.check(store.put(keys[i], payload), "service: put failed");
            });
            for (double &t : put_ms)
                t /= 1e3;
            v["svc.store_put_ms"] = put_ms;
        }
        {
            Spans::Scope s(sp, "svc.store_get");
            std::string got;
            v["svc.store_get_us"] = timeUs(500, [&](int i) {
                store.get(keys[i % keys.size()], got);
            });
            rep.check(got == payload, "service: store get differs");
        }
        {
            Spans::Scope s(sp, "svc.decode");
            RunResult back;
            v["svc.decode_us"] = timeUs(
                500, [&](int) { svc::decodeResult(payload, back); });
            rep.check(fingerprint(back) == fingerprint(res),
                      "service: decode differs");
        }
        {
            Spans::Scope s(sp, "svc.reply");
            v["svc.reply_us"] = timeUs(500, [&](int) {
                svc::resultReply(1, "done", true, pt, res);
            });
        }
        const std::string get_line =
            "{\"op\":\"get\",\"id\":" + std::to_string(hit_id) + "}";
        {
            Spans::Scope s(sp, "svc.handle");
            v["svc.handle_us"] = timeUs(
                500, [&](int) { srv->core().handleLine(get_line); });
        }
        {
            Spans::Scope s(sp, "svc.roundtrip");
            svc::Client c("127.0.0.1", port);
            std::string reply;
            v["svc.roundtrip_us"] =
                timeUs(500, [&](int) { c.request(get_line, reply); });
            rep.check(reply == srv->core().handleLine(get_line),
                      "service: loopback reply differs from handleLine");
        }
        // A miss's simulation alone, serially (direct_points holds the
        // hit set first).
        std::vector<double> &miss_run_ms = v["sim.miss_run_ms"];
        for (std::size_t i = kHitSet;
             i < direct_points.size() && i < kHitSet + 20; ++i) {
            Spans::Scope s(sp, "sim.miss_run");
            const RunPoint &q = direct_points[i];
            std::int64_t t0 = nowNs();
            runApp(q.app, q.config);
            miss_run_ms.push_back(msSince(t0));
        }
    }

    srv->requestStop();
    srv->wait();
    srv.reset();
    finishSpans(a, sp, rep);
}

// --- scale: 1024 nodes on the sharded engine ------------------------

RunConfig
scaleConfig(std::uint64_t seed, int threads)
{
    RunConfig c = bench::baseConfig(1024, 0.01);
    c.seed = seed;
    c.knobs.topo = 1;
    c.knobs.topoHosts = 32;
    c.knobs.topoOversub = 4;
    c.knobs.simThreads = threads;
    return c;
}

void
scale(const Args &a, Report &rep)
{
    Spans sp(a.trace);
    const std::string app_key = "radix";
    // The timed runs use the sharded engine on one thread: its shards,
    // lookahead windows and SPSC merges, without cross-thread barriers.
    // On nproc threads every window ends in a barrier whose wake-ups the
    // VM's host schedules; on a 4-vCPU VM ten such runs took 8.8-37 s.
    // (Ten benchmark runs at 3 threads, median of three runs each.)
    // That run is checked here; the traced run times it once, which is
    // a reading, not a keep-or-delete verdict on the threaded executor.
    const RunConfig one_cfg = scaleConfig(a.seed, 1);
    const RunConfig all_cfg = scaleConfig(a.seed, a.jobs);

    if (!sp.on()) {
        // Set-up: the 1024-node world (inputs plus runtime), a burst
        // before each run and one after the last.
        auto setupBurst = [&] {
            for (int i = 0; i < kSetupBurst; ++i) {
                std::int64_t t0 = nowNs();
                std::unique_ptr<App> app = makeApp(app_key);
                app->setup(one_cfg.nprocs, one_cfg.scale, one_cfg.seed);
                SplitCRuntime rt(one_cfg.nprocs, resolved(one_cfg),
                                 one_cfg.seed);
                app->prepare(rt);
                rep.samples["setup_s"].push_back(msSince(t0) / 1e3);
            }
        };
        std::vector<std::string> fps;
        double measured_s = 0;
        const std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(a.seconds * 1e9);
        // At least three runs, so one disturbed run cannot move the
        // median.
        do {
            setupBurst();
            std::int64_t t0 = nowNs();
            RunResult r = runApp(app_key, one_cfg);
            rep.samples["op_ms"].push_back(msSince(t0));
            measured_s += rep.samples["op_ms"].back() / 1e3;
            rep.check(r.ok && r.validated, "scale: run not validated");
            fps.push_back(fingerprint(r));
        } while (nowNs() < deadline || fps.size() < 3);
        rep.values["measured_s"] = measured_s;
        setupBurst();
        RunResult all = runApp(app_key, all_cfg);
        rep.check(all.ok && all.validated, "scale: threaded run failed");
        for (const std::string &fp : fps) {
            rep.check(fp == fingerprint(all),
                      "scale: fingerprint differs across thread counts");
        }
        return;
    }

    // Traced: the classic engine, the sharded engine on every thread,
    // then on one thread one call at a time.
    std::int64_t t0 = nowNs();
    RunResult classic = runApp(app_key, scaleConfig(a.seed, 0));
    const double classic_s = msSince(t0) / 1e3;
    t0 = nowNs();
    RunResult all = runApp(app_key, all_cfg);
    const double all_s = msSince(t0) / 1e3;
    sp.setTrace(1);
    RunResult one = steppedRun(app_key, one_cfg, sp);
    const double one_s = sp.totalMs("harness.run_app") / 1e3;
    rep.check(classic.ok && classic.validated, "scale: classic failed");
    rep.check(one.ok && one.validated, "scale: sharded run failed");
    rep.check(fingerprint(all) == fingerprint(one),
              "scale: fingerprint differs across thread counts");

    auto &v = rep.values;
    v["sim.classic_s"] = classic_s;
    v["sim.sharded1_s"] = one_s;
    v["sim.parallel_speedup"] = one_s / all_s;
    v["sim.events_1024"] = static_cast<double>(one.simEvents);
    v["sim.ns_per_event_1024"] = sp.totalMs("sim.run") * 1e6 /
                                 std::max<double>(one.simEvents, 1);
    v["sim.shards"] = one.simShards;
    v["splitc.runtime_build_ms_1024"] = sp.totalMs("splitc.runtime_build");
    v["sim.shard_drift_pct"] =
        std::fabs(static_cast<double>(classic.runtime) -
                  static_cast<double>(one.runtime)) /
        static_cast<double>(classic.runtime) * 100;
    finishSpans(a, sp, rep);
}

// --- machine -------------------------------------------------------

bool
sanitized()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::strlen(PERFBENCH_SANITIZE) > 0;
#endif
}

bool
optimized()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

void
machine()
{
    std::printf("{\"hardware_concurrency\":%u,\"build_type\":%s,"
                "\"optimized\":%s,\"sanitized\":%s,\"compiler\":%s}\n",
                std::thread::hardware_concurrency(),
                svc::jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
                optimized() ? "true" : "false",
                sanitized() ? "true" : "false",
                svc::jsonQuote(__VERSION__).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver machine|paper-setup|paper-layers|"
                     "whatif|"
                     "service|scale [--seed N] [--seconds S] [--trace 0|1] "
                     "[--scale X] [--jobs N] [--work DIR]\n");
        return 2;
    }
    if (a.section == "machine") {
        machine();
        return 0;
    }
    if (!optimized() || sanitized()) {
        std::fprintf(stderr, "perfbench_driver: refusing to time a %s "
                             "build\n",
                     sanitized() ? "sanitizer" : "unoptimized");
        return 3;
    }
    Report rep;
    if (a.section == "paper-setup")
        paperSetup(a, rep);
    else if (a.section == "paper-layers")
        paperLayers(a, rep);
    else if (a.section == "whatif")
        whatif(a, rep);
    else if (a.section == "service")
        service(a, rep);
    else if (a.section == "scale")
        scale(a, rep);
    else
        return 2;
    rep.print();
    return 0;
}
