/**
 * @file
 * Shared plumbing for the per-table / per-figure bench binaries: the
 * paper's sweep values, model-driven time budgets (so a livelocked run
 * is reported as N/A instead of hanging), and slowdown-table printing.
 */

#ifndef NOWCLUSTER_BENCH_BENCH_UTIL_HH_
#define NOWCLUSTER_BENCH_BENCH_UTIL_HH_

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/table.hh"
#include "harness/experiment.hh"
#include "harness/runner.hh"
#include "model/models.hh"
#include "obs/export.hh"
#include "obs/tracer.hh"
#include "svc/store.hh"

namespace nowcluster::bench {

/**
 * Worker count for a bench binary: `--jobs N` on the command line wins,
 * else NOW_JOBS, else one worker per hardware thread. Every bench
 * binary fans its independent simulation points out over this many
 * threads; results are identical at any setting (tests/test_runner.cc).
 */
inline int
jobsArg(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            long v;
            // Strict: `--jobs foo` must fail loudly, not silently run
            // the whole bench single-threaded at atoi's 0.
            fatal_if(!parseLongStrict(argv[i + 1], v) || v < 0 ||
                         v > 4096,
                     "--jobs: '%s' is not a valid worker count",
                     argv[i + 1]);
            return static_cast<int>(v);
        }
    }
    return 0; // runPoints resolves 0 to NOW_JOBS / hardware.
}

/**
 * Attach the content-addressed result store for the binary's lifetime:
 * `--cache-dir D` on the command line wins, else NOW_CACHE_DIR, else
 * this is a no-op. While an instance is alive every runPoints /
 * sweepApps point is served from the store when it hits (byte-identical
 * to recomputation); the destructor prints the hit/miss tally so a
 * warmed bench run is visibly cheap.
 */
class ResultCacheScope
{
  public:
    ResultCacheScope(int argc, char **argv)
    {
        const char *arg = nullptr;
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::strcmp(argv[i], "--cache-dir") == 0)
                arg = argv[i + 1];
        }
        std::string dir = arg ? arg : envCacheDir();
        if (dir.empty())
            return;
        store_ = std::make_unique<svc::ResultStore>(dir);
        cache_ = std::make_unique<svc::StoreCache>(*store_);
        setRunCache(cache_.get());
    }

    ~ResultCacheScope()
    {
        if (!cache_)
            return;
        setRunCache(nullptr);
        std::printf("cache: %llu hits, %llu misses (%s, %zu entries)\n",
                    static_cast<unsigned long long>(cache_->hits()),
                    static_cast<unsigned long long>(cache_->misses()),
                    store_->dir().c_str(), store_->entryCount());
    }

    ResultCacheScope(const ResultCacheScope &) = delete;
    ResultCacheScope &operator=(const ResultCacheScope &) = delete;

  private:
    std::unique_ptr<svc::ResultStore> store_;
    std::unique_ptr<svc::StoreCache> cache_;
};

/**
 * `--trace-out FILE` on any bench binary: run one extra traced
 * baseline of `key` (the binary's representative app) and write the
 * span timeline as Perfetto JSON. The traced run is separate from the
 * sweep itself, so tables and fingerprints are untouched whether or
 * not the flag is given. Returns true if a trace was written.
 */
inline bool
traceOutIfRequested(int argc, char **argv, const std::string &key,
                    int nprocs, double scale)
{
    const char *path = nullptr;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0)
            path = argv[i + 1];
    }
    if (!path)
        return false;
    SpanTracer tracer;
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.seed = 1;
    c.obs = &tracer;
    RunResult r = runApp(key, c);
    if (!writePerfettoJson(tracer, path)) {
        std::fprintf(stderr, "trace-out: cannot write %s\n", path);
        return false;
    }
    std::printf("trace-out: %s baseline (%d procs, scale %g) -> %s "
                "(%zu spans, %zu messages)%s\n",
                key.c_str(), nprocs, scale, path, tracer.spans().size(),
                tracer.messages().size(), r.ok ? "" : " [run not ok]");
    return true;
}

/** Paper display names, keyed like the registry. */
inline std::string
displayName(const std::string &key)
{
    auto app = makeApp(key);
    return app->name();
}

/** The paper's overhead sweep (Figure 5 / Table 5), microseconds. */
inline const std::vector<double> &
overheadSweep()
{
    static const std::vector<double> v = {2.9,  3.9,  4.9,  6.9, 7.9,
                                          12.9, 22.9, 52.9, 102.9};
    return v;
}

/** The paper's gap sweep (Figure 6 / Table 6), microseconds. */
inline const std::vector<double> &
gapSweep()
{
    static const std::vector<double> v = {5.8, 8,  10, 15,
                                          30,  55, 80, 105};
    return v;
}

/** The paper's latency sweep (Figure 7), microseconds. */
inline const std::vector<double> &
latencySweep()
{
    static const std::vector<double> v = {5, 7.5, 10, 15,
                                          30, 55, 80, 105};
    return v;
}

/** The paper's bulk-bandwidth sweep (Figure 8), MB/s. */
inline const std::vector<double> &
bandwidthSweep()
{
    static const std::vector<double> v = {38, 30, 25, 20, 15,
                                          10, 5,  2,  1};
    return v;
}

/** Baseline configuration for a bench run. */
inline RunConfig
baseConfig(int nprocs, double scale)
{
    RunConfig c;
    c.nprocs = nprocs;
    c.scale = scale;
    c.seed = 1;
    return c;
}

/**
 * Virtual-time budget for a knob run: three times what the linear
 * models predict (plus slack). An application that blows this is
 * reported N/A -- which is exactly how the paper reports livelocked
 * Barnes at high overhead.
 */
inline Tick
budgetFor(const RunResult &baseline, const Knobs &knobs)
{
    Tick worst = baseline.runtime;
    std::uint64_t m = baseline.maxMsgsPerProc;
    if (knobs.overheadUs >= 0)
        worst = predictOverhead(worst, m,
                                usec(knobs.overheadUs) - usec(2.9));
    if (knobs.gapUs >= 0)
        worst = predictGapBurst(worst, m, usec(knobs.gapUs) - usec(5.8));
    if (knobs.latencyUs >= 0)
        worst = predictLatencyReads(worst, m,
                                    usec(knobs.latencyUs) - usec(5.0));
    if (knobs.bulkMBps > 0 && knobs.bulkMBps < 38.0) {
        // Crude bound: all bulk bytes at the reduced rate.
        worst += static_cast<Tick>(38.0 / knobs.bulkMBps *
                                   static_cast<double>(baseline.runtime));
    }
    if (knobs.occupancyUs > 0) {
        // Occupancy acts like latency and gap at once.
        Tick occ = usec(knobs.occupancyUs);
        worst = predictGapBurst(predictLatencyReads(worst, m, occ), m,
                                occ);
    }
    if (knobs.window > 0) {
        // A small window throttles bursts to RTT/W per message.
        worst += static_cast<Tick>(m) * usec(30) /
                 std::max(knobs.window, 1);
    }
    return worst * 3 + kSec;
}

/**
 * Baseline run of every app in `keys` at `nprocs`, fanned out across
 * `jobs` workers and served from the result store when one is attached.
 * Built one way everywhere, so over one store Table 3's 32-node runs
 * answer Table 4's, Fig. 4's and each 32-node sweep's baselines.
 */
inline std::vector<RunResult>
runBaselines(const std::vector<std::string> &keys, int nprocs,
             double scale, int jobs = 0)
{
    std::vector<RunPoint> pts;
    pts.reserve(keys.size());
    for (const auto &key : keys)
        pts.push_back(RunPoint{key, baseConfig(nprocs, scale)});
    return runPoints(pts, jobs);
}

/** The point a sweep runs for `key` under `knobs`, budgeted from its
 *  baseline run `base`; unvalidated, since sweeps measure time. */
inline RunPoint
knobPoint(const std::string &key, int nprocs, double scale,
          const RunResult &base, const Knobs &knobs)
{
    RunPoint p{key, baseConfig(nprocs, scale)};
    p.config.knobs = knobs;
    p.config.maxTime = budgetFor(base, knobs);
    p.config.validate = false;
    return p;
}

/** One application's slowdown series over a sweep. */
struct Series
{
    std::string key;
    std::string name;
    RunResult base; ///< The unperturbed run each point is relative to.
    std::vector<double> slowdown; ///< < 0 means N/A (timed out).
    std::vector<Tick> runtime;
};

/**
 * Run several applications over a sweep of one knob, fanning every
 * independent simulation point out across `jobs` workers (0 = auto).
 * Two parallel phases: all baselines first (each sweep point's time
 * budget derives from its app's baseline), then every (app, x) point
 * in one batch. Results are assembled in submission order, so the
 * output is byte-identical for any jobs value.
 * @param set_knob Writes the x-value into a Knobs struct.
 */
template <typename SetKnob>
std::vector<Series>
sweepApps(const std::vector<std::string> &keys, int nprocs, double scale,
          const std::vector<double> &xs, SetKnob &&set_knob, int jobs = 0)
{
    std::vector<RunResult> bases = runBaselines(keys, nprocs, scale, jobs);

    std::vector<RunPoint> pts;
    pts.reserve(keys.size() * xs.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (double x : xs) {
            Knobs k;
            set_knob(k, x);
            pts.push_back(knobPoint(keys[i], nprocs, scale, bases[i], k));
        }
    }
    std::vector<RunResult> rs = runPoints(pts, jobs);

    std::vector<Series> series;
    series.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        Series s;
        s.key = keys[i];
        s.name = displayName(keys[i]);
        s.base = std::move(bases[i]);
        for (std::size_t j = 0; j < xs.size(); ++j) {
            const RunResult &r = rs[i * xs.size() + j];
            s.runtime.push_back(r.runtime);
            s.slowdown.push_back(
                r.ok ? slowdown(r.runtime, s.base.runtime) : -1.0);
        }
        series.push_back(std::move(s));
    }
    return series;
}

/** Print a figure-style table: rows = x values, one column per app. */
inline void
printSlowdownTable(const std::string &title, const std::string &x_label,
                   const std::vector<double> &xs,
                   const std::vector<Series> &series)
{
    std::printf("\n=== %s ===\n", title.c_str());
    Table t;
    {
        auto row = t.row();
        row.cell(x_label);
        for (const auto &s : series)
            row.cell(s.name);
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        auto row = t.row();
        row.cell(xs[i], 1);
        for (const auto &s : series) {
            if (s.slowdown[i] < 0)
                row.cell(std::string("N/A"));
            else
                row.cell(s.slowdown[i], 2);
        }
    }
    t.print();
}

/** Scale from NOW_SCALE with a bench-specific default (cached env
 *  snapshot; see envConfig() for the thread-safety rationale). */
inline double
scaleOr(double fallback)
{
    const EnvConfig &env = envConfig();
    return env.scaleSet ? env.scale : fallback;
}

} // namespace nowcluster::bench

#endif // NOWCLUSTER_BENCH_BENCH_UTIL_HH_
