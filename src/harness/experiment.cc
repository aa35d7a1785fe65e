#include "harness/experiment.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "apps/app.hh"
#include "base/bytes.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "coll/tuned/tuner.hh"
#include "splitc/splitc.hh"

namespace nowcluster {

void
Knobs::applyTo(LogGPParams &params) const
{
    if (overheadUs >= 0)
        params.setDesiredOverheadUsec(overheadUs);
    if (gapUs >= 0)
        params.setDesiredGapUsec(gapUs);
    if (latencyUs >= 0)
        params.setDesiredLatencyUsec(latencyUs);
    if (bulkMBps > 0)
        params.setBulkMBps(bulkMBps);
    if (occupancyUs >= 0)
        params.setOccupancyUsec(occupancyUs);
    if (window > 0)
        params.window = window;
    if (dropRate >= 0 || dupRate >= 0 || corruptRate >= 0 ||
        reorderRate >= 0) {
        params.fault.enabled = true;
        if (dropRate >= 0)
            params.fault.dropRate = dropRate;
        if (dupRate >= 0)
            params.fault.dupRate = dupRate;
        if (corruptRate >= 0)
            params.fault.corruptRate = corruptRate;
        if (reorderRate >= 0)
            params.fault.reorderRate = reorderRate;
    }
    if (reorderMaxDelayUs >= 0)
        params.fault.reorderMaxDelay = usec(reorderMaxDelayUs);
    if (faultSeed >= 0)
        params.fault.seed = static_cast<std::uint64_t>(faultSeed);
    if (delayNode >= 0 && delayUs > 0) {
        // Scripted-only: rates stay zero, so enabling the model here
        // draws no randomness and the run stays exactly deterministic.
        params.fault.enabled = true;
        params.fault.delays.push_back(
            {static_cast<NodeId>(delayNode),
             usec(delayAtUs > 0 ? delayAtUs : 0), usec(delayUs)});
    }
    if (reliable >= 0)
        params.reliable = reliable != 0;
    if (retxTimeoutUs > 0)
        params.retxTimeout = usec(retxTimeoutUs);
    if (topo > 0 || topoHosts > 0 || topoLinkMBps > 0 ||
        topoOversub > 0 || topoHopUs >= 0) {
        params.topo = topo != 0;
        if (topoHosts > 0)
            params.topoHostsPerLeaf = topoHosts;
        if (topoLinkMBps > 0)
            params.topoLinkMBps = topoLinkMBps;
        if (topoOversub > 0)
            params.topoOversub = topoOversub;
        if (topoHopUs >= 0)
            params.topoHopLatency = usec(topoHopUs);
    }
    if (simThreads >= 0)
        params.simThreads = simThreads;
    if (simShards >= 0)
        params.simShards = simShards;
    if (!collAlg.empty())
        params.collAlg = collAlg;
}

const std::vector<KnobSpec> &
knobTable()
{
    using K = KnobKind;
    static const std::vector<KnobSpec> kTable = {
        {"overhead", K::kReal, &Knobs::overheadUs},
        {"gap", K::kReal, &Knobs::gapUs},
        {"latency", K::kReal, &Knobs::latencyUs},
        {"mbps", K::kReal, &Knobs::bulkMBps},
        {"occupancy", K::kReal, &Knobs::occupancyUs},
        {"window", K::kCount, &Knobs::window},
        {"drop", K::kRate, &Knobs::dropRate},
        {"dup", K::kRate, &Knobs::dupRate},
        {"corrupt", K::kRate, &Knobs::corruptRate},
        {"reorder", K::kRate, &Knobs::reorderRate},
        {"reorder-delay", K::kReal, &Knobs::reorderMaxDelayUs},
        {"fault-seed", K::kCount, &Knobs::faultSeed},
        {"reliable", K::kCount, &Knobs::reliable},
        {"rto", K::kReal, &Knobs::retxTimeoutUs},
        {"delay-node", K::kCount, &Knobs::delayNode},
        {"delay-at", K::kReal, &Knobs::delayAtUs},
        {"delay-us", K::kReal, &Knobs::delayUs},
        // A bare --topo enables the fat-tree with its defaults.
        {"topo", K::kCount, &Knobs::topo, "1"},
        {"topo-hosts", K::kCount, &Knobs::topoHosts},
        {"topo-mbps", K::kReal, &Knobs::topoLinkMBps},
        {"topo-oversub", K::kReal, &Knobs::topoOversub},
        {"topo-hop", K::kReal, &Knobs::topoHopUs},
        {"sim-threads", K::kCount, &Knobs::simThreads},
        {"sim-shards", K::kCount, &Knobs::simShards},
        {"coll-alg", K::kString, &Knobs::collAlg},
    };
    return kTable;
}

const KnobSpec *
findKnob(const std::string &key)
{
    for (const KnobSpec &s : knobTable()) {
        if (key == s.key)
            return &s;
    }
    return nullptr;
}

std::string
knobRefusal(const KnobSpec &spec, const std::string &what)
{
    static const char *const kTakes[] = {
        "a non-negative number", "a non-negative integer",
        "a rate in [0, 1]", "a string"};
    return std::string("knob '") + spec.key + "' takes " +
           kTakes[static_cast<int>(spec.kind)] + ", not " + what;
}

std::string
setKnob(Knobs &k, const KnobSpec &spec, double v)
{
    if (spec.kind == KnobKind::kString)
        return knobRefusal(spec, "a number");
    // Counts must convert exactly: an int field up to INT_MAX, a long
    // one up to 2^53, where doubles stop holding every integer.
    const bool isInt = std::holds_alternative<int Knobs::*>(spec.field);
    const bool legal =
        v >= 0 && (spec.kind != KnobKind::kRate || v <= 1) &&
        (spec.kind != KnobKind::kCount ||
         (v == std::floor(v) &&
          v <= (isInt ? std::numeric_limits<int>::max() : 0x1p53)));
    if (!legal) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "'%g'", v);
        return knobRefusal(spec, buf);
    }
    if (auto *f = std::get_if<double Knobs::*>(&spec.field))
        k.*(*f) = v;
    else if (isInt)
        k.*std::get<int Knobs::*>(spec.field) = static_cast<int>(v);
    else
        k.*std::get<long Knobs::*>(spec.field) = static_cast<long>(v);
    return "";
}

std::string
setKnob(Knobs &k, const KnobSpec &spec, const std::string &text)
{
    if (spec.kind != KnobKind::kString) {
        double v;
        if (!parseDoubleStrict(text, v))
            return knobRefusal(spec, "'" + text + "'");
        return setKnob(k, spec, v);
    }
    std::string why;
    coll::CollPolicy::parse(text, &why);
    if (!why.empty())
        return std::string("knob '") + spec.key + "': " + why;
    k.*std::get<std::string Knobs::*>(spec.field) = text;
    return "";
}

std::string
checkKnob(const Knobs &k, const KnobSpec &spec)
{
    Knobs scratch;
    if (auto *f = std::get_if<double Knobs::*>(&spec.field))
        return k.*(*f) >= 0 ? setKnob(scratch, spec, k.*(*f)) : "";
    if (auto *f = std::get_if<std::string Knobs::*>(&spec.field))
        return setKnob(scratch, spec, k.*(*f));
    return ""; // A stored count is an integer; negative means unset.
}

LogGPParams
resolvedParams(const RunConfig &config)
{
    LogGPParams params = config.machine.params;
    config.knobs.applyTo(params);
    // NOW_SIM_THREADS is a fallback only: an explicit per-run knob
    // (including an explicit 0 = classic engine) always wins.
    if (config.knobs.simThreads < 0 && envConfig().simThreads >= 0)
        params.simThreads = envConfig().simThreads;
    // NOW_COLL_ALG likewise: explicit per-run policy wins.
    if (config.knobs.collAlg.empty() && !envConfig().collAlg.empty())
        params.collAlg = envConfig().collAlg;
    return params;
}

void
putParams(std::string &out, const LogGPParams &p)
{
    putI64(out, p.oSend);
    putI64(out, p.oRecv);
    putI64(out, p.addedO);
    putI64(out, p.gap);
    putI64(out, p.latency);
    putI64(out, p.addedL);
    putDouble(out, p.gPerByte);
    putI64(out, p.occupancy);
    putU32(out, static_cast<std::uint32_t>(p.window));
    putU32(out, static_cast<std::uint32_t>(p.txQueueDepth));
    putU64(out, p.maxFragment);
    putU32(out, p.fault.enabled ? 1 : 0);
    putDouble(out, p.fault.dropRate);
    putDouble(out, p.fault.dupRate);
    putDouble(out, p.fault.corruptRate);
    putDouble(out, p.fault.reorderRate);
    putI64(out, p.fault.reorderMaxDelay);
    putU64(out, p.fault.seed);
    putU32(out, static_cast<std::uint32_t>(p.fault.delays.size()));
    for (const DelaySpec &d : p.fault.delays) {
        putU32(out, static_cast<std::uint32_t>(d.node));
        putI64(out, d.at);
        putI64(out, d.duration);
    }
    putU32(out, p.reliable ? 1 : 0);
    putI64(out, p.retxTimeout);
    putU32(out, static_cast<std::uint32_t>(p.retxMaxRetries));
    putU32(out, p.topo ? 1 : 0);
    putU32(out, static_cast<std::uint32_t>(p.topoHostsPerLeaf));
    putDouble(out, p.topoLinkMBps);
    putDouble(out, p.topoOversub);
    putI64(out, p.topoHopLatency);
    putU32(out, p.simThreads > 0 ? 1 : 0);
    putU32(out, static_cast<std::uint32_t>(p.simShards));
    putStr(out, p.collAlg);
}

RunResult
runApp(const std::string &app_key, const RunConfig &config)
{
    auto app = makeApp(app_key);
    app->setup(config.nprocs, config.scale, config.seed);

    SplitCRuntime rt(config.nprocs, resolvedParams(config), config.seed);
    app->prepare(rt);
    if (config.obs)
        rt.cluster().setTracer(config.obs);

    RunResult r;
    r.ok = rt.run([&](SplitC &sc) { app->run(sc); }, config.maxTime);
    r.runtime = rt.runtime();
    r.summary = summarizeComm(rt.cluster(), r.runtime, app->name());
    r.matrix = commMatrix(rt.cluster());
    r.maxMsgsPerProc = r.summary.maxMsgsPerProc;
    r.lockFailures = r.summary.lockFailures;
    r.simEvents = rt.cluster().eventsExecuted();
    r.simShards = rt.cluster().nshards();
    r.metrics = rt.cluster().metrics().snapshot();
    r.validated = r.ok && (!config.validate || app->validate());
    return r;
}

EnvConfig
parseEnvConfig()
{
    EnvConfig c;
    if (const char *s = std::getenv("NOW_SCALE")) {
        double v = std::atof(s);
        if (v > 0) {
            c.scaleSet = true;
            c.scale = v;
        } else {
            warn("ignoring invalid NOW_SCALE='%s'", s);
        }
    }
    if (const char *s = std::getenv("NOW_JOBS")) {
        long v = std::atol(s);
        if (v >= 0)
            c.jobs = static_cast<int>(v);
        else
            warn("ignoring invalid NOW_JOBS='%s'", s);
    }
    if (const char *s = std::getenv("NOW_SIM_THREADS")) {
        long v = std::atol(s);
        if (v >= 0)
            c.simThreads = static_cast<int>(v);
        else
            warn("ignoring invalid NOW_SIM_THREADS='%s'", s);
    }
    if (const char *s = std::getenv("NOW_COLL_ALG"))
        c.collAlg = s;
    if (const char *s = std::getenv("NOW_CACHE_DIR"))
        c.cacheDir = s;
    if (const char *s = std::getenv("NOW_BACKEND"))
        c.backend = s;
    return c;
}

const EnvConfig &
envConfig()
{
    // Magic-static init: the first caller (always single-threaded; the
    // runner reads this before spawning workers) does the getenv calls,
    // everyone after reads the immutable cache.
    static const EnvConfig cfg = parseEnvConfig();
    return cfg;
}

double
envScale()
{
    return envConfig().scale;
}

int
envJobs()
{
    return envConfig().jobs;
}

const std::string &
envCacheDir()
{
    return envConfig().cacheDir;
}

} // namespace nowcluster
