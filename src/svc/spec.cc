#include "svc/spec.hh"

#include "apps/app.hh"
#include "base/bytes.hh"
#include "svc/hash.hh"

namespace nowcluster::svc {

namespace {

/**
 * Bump whenever simulator semantics change in a way that can alter
 * measured results (event ordering, model stages, parameter defaults).
 * Stale keys then simply never hit and age out of the store via LRU.
 * tests/golden/code_fingerprint.txt pins this string to the results of
 * a fixed spec set; test_svc fails when those move without a bump.
 */
constexpr const char *kCodeFingerprint = "nowcluster-sim-v5";

} // namespace

const std::string &
codeFingerprint()
{
    static const std::string fp = kCodeFingerprint;
    return fp;
}

std::string
canonicalSpec(const RunPoint &pt)
{
    std::string out;
    out.reserve(512);
    out += "NOWSPEC2";
    putStr(out, pt.app);
    const RunConfig &c = pt.config;
    putU32(out, static_cast<std::uint32_t>(c.nprocs));
    putDouble(out, c.scale);
    putU64(out, c.seed);
    putI64(out, c.maxTime);
    putU32(out, c.validate ? 1 : 0);
    putStr(out, c.machine.name);
    // v2: the parameters the run resolves to, not the knobs that were
    // typed: two spellings of one machine share one key, and a knob
    // cannot shape a result without reaching the key.
    putParams(out, resolvedParams(c));
    // v4: the producing backend is part of the spec -- a model-derived
    // runtime and a simulated one for the same knobs are different
    // results and must never alias under one key.
    putU32(out, static_cast<std::uint32_t>(c.origin));
    return out;
}

std::string
cacheKey(const RunPoint &pt)
{
    return sha256Hex(canonicalSpec(pt) + codeFingerprint());
}

std::string
validateSpec(const RunPoint &pt)
{
    bool known = false;
    for (const auto &key : appKeys())
        known = known || key == pt.app;
    if (!known)
        return "unknown app '" + pt.app + "'";

    const RunConfig &c = pt.config;
    if (c.nprocs < 2 || c.nprocs > 4096)
        return "procs out of range [2, 4096]";
    if (!(c.scale > 0) || c.scale > 100)
        return "scale out of range (0, 100]";
    if (c.maxTime <= 0)
        return "maxTime must be positive";
    if (c.origin != 0 && c.origin != 1)
        return "origin must be 0 (sim) or 1 (analytic)";

    // Mirror the fatal_if checks in LogGPParams::setDesired*Usec so a
    // bad knob is a protocol error, not a dead server.
    const LogGPParams &p = c.machine.params;
    const Knobs &k = c.knobs;
    if (k.overheadUs >= 0 &&
        usec(k.overheadUs) < (p.oSend + p.oRecv) / 2)
        return "overhead below hardware baseline";
    if (k.gapUs >= 0 && usec(k.gapUs) < p.gap &&
        usec(k.gapUs) < usec(0.1))
        return "gap is not positive";
    if (k.latencyUs >= 0 && usec(k.latencyUs) < p.latency)
        return "latency below hardware baseline";
    if (k.bulkMBps == 0 || (k.bulkMBps > 0 && k.bulkMBps > 1e6))
        return "bulk bandwidth out of range";
    for (const KnobSpec &spec : knobTable()) {
        std::string why = checkKnob(k, spec);
        if (!why.empty())
            return why;
    }
    if (k.delayNode >= c.nprocs)
        return "delay node out of range";
    if (k.delayNode >= 0 && !(k.delayUs > 0))
        return "delay duration must be positive";
    return "";
}

} // namespace nowcluster::svc
