/**
 * @file
 * Canonical experiment specs and content-addressed cache keys.
 *
 * Every experiment is a deterministic pure function of its
 * configuration: the same (app, machine, knobs, procs, scale, seed,
 * budget) always produces byte-identical results at any --jobs value.
 * That is exactly the contract a cache needs. This module turns a
 * RunPoint into a *canonical* byte string -- fixed field order, fixed
 * little-endian widths, the knobs only as the machine parameters they
 * resolve to -- and hashes it with a code fingerprint into the key the
 * result store is addressed by.
 *
 * The code fingerprint is a hand-bumped simulation-behavior version:
 * any change that can alter what an experiment *measures* (event
 * ordering, new model stages, changed defaults) must bump it, which
 * orphans every cached result instead of serving stale ones. Orphans
 * are reclaimed by the store's LRU sweep. A forgotten bump is caught by
 * the golden fingerprints in tests/golden/code_fingerprint.txt.
 */

#ifndef NOWCLUSTER_SVC_SPEC_HH_
#define NOWCLUSTER_SVC_SPEC_HH_

#include <string>

#include "harness/runner.hh"

namespace nowcluster::svc {

/**
 * Simulation-behavior fingerprint mixed into every cache key. Bump the
 * constant in spec.cc whenever simulator semantics change.
 */
const std::string &codeFingerprint();

/**
 * The canonical binary serialization of one experiment point:
 * "NOWSPEC2" magic, the app, size, seed, budget, validation flag and
 * machine name, putParams(resolvedParams(config)), then the producing
 * backend. Attached trace/obs sinks are deliberately not part of the
 * spec -- they do not change measured results (tested in
 * test_obs.cc).
 */
std::string canonicalSpec(const RunPoint &pt);

/** Cache key: sha256Hex(canonicalSpec(pt) || codeFingerprint()). */
std::string cacheKey(const RunPoint &pt);

/**
 * Validate a point the way runApp would, but return the complaint
 * instead of calling fatal(): an empty string means runnable, anything
 * else is a human-readable reason (unknown app, knob below hardware
 * baseline, out-of-range sizes). The service uses this so a bad
 * network request is answered with an error reply rather than killing
 * the whole server.
 */
std::string validateSpec(const RunPoint &pt);

} // namespace nowcluster::svc

#endif // NOWCLUSTER_SVC_SPEC_HH_
