#!/usr/bin/env python3
"""The LogGP lab benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload paper|whatif|service|scale \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (the simulator libraries, the 12 paper artifact binaries and
perfbench_driver) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only re-check the build. Every run
checks the outputs it measures and prints, as its last stdout line, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md for what each means and which
layer and workload it belongs to).

Exit codes: 0 measured and every check passed, 1 could not build or
run, 3 refused to time an unoptimized or sanitizer build, 4 measured but
some check failed (the record is printed, with correct false).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # the build tree is the only place written
import stats  # noqa: E402

WORKLOADS = ("paper", "whatif", "service", "scale")

# The paper artifacts in paper order, all run at one reduced scale.
PAPER_SCALE = "0.02"
ARTIFACTS = (
    "table1_baseline",
    "fig3_signature",
    "table2_calibration",
    "table3_apps_baseline",
    "table4_comm_summary",
    "fig4_balance",
    "fig5_overhead",
    "table5_overhead_model",
    "fig6_gap",
    "table6_gap_model",
    "fig7_latency",
    "fig8_bulkgap",
)
GOLDEN_DIR = os.path.join(HERE, "golden")

# Environment the program reads; the benchmark sets what it needs and
# clears the rest so a caller's shell cannot change what is measured.
PROGRAM_ENV = ("NOW_SCALE", "NOW_JOBS", "NOW_SIM_THREADS", "NOW_COLL_ALG",
               "NOW_CACHE_DIR", "NOW_BACKEND")

CHILD_TIMEOUT_S = 160
EXIT_CHECKS_FAILED = 4
# Per-layer numbers need fewer samples than end-to-end ones; the traced
# run measures every section, so each gets this long.
TRACED_SECONDS = 3

END_TO_END = (
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    # paper: the ten 32-node baselines stepped through runApp's calls,
    # runPoints, and one traced regeneration.
    ("apps.setup_ms", "ms"),
    ("splitc.runtime_build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("stats.summarize_ms", "ms"),
    ("apps.validate_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("am.messages", "count"),
    ("am.ns_per_message", "ns"),
    ("am.barriers", "count"),
    ("harness.parallel_eff", "ratio"),
    ("bench.points_simulated", "count"),
    ("bench.points_reused", "count"),
) + tuple(("bench.%s_s" % a.split("_")[0], "s") for a in ARTIFACTS) + (
    # whatif
    ("obs.traced_run_ms", "ms"),
    ("obs.spans", "count"),
    ("obs.overhead_pct", "%"),
    ("backend.lower_ms", "ms"),
    ("backend.probe_ms", "ms"),
    ("backend.lp_nodes", "count"),
    ("backend.lp_edges", "count"),
    ("backend.solve_us", "us"),
    ("backend.solve_ns_per_edge", "ns"),
    ("backend.point_ms_p50", "ms"),
    ("backend.point_ms_p90", "ms"),
    ("backend.served_frac", "ratio"),
    ("backend.err_pct_max", "%"),
    # service
    ("svc.cachekey_us", "us"),
    ("svc.store_get_us", "us"),
    ("svc.decode_us", "us"),
    ("svc.reply_us", "us"),
    ("svc.handle_us", "us"),
    ("svc.roundtrip_us", "us"),
    ("svc.store_put_ms", "ms"),
    ("svc.encode_us", "us"),
    ("sim.miss_run_ms", "ms"),
    ("harness.queue_wait_ms", "ms"),
    ("svc.hit_ratio", "ratio"),
    ("svc.hit_ms_p50", "ms"),
    ("svc.hit_ms_p99", "ms"),
    ("svc.miss_ms_p50", "ms"),
    ("svc.miss_ms_p90", "ms"),
    ("svc.ops_per_s", "1/s"),
    # scale
    ("sim.classic_s", "s"),
    ("sim.sharded1_s", "s"),
    ("sim.parallel_speedup", "ratio"),
    ("sim.events_1024", "count"),
    ("sim.ns_per_event_1024", "ns"),
    ("sim.shards", "count"),
    ("splitc.runtime_build_ms_1024", "ms"),
    ("sim.shard_drift_pct", "%"),
) + tuple(("obs.trace_overhead_pct_%s" % w, "%") for w in WORKLOADS)

# Ratios of parallel work that say nothing on a single core.
NEEDS_TWO_CORES = ("sim.parallel_speedup", "harness.parallel_eff")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add(self, section):
        self.attempted += section["attempted"]
        self.failed += section["failed"]
        self.failures.extend(section["failures"])


def nproc():
    return len(os.sched_getaffinity(0))


def program_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_ENV}
    env.update(extra)
    return env


def run_child(cmd, cwd, tag, env=None):
    """Run cmd to completion in cwd. Returns (exit code, stdout bytes,
    wall seconds, peak RSS in MB of that child alone)."""
    out_path = os.path.join(cwd, tag + ".out")
    err_path = os.path.join(cwd, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env or program_env(),
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    if proc.returncode != 0:
        with open(err_path, "rb") as f:
            log("%s exited %d: %s" % (tag, proc.returncode,
                                      f.read()[-800:].decode(errors="replace")))
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then bring the build up to date."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], **quiet)
        if rc != 0:
            return False
    return subprocess.call(["cmake", "--build", bdir, "-j", str(nproc())],
                           **quiet) == 0


def cmake_cache(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def source_sha():
    """The git commit when there is one, else a hash over the sources
    the benchmark builds from."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def machine_record(bdir, driver, work, args):
    rc, out, _, _ = run_child([driver, "machine"], work, "machine")
    if rc != 0:
        return None
    m = json.loads(out.decode().strip().splitlines()[-1])
    cores = nproc()
    compiler = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    m.update({
        "nproc": cores,
        "compiler": "%s %s" % (compiler, m["compiler"]),
        "sanitize": cmake_cache(bdir, "NOWCLUSTER_SANITIZE"),
        "source": source_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seed_applies": args.workload != "paper",
        "seconds": args.seconds,
        "trace": args.trace,
        "not_meaningful": list(NEEDS_TWO_CORES) if cores < 2 else [],
    })
    return m


def driver_section(driver, work, tally, section, *flags):
    """Run one perfbench_driver section; returns (its JSON, peak RSS)."""
    cmd = [driver, section, "--jobs", str(nproc()), "--work", work]
    cmd += [str(f) for f in flags]
    rc, out, _, rss = run_child(cmd, work, "driver-" + section)
    if rc == 3:
        sys.exit(3)
    lines = out.decode().strip().splitlines()
    if rc != 0 or not lines:
        tally.check(False, "driver %s exited %d" % (section, rc))
        return None, rss
    result = json.loads(lines[-1])
    tally.add(result)
    return result, rss


# --- paper ----------------------------------------------------------

# The store tally an artifact prints when it runs over a store. It is
# a performance counter (bench.points_*), not a result, so the golden
# comparison leaves it out.
CACHE_LINE = re.compile(rb"^cache: (\d+) hits, (\d+) misses.*(?:\n|$)", re.M)


def results_only(out):
    return CACHE_LINE.sub(b"", out)


def load_goldens():
    goldens = {}
    for a in ARTIFACTS:
        path = os.path.join(GOLDEN_DIR, a + ".txt")
        with open(path, "rb") as f:
            goldens[a] = f.read()
    return goldens


def paper_pass(bdir, work, tally, goldens, spans=None, before=None):
    """All 12 artifacts in sequence over one fresh, shared store,
    calling before() ahead of each artifact outside the timing.
    Returns (seconds of all artifacts, per-artifact seconds, peak child
    RSS MB, points simulated, points reused)."""
    store = os.path.join(work, "store")
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    env = program_env(NOW_SCALE=PAPER_SCALE, NOW_JOBS=str(nproc()),
                      NOW_CACHE_DIR="store")
    per = {}
    rss = 0.0
    simulated = reused = 0
    for a in ARTIFACTS:
        if before:
            before()
        begin = time.perf_counter_ns()
        rc, out, wall, child_rss = run_child(
            [os.path.join(bdir, "bench_" + a)], work, a, env)
        if spans is not None:
            spans.append({"name": "bench." + a, "begin_ns": begin,
                          "end_ns": time.perf_counter_ns()})
        per[a] = wall
        rss = max(rss, child_rss)
        ok = rc == 0 and (goldens is None or
                          results_only(out) == results_only(goldens[a]))
        tally.check(ok, "paper: %s output differs from its golden" % a)
        for hits, misses in CACHE_LINE.findall(out):
            reused += int(hits)
            simulated += int(misses)
        if goldens is None:
            with open(os.path.join(GOLDEN_DIR, a + ".txt"), "wb") as f:
                f.write(out)
    return sum(per.values()), per, rss, simulated, reused


def paper(args, bdir, driver, work, tally):
    """Whole passes for at least args.seconds, with a burst of set-ups
    before each artifact and after the last pass (see kSetupBurst in
    driver.cc for why set-ups are spread over the run)."""
    goldens = load_goldens()
    setup_s = []

    def setup_burst():
        res, _ = driver_section(driver, work, tally, "paper-setup",
                                "--scale", PAPER_SCALE)
        if res:
            setup_s.extend(res["samples"]["setup_s"])

    passes = []
    rss = 0.0
    while not passes or sum(passes) / 1e3 < args.seconds:
        wall, _, pass_rss, _, _ = paper_pass(bdir, work, tally, goldens,
                                             before=setup_burst)
        passes.append(wall * 1e3)
        rss = max(rss, pass_rss)
    setup_burst()
    return end_to_end(passes, len(passes) / (sum(passes) / 1e3), setup_s,
                      rss)


# --- end-to-end ------------------------------------------------------

def end_to_end(op_ms, ops_per_s, setup_s, rss_mb):
    if not op_ms or not setup_s:
        return None
    tail, p = stats.tail(op_ms)
    log("%d operations; tail reported at p%d" % (len(op_ms), p))
    return {
        "op_ms_p50": stats.median(op_ms),
        "op_ms_tail": tail,
        "ops_per_s": ops_per_s,
        "setup_s": stats.median(setup_s),
        "peak_rss_mb": rss_mb,
    }


def in_process(args, driver, work, tally):
    """whatif, service and scale: one driver section, untraced."""
    res, rss = driver_section(driver, work, tally, args.workload,
                              "--seed", args.seed, "--seconds", args.seconds,
                              "--trace", 0)
    if res is None:
        return None
    samples = res["samples"]
    op_ms = samples.get("op_ms") or (samples.get("hit_ms", []) +
                                     samples.get("miss_ms", []))
    # service reads its own peak at a fixed operation count.
    rss = res["values"].get("peak_rss_mb", rss)
    return end_to_end(op_ms, len(op_ms) / res["values"]["measured_s"],
                      samples.get("setup_s", []), rss)


# --- per layer --------------------------------------------------------

def span_overhead_pct(section, wall_s):
    """The host time a section's benchmark spans cost, as a share of
    the section's wall time."""
    v = section["values"]
    return v["obs.bench_spans"] * v["obs.span_cost_ns"] / (wall_s * 1e9) * 100


def traced(args, bdir, driver, work, tally):
    """Every per-layer metric: each workload's traced section in turn,
    so one traced run of any workload reports the whole layer map."""
    out = {}
    goldens = load_goldens()

    t0 = time.perf_counter()
    spans = []
    _, per, _, simulated, reused = paper_pass(bdir, work, tally, goldens,
                                              spans)
    with open(os.path.join(work, "spans-paper.json"), "w") as f:
        json.dump(spans, f, indent=0)
    for a in ARTIFACTS:
        out["bench.%s_s" % a.split("_")[0]] = per[a]
    out["bench.points_simulated"] = simulated
    out["bench.points_reused"] = reused
    layers, _ = driver_section(driver, work, tally, "paper-layers",
                               "--scale", PAPER_SCALE)
    wall = {"paper": time.perf_counter() - t0}
    sections = {"paper": layers}

    for w in ("whatif", "service", "scale"):
        t0 = time.perf_counter()
        sections[w], _ = driver_section(driver, work, tally, w,
                                        "--seed", args.seed,
                                        "--seconds", TRACED_SECONDS,
                                        "--trace", 1)
        wall[w] = time.perf_counter() - t0
    if any(s is None for s in sections.values()):
        return None
    keep = os.path.join(bdir, "spans")
    os.makedirs(keep, exist_ok=True)
    for name in os.listdir(work):
        if name.startswith("spans-"):
            shutil.copy(os.path.join(work, name), keep)
    layer_names = {name for name, _ in PER_LAYER}
    for w, s in sections.items():
        out.update(s["values"])
        for name, samples in s["samples"].items():
            if name in layer_names:
                out[name] = stats.median(samples)
        out["obs.trace_overhead_pct_" + w] = span_overhead_pct(s, wall[w])

    points = sections["whatif"]["samples"]["point_ms"]
    out["backend.point_ms_p50"] = stats.median(points)
    out["backend.point_ms_p90"] = stats.percentile(points, 90)
    svc = sections["service"]["samples"]
    hits, misses = svc["hit_ms"], svc["miss_ms"]
    out["svc.hit_ms_p50"] = stats.median(hits)
    out["svc.hit_ms_p99"] = stats.percentile(hits, 99)
    out["svc.miss_ms_p50"] = stats.median(misses)
    out["svc.miss_ms_p90"] = stats.percentile(misses, 90)
    out["svc.ops_per_s"] = ((len(hits) + len(misses)) /
                            sections["service"]["values"]["measured_s"])
    return out


# --- main ------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the paper artifacts' output as the "
                         "golden instead of checking it")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    # Unwind on SIGTERM too, so the running child is stopped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 1
    driver = os.path.join(bdir, "perfbench_driver")
    work = os.path.join(bdir, "work-%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, bdir, driver, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bdir, driver, work):
    machine = machine_record(bdir, driver, work, args)
    if machine is None:
        log("cannot read the machine record")
        return 1
    if not machine["optimized"] or machine["sanitized"]:
        log("refusing to time an unoptimized or sanitizer build")
        return 3
    print("machine: " + json.dumps(machine, sort_keys=True), flush=True)

    if args.write_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        tally = Tally()
        paper_pass(bdir, work, tally, None)
        log("wrote %d goldens at NOW_SCALE=%s" % (len(ARTIFACTS),
                                                 PAPER_SCALE))
        return 0

    tally = Tally()
    if args.trace:
        values = traced(args, bdir, driver, work, tally)
        wanted = PER_LAYER
    elif args.workload == "paper":
        values = paper(args, bdir, driver, work, tally)
        wanted = END_TO_END
    else:
        values = in_process(args, driver, work, tally)
        wanted = END_TO_END
    if values is None:
        log("a section did not produce its measurements")
        for f in tally.failures[:10]:
            log("failed: " + f)
        return 1
    for f in tally.failures[:10]:
        log("failed: " + f)

    metrics = {name: (values[name], unit) for name, unit in wanted}
    print(stats.result_record(tally.attempted, tally.failed,
                              metrics), flush=True)
    return EXIT_CHECKS_FAILED if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
