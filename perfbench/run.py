#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the simulator.

    python3 perfbench/run.py --workload paper_figures|serve_mixed
        --seed N --seconds S --trace 0|1

Builds the program from the checkout's sources (perfbench/CMakeLists.txt,
into .bench_build/), runs one workload cold and repeatedly for about S
seconds, checks every output, and prints as the last stdout line one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. The line
before it carries the provenance and the per-run details. Exits 1 when
any output check fails, and without a result line when the build fails.
perfbench/RATIONALE.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import trace_reduce  # noqa: E402

NPROC = os.cpu_count() or 1
DAEMON_WORKERS = 2
SCALING_THREADS = (1, 2, 4)
SETUP_SAMPLES = 9
DRIVER_TIMEOUT_S = 150
EXPECTED = os.path.join(HERE, "expected_digests.json")
# Paper Fig. 11 values that fidelity.paper_dev_pct compares against:
# geomean total speedup, ResNet18-Q, SNLI, core energy efficiency.
PAPER_FIG11 = (1.5, 2.04, 1.8, 1.4)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio", "op_p50_ms": "ms", "op_tail_ms": "ms",
}

# Per-layer metrics and units; every workload reports all of them, a
# layer the workload does not use reads 0.
PER_LAYER_UNITS = {
    "sim.worker_busy_share": "ratio", "sim.critical_path_s": "s",
    "sim.units_stolen": "count", "sim.steps_per_s": "1/s",
    "sim.speedup_t2": "x", "sim.speedup_t4": "x",
    "memo.lookups": "count", "memo.hit_ratio": "ratio",
    "memo.evictions": "count", "memo.bytes_peak": "bytes",
    "memo.lookup_ns": "ns",
    "phase.runs": "count", "phase.bursts": "count", "phase.self_s": "s",
    "phase.burst_p50_us": "us", "phase.burst_tail_us": "us",
    "phase.steps": "count", "phase.sim_cycles": "count",
    "tile.busy_s": "s", "tile.steps_per_s": "1/s",
    "supply.busy_s": "s", "supply.values_per_s": "1/s",
    "pe.busy_s": "s", "pe.sets_per_s": "1/s", "numeric.encode_ns": "ns",
    "train.mode_s.fp32": "s", "train.mode_s.bf16": "s",
    "train.mode_s.fpraker": "s", "train.dot_ns.fp32": "ns",
    "train.dot_ns.bf16": "ns", "train.dot_ns.fpraker": "ns",
    "sched.queue_p50_ms": "ms", "sched.queue_tail_ms": "ms",
    "sched.run_p50_ms": "ms", "sched.executed": "count",
    "sched.cache_served": "count", "sched.coalesced": "count",
    "cache.hit_ratio": "ratio", "cache.disk_writes": "count",
    "serve.server_p50_us.submit": "us", "serve.transport_us": "us",
    "serve.hot_p50_ms": "ms", "serve.hot_tail_ms": "ms",
    "serve.cold_p50_ms": "ms", "serve.cold_tail_ms": "ms",
    "serve.hot_share": "ratio", "serve.cold_share": "ratio",
    "serve.coalesced_share": "ratio",
    "api.self_s": "s", "sweep.self_s": "s", "burst.self_s": "s",
    "serve.self_s": "s", "sched.queue_self_s": "s",
    "sched.run_self_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_s": "s", "fidelity.paper_dev_pct": "%",
}

# Span category -> self-time metric. "api" is the driver's span around
# one experiment's produceResult + report rendering; with the program's
# "experiment" span inside it, it makes api.self_s. The serve client's
# scheduler children are told apart by name ("sched.queue",
# "sched.run"). A span of any other category counts as unattributed, so
# the self times plus trace.unattributed_s always sum to the traced wall.
SELF_METRIC = {
    "api": "api.self_s", "experiment": "api.self_s",
    "sweep": "sweep.self_s",
    "phase": "phase.self_s", "burst": "burst.self_s",
    "client": "serve.self_s", "sched.queue": "sched.queue_self_s",
    "sched.run": "sched.run_self_s",
}
SIM_CATEGORIES = ("api", "experiment", "sweep", "phase", "burst")


class Failures:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)
        return ok


# ------------------------------------------------------------- build

def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configure once, then (re)build; returns the binaries' paths."""
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "binaries.json")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", bdir, "--target",
                      "perfbench_driver", "-j", str(NPROC)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed\n")
                sys.exit(1)
    with open(os.path.join(bdir, "binaries.json")) as f:
        return json.load(f)


def provenance(driver_prov):
    """Host, build and code identity stamped on every result."""
    def git_commit():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
            if r.returncode == 0:
                return r.stdout.strip()
        except OSError:
            pass
        return "unavailable (not a git checkout)"

    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for fp in files:
            h.update(os.path.relpath(fp, ROOT).encode())
            with open(fp, "rb") as f:
                h.update(f.read())
    p = dict(driver_prov or {})
    p.update({"nproc": NPROC, "git_commit": git_commit(),
              "source_sha256": h.hexdigest()[:16],
              "daemon_workers": DAEMON_WORKERS,
              "daemon_cache_bytes": 64 << 20})
    return p


# ------------------------------------------------------------ helpers

def rep_seed(seed, rep):
    return seed * 1009 + rep


def driver(bins, mode, *args):
    """Run the driver once; returns its JSON line (None on failure)."""
    spawn = time.monotonic_ns()
    try:
        r = subprocess.run([bins["driver"], mode, *args,
                            f"--spawn-ns={spawn}"], cwd=ROOT,
                           capture_output=True, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: driver {mode} timed out\n")
        return None
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr[-2000:])
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def ms(values):
    return [v * 1e3 for v in values]


def p50_tail(values):
    """(median, tail, tail percentile, n) of a list of numbers."""
    if not values:
        return 0.0, 0.0, 0.0, 0
    q = trace_reduce.tail_quantile(len(values))
    return (statistics.median(values), trace_reduce.quantile(values, q),
            100 * q, len(values))


# ------------------------------------------------ experiment workloads

def figures_rep(bins, seed, threads, fails, expected, extra=()):
    d = driver(bins, "figures", f"--seed={seed}", f"--threads={threads}",
               *extra)
    if not fails.check(d is not None, "figures driver failed"):
        return None
    for e in d["experiments"]:
        fails.check(e["ok"], f"{e['id']} failed its own gate")
    fails.check(d["digest"] == expected,
                f"figures digest {d['digest']} != expected {expected}")
    fails.check(d["phases_mismatched"] == 0,
                f"{d['phases_mismatched']} phases differ from a "
                f"memoize=false serial recompute",
                count=d["phases_checked"])
    return d


def paper_dev_pct(d):
    f = d.get("fig11") or []
    if len(f) != 4 or not all(f):
        return 0.0
    return 100 * statistics.mean(abs(m - p) / p
                                 for m, p in zip(f, PAPER_FIG11))


def figures_workload(bins, seed, seconds, fails, expected):
    """Cold reps until `seconds` pass; each rep is a fresh process and
    its own experiment order."""
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        d = figures_rep(bins, rep_seed(seed, len(reps)), NPROC, fails,
                        expected)
        if d is None:
            break
        reps.append(d)
    setups = [d["setup_s"] for d in reps]
    while len(setups) < SETUP_SAMPLES:
        d = driver(bins, "figures", f"--threads={NPROC}", "--setup-only")
        if not fails.check(d is not None, "setup-only run failed"):
            break
        setups.append(d["setup_s"])
    # The user's request here is the whole run (`fpraker run --all`),
    # so each rep is one operation.
    p50, tail, q, n = p50_tail(ms([d["wall_s"] for d in reps]))
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(d["wall_s"] for d in reps)
        if reps else 0.0,
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in reps)
        if reps else 0.0,
        "op_p50_ms": p50, "op_tail_ms": tail,
    }
    details = {"reps": len(reps), "walls_s": [d["wall_s"] for d in reps],
               "setup_samples": len(setups), "op_samples": n,
               "op_tail_percentile": q,
               "digest": reps[0]["digest"] if reps else None}
    if reps:
        details["paper_dev_pct"] = paper_dev_pct(reps[0])
    return metrics, details, reps


# ------------------------------------------------------- serve workload

class Daemon:
    """A live fprakerd with its own socket and cache dir."""

    def __init__(self, bins, workdir, extra=()):
        os.makedirs(workdir, exist_ok=True)
        self.sock = os.path.relpath(os.path.join(workdir, "d.sock"), ROOT)
        cache = os.path.join(workdir, "cache")
        spawn = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [bins["fprakerd"], f"--socket={self.sock}",
             f"--workers={DAEMON_WORKERS}", f"--threads={NPROC}",
             f"--cache-dir={cache}", *extra],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        up, _, _ = select.select([self.proc.stdout], [], [],
                                 DRIVER_TIMEOUT_S)
        line = self.proc.stdout.readline() if up else ""
        self.setup_s = (time.monotonic_ns() - spawn) * 1e-9
        self.ready = "serving on" in line

    def shutdown(self):
        """Stops the daemon; returns (clean, peak RSS in MB)."""
        clean = False
        try:
            with socket.socket(socket.AF_UNIX) as s:
                s.settimeout(30)
                s.connect(self.sock)
                s.sendall(b'{"op": "shutdown"}\n')
                clean = b'"ok":true' in s.recv(4096).replace(b" ", b"")
        except OSError:
            pass
        if not clean:
            self.proc.kill()
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
        except ChildProcessError:
            return False, 0.0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return clean and self.proc.returncode == 0, ru.ru_maxrss / 1024.0


def serve_rep(bins, seed, workdir, fails, expected, trace=None,
              daemon_extra=(), kill_after=None):
    """One cold daemon, the warm hot set, one closed-loop sequence."""
    extra = list(daemon_extra)
    if trace:
        extra.append(f"--trace-out={trace}.daemon.json")
    d = Daemon(bins, workdir, extra)
    if not fails.check(d.ready, "fprakerd did not come up"):
        d.shutdown()
        return None, d.setup_s
    args = [f"--socket={d.sock}", f"--seed={seed}"]
    if trace:
        args.append(f"--trace-out={trace}.client.json")
    killer = None
    if kill_after is not None:
        killer = subprocess.Popen(
            ["sh", "-c", f"sleep {kill_after}; kill -9 {d.proc.pid}"])
    r = driver(bins, "serve", *args)
    if killer:
        killer.wait()
    clean, rss = d.shutdown()
    fails.check(clean, "fprakerd did not shut down cleanly")
    if not fails.check(r is not None, "serve client failed"):
        return None, d.setup_s
    fails.check(r["warm_failed"] == 0, "hot-set warm-up failed")
    fails.check(r["hot_mismatched"] == 0,
                "a warm-up document differs from a direct run")
    fails.check(r["digest"] == expected,
                f"serve digest {r['digest']} != expected {expected}")
    bad = [o for o in r["ops"] if not o["ok"]]
    fails.attempted += len(r["ops"])
    fails.failed += len(bad)
    if bad:
        # Each error reads "<cause>: <detail>"; name every distinct cause.
        causes = sorted({o.get("error", "").split(":")[0] for o in bad})
        fails.notes.append(f"{len(bad)} requests failed "
                           f"({', '.join(causes)})")
    r["daemon_rss_mb"] = rss
    return r, d.setup_s


def serve_workload(bins, seed, seconds, fails, expected, workdir,
                   daemon_extra=(), kill_after=None):
    reps, setups = [], []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        r, setup = serve_rep(bins, rep_seed(seed, len(reps)),
                             os.path.join(workdir, f"rep{len(reps)}"),
                             fails, expected, daemon_extra=daemon_extra,
                             kill_after=kill_after)
        setups.append(setup)
        if r is None:
            break
        reps.append(r)
    while len(setups) < SETUP_SAMPLES:
        d = Daemon(bins, os.path.join(workdir, f"setup{len(setups)}"))
        fails.check(d.ready, "fprakerd did not come up")
        setups.append(d.setup_s)
        d.shutdown()
    ops = [o for r in reps for o in r["ops"]]
    p50, tail, q, n = p50_tail(ms([o["latency_s"] for o in ops]))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps)
        if reps else 0.0,
        "peak_rss_mb": statistics.median(r["daemon_rss_mb"] for r in reps)
        if reps else 0.0,
        "op_p50_ms": p50, "op_tail_ms": tail,
    }
    details = {"reps": len(reps), "walls_s": [r["wall_s"] for r in reps],
               "setup_samples": len(setups), "op_samples": n,
               "op_tail_percentile": q,
               "specs_verified": sum(r["specs_verified"] for r in reps),
               "digest": reps[0]["digest"] if reps else None}
    details.update(serve_split(ops))
    return metrics, details, reps


def serve_split(ops):
    """Hot/cold latencies and the scheduler's per-job times."""
    out = {}
    for kind, name in ((0, "hot"), (1, "cold")):
        lat = ms([o["latency_s"] for o in ops if o["kind"] == kind])
        p50, tail, q, n = p50_tail(lat)
        out.update({f"{name}_p50_ms": p50, f"{name}_tail_ms": tail,
                    f"{name}_tail_percentile": q, f"{name}_samples": n})
    cold = [o for o in ops if o["kind"] == 1 and o["ok"]]
    qp50, qtail, _, _ = p50_tail(ms([o["queue_s"] for o in cold]))
    out.update({"queue_p50_ms": qp50, "queue_tail_ms": qtail,
                "run_p50_ms": p50_tail(ms([o["run_s"] for o in cold]))[0]})
    return out


# --------------------------------------------------- per-layer (traced)

def counter_delta(after, before, name):
    a = (after or {}).get("counters", {}).get(name, 0)
    b = (before or {}).get("counters", {}).get(name, 0)
    return a - b


def hist_p50(after, before, name):
    """Median of a registry histogram's delta, linear in its bucket."""
    a = (after or {}).get("histograms", {}).get(name)
    b = (before or {}).get("histograms", {}).get(name)
    if not a:
        return 0.0
    counts = [x - (b["counts"][i] if b else 0)
              for i, x in enumerate(a["counts"])]
    total = sum(counts)
    if not total:
        return 0.0
    target, seen, lo = total / 2, 0, 0.0
    for i, c in enumerate(counts):
        hi = a["bounds"][i] if i < len(a["bounds"]) else lo
        if seen + c >= target and c:
            return lo + (hi - lo) * (target - seen) / c
        seen += c
        lo = hi
    return lo


def layer_from_registry(m, reg, wall):
    """memo/phase/sim counters of one untraced run's registry."""
    lookups = reg.get("memo.hits", 0) + reg.get("memo.misses", 0)
    m["memo.lookups"] = lookups
    m["memo.hit_ratio"] = reg.get("memo.hits", 0) / lookups if lookups \
        else 0.0
    m["memo.evictions"] = reg.get("memo.evictions", 0)
    for k in ("runs", "bursts", "steps", "sim_cycles"):
        m[f"phase.{k}"] = reg.get(f"phase.{k}", 0)
    m["sim.units_stolen"] = reg.get("sim.parallel_for.units_stolen", 0)
    m["sim.steps_per_s"] = reg.get("phase.steps", 0) / wall if wall \
        else 0.0


def layer_from_trace(m, spans, window, lanes, sim_spans=None,
                     sim_window=None, sim_lanes=None):
    """Self times (the sum-to-wall identity), busy share, critical
    path and burst percentiles. The simulation-side metrics come from
    @p sim_spans (the daemon's capture) when given."""
    spans = [(t, f"sched.{n}" if c == "sched" else c, n, s, e)
             for t, c, n, s, e in spans]
    r = trace_reduce.reduce(spans, window, lanes)
    named = 0.0
    for cat, v in r["self_s"].items():
        if cat in SELF_METRIC:
            m[SELF_METRIC[cat]] = m.get(SELF_METRIC[cat], 0.0) + v
            named += v
    m["trace.wall_s"] = r["wall_s"]
    m["trace.unattributed_s"] = r["wall_s"] - named
    if sim_spans is None:
        sim_spans, sim_window, sim_lanes = spans, window, lanes
    sim_spans = [s for s in sim_spans if s[1] in SIM_CATEGORIES]
    m["sim.worker_busy_share"] = trace_reduce.reduce(
        sim_spans, sim_window, sim_lanes)["busy_share"]
    clipped = trace_reduce.clip(sim_spans, sim_window)
    exp = trace_reduce.durations(clipped, "experiment")
    m["sim.critical_path_s"] = max(exp) if exp else 0.0
    bursts = [d * 1e6 for d in trace_reduce.durations(clipped, "burst")]
    p50, tail, _, _ = p50_tail(bursts)
    m["phase.burst_p50_us"], m["phase.burst_tail_us"] = p50, tail


def probe(bins, workload, seed, m):
    d = driver(bins, "probe", f"--workload={workload}", f"--seed={seed}")
    if d is None:
        return False
    for k, v in d.items():
        if k in PER_LAYER_UNITS:
            m[k] = v
    return True


def traced_figures(bins, seed, fails, expected, workdir):
    m = {}
    s0 = rep_seed(seed, 0)
    plain = figures_rep(bins, s0, NPROC, fails, expected, ["--sample-memo"])
    cap = os.path.join(workdir, "paper_figures.trace.json")
    traced = figures_rep(bins, s0, NPROC, fails, expected,
                         [f"--trace-out={cap}"])
    if plain is None or traced is None:
        return m, {}, None
    layer_from_registry(m, plain["registry"], plain["wall_s"])
    m["memo.bytes_peak"] = plain["memo_bytes_peak"]
    spans = trace_reduce.load_spans(cap)
    layer_from_trace(m, spans, traced["trace_window_us"], NPROC)
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    details = {"untraced_wall_s": plain["wall_s"],
               "traced_wall_s": traced["wall_s"], "spans": len(spans)}
    m["fidelity.paper_dev_pct"] = paper_dev_pct(plain)
    walls = {NPROC: plain["wall_s"]}
    for t in SCALING_THREADS:
        if t not in walls:
            d = figures_rep(bins, s0, t, fails, expected)
            if d:
                walls[t] = d["wall_s"]
    if fails.check(all(t in walls for t in SCALING_THREADS),
                   "scaling curve incomplete"):
        m["sim.speedup_t2"] = walls[1] / walls[2]
        m["sim.speedup_t4"] = walls[1] / walls[4]
    details["scaling_wall_s"] = walls
    fails.check(probe(bins, "paper_figures", seed, m),
                "paper_figures probe failed")
    return m, details, plain["provenance"]


def traced_serve(bins, seed, fails, expected, workdir):
    m = {}
    s0 = rep_seed(seed, 0)
    plain, _ = serve_rep(bins, s0, os.path.join(workdir, "plain"), fails,
                         expected)
    cap = os.path.join(workdir, "serve")
    traced, _ = serve_rep(bins, s0, os.path.join(workdir, "traced"),
                          fails, expected, trace=cap)
    if plain is None or traced is None:
        return m, {}, None
    before, after = plain["metrics_before"], plain["metrics_after"]
    before = (before or {}).get("metrics", {})
    after = (after or {}).get("metrics", {})
    hits = counter_delta(after, before, "memo.hits")
    lookups = hits + counter_delta(after, before, "memo.misses")
    m["memo.lookups"] = lookups
    m["memo.hit_ratio"] = hits / lookups if lookups else 0.0
    m["memo.evictions"] = counter_delta(after, before, "memo.evictions")
    m["memo.bytes_peak"] = after.get("gauges", {}).get("memo.bytes", 0)
    for k in ("runs", "bursts", "steps", "sim_cycles"):
        m[f"phase.{k}"] = counter_delta(after, before, f"phase.{k}")
    m["sim.units_stolen"] = counter_delta(
        after, before, "sim.parallel_for.units_stolen")
    m["sim.steps_per_s"] = m["phase.steps"] / plain["wall_s"]
    submitted = counter_delta(after, before, "sched.submitted")
    for k in ("executed", "cache_served", "coalesced"):
        m[f"sched.{k}"] = counter_delta(after, before, f"sched.{k}")
    if submitted:
        m["serve.hot_share"] = m["sched.cache_served"] / submitted
        m["serve.cold_share"] = m["sched.executed"] / submitted
        m["serve.coalesced_share"] = m["sched.coalesced"] / submitted
    c_hits = counter_delta(after, before, "cache.hits")
    c_all = c_hits + counter_delta(after, before, "cache.misses")
    m["cache.hit_ratio"] = c_hits / c_all if c_all else 0.0
    m["cache.disk_writes"] = counter_delta(after, before,
                                           "cache.disk_writes")
    split = serve_split(plain["ops"])
    for k in ("hot_p50_ms", "hot_tail_ms", "cold_p50_ms", "cold_tail_ms"):
        m[f"serve.{k}"] = split[k]
    m["sched.queue_p50_ms"] = split["queue_p50_ms"]
    m["sched.queue_tail_ms"] = split["queue_tail_ms"]
    m["sched.run_p50_ms"] = split["run_p50_ms"]
    server_us = 1e6 * hist_p50(after, before,
                               "serve.request_seconds.submit")
    m["serve.server_p50_us.submit"] = server_us
    m["serve.transport_us"] = split["hot_p50_ms"] * 1e3 - server_us

    # Client lanes carry the sum-to-wall identity; the daemon capture
    # (its clock starts with the daemon, like its uptime) feeds the
    # simulation-side span metrics over the same loop window.
    client = trace_reduce.load_spans(cap + ".client.json")
    daemon = trace_reduce.load_spans(cap + ".daemon.json")
    up0 = traced["stats_before"]["uptime_s"] * 1e6
    up1 = traced["stats_after"]["uptime_s"] * 1e6
    layer_from_trace(m, client, traced["trace_window_us"],
                     traced["provenance"]["clients"],
                     daemon, (up0, up1), DAEMON_WORKERS + NPROC - 1)
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    fails.check(probe(bins, "serve_mixed", seed, m),
                "serve_mixed probe failed")
    details = {"untraced_wall_s": plain["wall_s"],
               "traced_wall_s": traced["wall_s"],
               "client_spans": len(client), "daemon_spans": len(daemon)}
    return m, details, plain["provenance"]


# ----------------------------------------------------------------- main

WORKLOADS = ("paper_figures", "serve_mixed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (perfbench/selftest.py): a substitute expected
    # digest file, extra daemon flags, and a daemon kill mid-run.
    ap.add_argument("--expected", default=EXPECTED,
                    help=argparse.SUPPRESS)
    ap.add_argument("--daemon-arg", action="append", default=[],
                    help=argparse.SUPPRESS)
    ap.add_argument("--kill-daemon-after", type=float,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    os.chdir(ROOT)
    for k in [k for k in os.environ if k.startswith("FPRAKER_")]:
        del os.environ[k]
    bins = build()
    with open(args.expected) as f:
        expected = json.load(f)[args.workload]
    workdir = os.path.join(build_root(), "run", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    fails = Failures()
    try:
        if args.trace:
            if args.workload == "serve_mixed":
                layer, details, prov = traced_serve(
                    bins, args.seed, fails, expected, workdir)
            else:
                layer, details, prov = traced_figures(
                    bins, args.seed, fails, expected, workdir)
            metrics = {k: {"value": layer.get(k, 0), "unit": u}
                       for k, u in PER_LAYER_UNITS.items()}
            selfs = sum(v["value"] for k, v in metrics.items()
                        if k.endswith("self_s"))
            details["self_plus_unattributed_s"] = \
                selfs + layer.get("trace.unattributed_s", 0)
        else:
            if args.workload == "serve_mixed":
                e2e, details, reps = serve_workload(
                    bins, args.seed, args.seconds, fails, expected,
                    workdir, args.daemon_arg, args.kill_daemon_after)
            else:
                e2e, details, reps = figures_workload(
                    bins, args.seed, args.seconds, fails, expected)
            e2e["ok_ratio"] = ((fails.attempted - fails.failed) /
                               fails.attempted if fails.attempted else 0)
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
            prov = reps[0]["provenance"] if reps else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = fails.failed == 0 and fails.attempted > 0
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "provenance": provenance(prov), "details": details,
                      "failures": fails.notes[:20]}))
    print(json.dumps({"correct": correct,
                      "attempted": max(fails.attempted, 1),
                      "failed": fails.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
