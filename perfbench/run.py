#!/usr/bin/env python3
"""The ringsim benchmark.

Run from the root of a ringsim checkout:

  python3 perfbench/run.py --workload fig3_direct --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl

A run builds ringsim and the benchmark's harness into .bench_build/,
measures one workload for --seconds, checks every answer, appends a
full record to .bench_build/results.jsonl and prints one JSON object
as the last line of stdout: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1. Metric
names and units come from BENCHMARK.json. perfbench/README.md says
what each workload and metric is.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

ROOT = os.getcwd()
BENCH_SRC = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
RS_BUILD = os.path.join(BUILD, "ringsim")
HB_BUILD = os.path.join(BUILD, "harness")
NPROC = os.cpu_count() or 1
OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")
TARGETS = ["fig3_snoop_vs_dir", "micro_kernel", "ringsim_serve",
           "ringsim_fleetd"]

FIG3_BIN = os.path.join(RS_BUILD, "bench", "fig3_snoop_vs_dir")
MICRO_BIN = os.path.join(RS_BUILD, "bench", "micro_kernel")
SERVE_BIN = os.path.join(RS_BUILD, "src", "service", "ringsim_serve")
FLEETD_BIN = os.path.join(RS_BUILD, "src", "fleet", "ringsim_fleetd")
HARNESS_BIN = os.path.join(HB_BUILD, "perfbench_harness")

FIG3_JOBS = min(4, NPROC)

# Set-up is timed this many times per run; the median is reported.
SETUPS = 3
# serve_mix: one daemon, 2 executors, a memory tier a quarter of the
# harness's 256-key hot set, the disk tier on. The harness drives it
# with 2 closed-loop connections: 4 client threads plus the daemon's
# oversubscribe a 4-core host and made throughput spread 20% run to run.
SERVE_MEM = 64
# fleet_sweep: 3 one-executor workers behind a coordinator; each cold
# sweep is followed by this many warm resubmits.
FLEET_WORKERS = 3
FLEET_WARM = 10
REQUEST_TIMEOUT_S = 150
MICRO_FILTER = ("^(BM_TraceGeneration|BM_FunctionalEngine|BM_KernelChurn/64|"
                "BM_RingTick/nodes:(8|64)/occ:100/ref:0|"
                "BM_ProtocolTick/nodes:(8|64)/load:8/ref:(0|1))$")


class BenchError(Exception):
    pass


def die(msg):
    raise BenchError(msg)


def log(msg):
    print(msg, flush=True)


# --------------------------------------------------------------- build

def sh(cmd, logfile, timeout=900):
    with open(logfile, "ab") as f:
        r = subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT,
                           timeout=timeout)
    if r.returncode != 0:
        with open(logfile, errors="replace") as f:
            tail = f.read()[-4000:]
        die("command failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        die("no ringsim source tree in %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(RS_BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", ".", "-B", RS_BUILD], logfile)
    sh(["cmake", "--build", RS_BUILD, "-j", str(NPROC), "--target"] + TARGETS,
       logfile)
    sh(["cmake", "-S", os.path.join(BENCH_SRC, "harness"), "-B", HB_BUILD,
        "-DRINGSIM_ROOT=" + ROOT, "-DRINGSIM_BUILD=" + RS_BUILD], logfile)
    sh(["cmake", "--build", HB_BUILD, "-j", str(NPROC)], logfile)


def cmake_cache(path):
    out = {}
    with open(os.path.join(path, "CMakeCache.txt"), errors="replace") as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.rstrip("\n").partition("=")
                out[key.split(":")[0]] = value
    return out


def tree_digest():
    """Content digest of the sources the benchmark builds."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def stamp():
    cache = cmake_cache(RS_BUILD)
    # An empty CMAKE_BUILD_TYPE means the project default.
    build_type = cache.get("CMAKE_BUILD_TYPE", "") or "RelWithDebInfo"
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        commit = r.stdout.strip() or None
    digest = tree_digest()
    return {"build_type": build_type, "compiler": compiler,
            "commit": commit or "tree-" + digest, "tree": digest,
            "nproc": NPROC}


# ----------------------------------------------------------- processes

class Conn:
    """One NDJSON connection with a timeout on every request."""

    def __init__(self, path, timeout=REQUEST_TIMEOUT_S):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.buf = b""
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def receive(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise OSError("connection closed")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def call(self, obj):
        self.send(obj)
        return self.receive()

    def close(self):
        self.sock.close()


def call_once(path, obj, timeout=REQUEST_TIMEOUT_S):
    c = Conn(path, timeout)
    try:
        return c.call(obj)
    finally:
        c.close()


def peak_rss_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Daemons:
    """Every daemon a run starts; stop_all() shuts each down with the
    shutdown op and reaps it, killing it if it does not exit."""

    def __init__(self):
        self.live = []

    def start(self, argv, cwd, sock_name):
        logf = open(os.path.join(cwd, sock_name + ".log"), "wb")
        proc = subprocess.Popen(argv, cwd=cwd, stdout=logf,
                                stderr=subprocess.STDOUT)
        logf.close()
        d = {"proc": proc, "sock": os.path.relpath(os.path.join(cwd, sock_name))}
        self.live.append(d)
        return d

    def wait_ready(self, d, timeout=20):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if d["proc"].poll() is not None:
                die("daemon %s exited with %d" % (d["sock"], d["proc"].returncode))
            try:
                if call_once(d["sock"], {"op": "ping"}, 2).get("ok"):
                    return
            except OSError:
                time.sleep(0.002)
        die("daemon %s not ready after %d s" % (d["sock"], timeout))

    def stop(self, d):
        if d in self.live:
            self.live.remove(d)
        if d["proc"].poll() is None:
            try:
                call_once(d["sock"], {"op": "shutdown"}, 5)
            except (OSError, ValueError):
                pass
            try:
                d["proc"].wait(timeout=10)
            except subprocess.TimeoutExpired:
                d["proc"].kill()
                d["proc"].wait()

    def stop_all(self):
        for d in list(reversed(self.live)):
            self.stop(d)


def harness(args, cwd, timeout=170):
    """Run the harness to completion; return its last-line JSON."""
    r = subprocess.run([HARNESS_BIN] + [str(a) for a in args], cwd=cwd,
                       capture_output=True, text=True, timeout=timeout)
    if r.returncode != 0:
        die("harness %s failed (%d): %s" % (args[0], r.returncode,
                                            r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def harness_until_ready(args, cwd, timeout=170):
    """Start the harness, time it to its "ready" line, then collect its
    result. Returns (seconds to ready, result)."""
    t0 = time.perf_counter()
    with open(os.path.join(cwd, "harness.err"), "w+") as err:
        proc = subprocess.Popen([HARNESS_BIN] + [str(a) for a in args],
                                cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                                text=True)
        # One reader for stdout: communicate() after readline() would
        # lose whatever readline() had already buffered.
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        if line.strip() != "ready" or proc.returncode != 0 or not out.strip():
            die("harness %s failed (%d, %r): %s" % (
                args[0], proc.returncode, line, err.read()[-2000:]))
    return ready, json.loads(out.strip().splitlines()[-1])


def reference_fig3(seed, tree):
    """Figure 3 at --jobs 1 for this seed: the byte-identity oracle.
    Computed once per seed and source tree, outside any timed part."""
    refdir = os.path.join(BUILD, "refs")
    os.makedirs(refdir, exist_ok=True)
    path = os.path.join(refdir, "fig3_fast_seed%d_%s.txt" % (seed, tree))
    if not os.path.isfile(path):
        r = subprocess.run([FIG3_BIN, "--fast", "--jobs", "1", "--seed",
                            str(seed)], capture_output=True, text=True,
                           timeout=170)
        if r.returncode != 0 or not r.stdout:
            die("reference render failed: %s" % r.stdout[-500:])
        with open(path + ".tmp", "w") as f:
            f.write(r.stdout)
        os.replace(path + ".tmp", path)
    with open(path) as f:
        return f.read()


# ------------------------------------------------------- layer probes

def microbenchmarks(cwd):
    r = subprocess.run([MICRO_BIN, "--benchmark_filter=" + MICRO_FILTER,
                        "--benchmark_min_time=0.2",
                        "--benchmark_format=json"],
                       cwd=cwd, capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        die("micro_kernel failed: %s" % r.stderr[-1000:])
    rates = {b["name"]: b["items_per_second"]
             for b in json.loads(r.stdout)["benchmarks"]}

    def rate(name):
        if name not in rates:
            die("micro_kernel did not run %s" % name)
        return rates[name]

    out = {
        "trace.bm_refs_per_s": rate("BM_TraceGeneration"),
        "coherence.engine_refs_per_s": rate("BM_FunctionalEngine"),
        "sim.events_per_s": rate("BM_KernelChurn/64"),
    }
    for n in (8, 64):
        fast = rate("BM_ProtocolTick/nodes:%d/load:8/ref:0" % n)
        ref = rate("BM_ProtocolTick/nodes:%d/load:8/ref:1" % n)
        out["ring.sat_visits_per_s.n%d" % n] = rate(
            "BM_RingTick/nodes:%d/occ:100/ref:0" % n)
        out["core.protocol_visits_per_s.n%d" % n] = fast
        out["core.protocol_fast_ratio.n%d" % n] = fast / ref
    return out


def load_spans(path):
    with open(path) as f:
        return json.load(f)


def layer_probes(ctx):
    """Per-layer rates measured outside the workload, in every traced
    run: trace drains, censuses and model solves of the nine Figure 3
    workloads, the ResultCache tiers, util::json, microbenchmarks."""
    res = harness(["probe", "--seed", ctx.seed, "--out", "."], ctx.dir)
    spans = load_spans(os.path.join(ctx.dir, "probe_spans.json"))
    cache = res["cache"]
    if cache["bad"] or res["json"]["bad"] or \
            cache["disk_hits"] != cache["disk_reads"]:
        ctx.wrong += 1
        log("probe: cache or json round trip gave wrong bytes: %s" % res)

    def total(name, attr=None):
        ss = [s for s in spans if s["name"] == name]
        if attr:
            return sum(s["attrs"][attr] for s in ss)
        return sum(metrics.span_s(s) for s in ss)

    records = total("trace.generate", "records")
    census_s = total("coherence.census")
    out = {
        "trace.refs_per_s": records / total("trace.generate"),
        "coherence.census_s": census_s,
        "coherence.census_refs_per_s": records / census_s,
        "model.solve_us": 1e6 * total("model.solve") /
        total("model.solve", "solves"),
        "cache.mem_get_us": cache["mem_get_us"],
        "cache.disk_get_us": cache["disk_get_us"],
        "cache.put_us": cache["put_us"],
        "json.roundtrip_us": res["json"]["roundtrip_us"],
    }
    out.update(microbenchmarks(ctx.dir))
    ctx.probe_spans = spans
    return out


def ping_probe(ctx, sock, out):
    res = harness(["ping", "--endpoint", os.path.relpath(sock, ctx.dir)],
                  ctx.dir)
    if res["failed"]:
        ctx.failed += res["failed"]
        log("ping failed: %s" % res["error"])
        return
    out["transport.ping_p50_us"] = metrics.nearest_rank(res["ping_us"], 50)
    out["transport.ping_p99_us"] = metrics.tail(res["ping_us"], 99)


# ------------------------------------------------------------ workloads

class Context:
    def __init__(self, seed, seconds, trace, run_dir, tree):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.dir, self.tree = run_dir, tree
        self.daemons = Daemons()
        self.attempted = self.failed = self.shed = self.timed_out = 0
        self.wrong = 0
        self.detail = {}
        self.probe_spans = []

    def subdir(self, name):
        path = os.path.join(self.dir, name)
        os.makedirs(path, exist_ok=True)
        return path


def fig3_direct(ctx):
    """Figure 3 regenerated in-process at --jobs min(4, nproc)."""
    ref = reference_fig3(ctx.seed, ctx.tree)
    args = ["fig3", "--seed", ctx.seed, "--jobs", FIG3_JOBS, "--out", "."]
    setups = []
    for _ in range(SETUPS - 1):
        ready, _ = harness_until_ready(
            args + ["--seconds", 0, "--min-renders", 0], ctx.dir)
        setups.append(ready)
    ready, res = harness_until_ready(
        args + ["--seconds", ctx.seconds, "--trace", ctx.trace], ctx.dir)
    setups.append(ready)

    with open(os.path.join(ctx.dir, "fig3.txt")) as f:
        text = f.read()
    renders = res["renders_s"]
    ctx.attempted += len(renders) + len(res["traced_s"])
    ctx.wrong += ctx.attempted if text != ref else res["mismatches"]
    err, pairs = metrics.model_err_pct(text)
    if pairs != 18:
        ctx.wrong += 1
        log("fig3: expected 18 validation pairs, found %d" % pairs)
    ctx.detail.update({"renders_s": renders, "setups_s": setups,
                       "model_pairs": pairs})
    if not ctx.trace:
        return {
            "setup_s": statistics.median(setups),
            "p50_ms": 1e3 * statistics.median(renders),
            "ops_per_s": len(renders) / sum(renders),
            "peak_rss_mb": statistics.median(
                res["render_rss_kb"] or [res["peak_rss_kb"]]) / 1024.0,
            "model_err_pct": err,
        }

    out = layer_probes(ctx)
    spans = load_spans(os.path.join(ctx.dir, "spans.json"))
    sweeps = metrics.fig3_breakdown(spans, ctx.probe_spans)

    def med(key):
        return statistics.median(s[key] for s in sweeps)

    out.update({
        "core.snoop_s": med("snoop_s"),
        "core.directory_s": med("directory_s"),
        "core.sim_refs_per_s": statistics.median(
            s["sim_records"] / s["sim_s"] for s in sweeps),
        "core.max_block_s": med("max_block_s"),
        "runner.serial_s": med("serial_s"),
        "runner.parallel_eff": statistics.median(
            s["serial_s"] / s["capacity_s"] for s in sweeps),
        "figures.blocks": med("blocks"),
        "figures.assemble_ms": 1e3 * med("assemble_s"),
        "tracing.overhead_ratio": statistics.median(res["traced_s"]) /
        statistics.median(renders),
    })
    ctx.detail["breakdown"] = sweeps
    ctx.detail["census_coverage"] = statistics.median(
        (2 * out["coherence.census_s"] + s["sim_s"]) / s["serial_s"]
        for s in sweeps)
    return out


def serve_mix(ctx):
    """One daemon under a seeded 90/10 hit/miss closed-loop mix."""
    setups = []
    serve_args = ["serve", "--endpoint", "serve.sock", "--seed", ctx.seed]
    for i in range(SETUPS):
        sub = ctx.subdir("s%d" % i)
        t0 = time.perf_counter()
        d = ctx.daemons.start([SERVE_BIN, "--endpoint", "unix:serve.sock",
                               "--workers", "2", "--mem-cache", str(SERVE_MEM),
                               "--cache-dir", "cache"], sub, "serve.sock")
        ctx.daemons.wait_ready(d)
        ready = time.perf_counter() - t0
        last = i == SETUPS - 1
        extra = ["--seconds", ctx.seconds] if last else ["--warm-only", 1]
        res = harness(serve_args + extra, sub)
        if res["warm_failed"]:
            die("serve_mix: warming failed: %s" % res["warm_error"])
        setups.append(ready + res["warm_s"])
        if not last:
            ctx.daemons.stop(d)

    hits, misses = res["hit_ms"], res["miss_ms"]
    ctx.attempted += res["attempted"]
    ctx.failed += res["failed"]
    ctx.shed += res["shed"]
    ctx.timed_out += res["timeouts"]
    ctx.wrong += res["mismatches"] + res["sample_bad"]
    if res["last_error"]:
        log("serve_mix: %s" % res["last_error"])
    statsz = call_once(d["sock"], {"op": "statsz"})
    rss_kb = peak_rss_kb(d["proc"].pid)
    out = {}
    if ctx.trace:
        ping_probe(ctx, d["sock"], out)
    ctx.daemons.stop(d)

    requests = len(hits) + len(misses) + res["dups"]
    ctx.detail.update({
        "setups_s": setups, "requests": requests, "hits": len(hits),
        "misses": len(misses), "dups": res["dups"],
        "hit_p50_ms": metrics.nearest_rank(hits, 50) if hits else None,
        "hit_p99_ms": metrics.tail(hits, 99),
        "miss_p50_ms": metrics.nearest_rank(misses, 50) if misses else None,
        "miss_p90_ms": metrics.tail(misses, 90),
        "statsz_cache": statsz.get("cache"),
        "coalesced": statsz.get("coalesced"),
    })
    if not hits or not misses:
        die("serve_mix: no %s answered" % ("hits" if not hits else "misses"))
    if not ctx.trace:
        return {
            "setup_s": statistics.median(setups),
            "p50_ms": metrics.nearest_rank(hits + misses, 50),
            "ops_per_s": requests / res["window_s"],
            "peak_rss_mb": rss_kb / 1024.0,
            "model_err_pct": metrics.pair_err_pct(res["pairs"]),
        }

    cache = statsz["cache"]
    out.update(layer_probes(ctx))
    out.update({
        "service.hit_ratio": statsz["cache_answers"] / statsz["submitted"],
        "service.disk_hit_share": cache["disk_hits"] /
        max(1, cache["mem_hits"] + cache["disk_hits"]),
        "service.coalesced": statsz["coalesced"],
        "service.shed": statsz["shed"],
        "service.overhead_ms": statistics.median(res["overhead_ms"]),
        "service.hit_p50_ms": ctx.detail["hit_p50_ms"],
        "service.hit_p99_ms": ctx.detail["hit_p99_ms"],
        "service.miss_p50_ms": ctx.detail["miss_p50_ms"],
        "service.miss_p90_ms": ctx.detail["miss_p90_ms"],
        "service.req_per_s": requests / res["window_s"],
    })
    return out


def fleet_sweep(ctx):
    """A cold Figure 3 split sweep on a 3-worker fleet, the same sweep
    coalesced from a second connection, then warm resubmits."""
    ref = reference_fig3(ctx.seed, ctx.tree)
    job = {"type": "sweep", "figure": "fig3", "fast": True, "seed": ctx.seed}
    submit = {"op": "submit", "client": "a", "wait": True, "job": job}
    setups, colds, warms, rss, stats = [], [], [], [], []
    out = {}
    text = None

    def answer(resp):
        ok = resp.get("ok") and resp.get("state") == "done"
        text = (resp.get("result") or {}).get("text")
        if not ok:
            ctx.failed += 1
            log("fleet_sweep: %s" % str(resp)[:300])
        elif text != ref:
            ctx.wrong += 1
        return text

    start = time.perf_counter()
    it = 0
    while it < SETUPS or time.perf_counter() - start < ctx.seconds:
        sub = ctx.subdir("f%d" % it)
        t0 = time.perf_counter()
        workers = [ctx.daemons.start(
            [SERVE_BIN, "--endpoint", "unix:w%d.sock" % w, "--workers", "1",
             "--cache-dir", "cache%d" % w], sub, "w%d.sock" % w)
            for w in range(FLEET_WORKERS)]
        # A fresh sharding salt per fleet: which parts land together on
        # one worker sets the makespan, and one fixed assignment per
        # seed would make that accident the measurement.
        coord = ctx.daemons.start(
            [FLEETD_BIN, "--endpoint", "unix:fleet.sock", "--workers",
             ",".join("unix:w%d.sock" % w for w in range(FLEET_WORKERS)),
             "--salt", "perfbench-%d-%d" % (ctx.seed, it)],
            sub, "fleet.sock")
        for d in workers + [coord]:
            ctx.daemons.wait_ready(d)
        setups.append(time.perf_counter() - t0)

        a, b = Conn(coord["sock"]), Conn(coord["sock"])
        try:
            t0 = time.perf_counter()
            a.send(submit)
            b.send(dict(submit, client="b"))
            first = a.receive()
            colds.append(time.perf_counter() - t0)
            text = answer(first)
            answer(b.receive())
            ctx.attempted += 2
            for _ in range(FLEET_WARM):
                t0 = time.perf_counter()
                resp = a.call(submit)
                warms.append(1e3 * (time.perf_counter() - t0))
                answer(resp)
                ctx.attempted += 1
        finally:
            a.close()
            b.close()
        statsz = call_once(coord["sock"], {"op": "statsz"})
        stats.append(statsz)
        rss.append(sum(peak_rss_kb(d["proc"].pid) for d in workers + [coord]))
        last = it >= SETUPS - 1 and time.perf_counter() - start >= ctx.seconds
        if ctx.trace and last:
            ping_probe(ctx, coord["sock"], out)
            with open(os.path.join(sub, "fig3.txt"), "w") as f:
                f.write(text or "")
            parts = harness(["parts", "--endpoint", "fleet.sock", "--seed",
                             ctx.seed, "--expect", "fig3.txt"], sub)
            if parts["failed"] or not parts["match"]:
                ctx.wrong += 1
                log("fleet_sweep: parts did not reassemble: %s" % parts)
            else:
                out["figures.assemble_ms"] = statistics.median(
                    parts["assemble_ms"])
        ctx.daemons.stop_all()
        it += 1

    # The fleet's own figure; the reference stands in only when the
    # fleet gave none, and then the run has already failed.
    err, _ = metrics.model_err_pct(text or ref)
    ctx.detail.update({"setups_s": setups, "cold_s": colds,
                       "warm_p50_ms": statistics.median(warms),
                       "fleet": stats[-1].get("fleet")})
    if not ctx.trace:
        return {
            "setup_s": statistics.median(setups),
            "p50_ms": 1e3 * statistics.median(colds),
            "ops_per_s": len(colds) / sum(colds),
            "peak_rss_mb": statistics.median(rss) / 1024.0,
            "model_err_pct": err,
        }

    fleet = stats[-1]["fleet"]
    wstats = [w["statsz"] for w in stats[-1]["workers"] if w.get("statsz")]
    computed = [w["completed"] for w in wstats]
    submitted = sum(w["submitted"] for w in wstats)
    mem = sum(w["cache"]["mem_hits"] for w in wstats)
    disk = sum(w["cache"]["disk_hits"] for w in wstats)
    direct = harness(["fig3", "--seed", ctx.seed, "--jobs", FLEET_WORKERS,
                      "--seconds", 0, "--out", "."], ctx.dir)
    out.update(layer_probes(ctx))
    out.update({
        "figures.blocks": stats[-1]["fleet"]["parts_forwarded"] /
        max(1, fleet["sweep_splits"]),
        "fleet.parts_forwarded": fleet["parts_forwarded"],
        "fleet.requeues": fleet["requeues"],
        "fleet.coalesced": fleet["coalesced"],
        "fleet.overhead_ratio": statistics.median(colds) /
        statistics.median(direct["renders_s"]),
        "fleet.worker_imbalance": max(computed) /
        max(1e-9, statistics.fmean(computed)),
        "fleet.warm_p50_ms": statistics.median(warms),
        "service.hit_ratio": sum(w["cache_answers"] for w in wstats) /
        max(1, submitted),
        "service.disk_hit_share": disk / max(1, mem + disk),
        "service.coalesced": sum(w["coalesced"] for w in wstats),
        "service.shed": sum(w["shed"] for w in wstats),
    })
    return out


WORKLOADS = {"fig3_direct": fig3_direct, "serve_mix": serve_mix,
             "fleet_sweep": fleet_sweep}


# -------------------------------------------------------------- compare

def load_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(argv):
    """Per workload and metric: each side's median and quartiles, and
    whether the change improved, left unchanged, worsened or could not
    resolve the metric (the rule is in metrics.verdict)."""
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [load_records(args.base), load_records(args.change)]
    keys = sorted({(r["workload"], r["trace"]) for s in sides for r in s})
    for workload, trace in keys:
        runs = [[r for r in s if r["workload"] == workload and
                 r["trace"] == trace] for s in sides]
        print("\n%s (%s, %d vs %d runs)" % (
            workload, "traced" if trace else "untraced", len(runs[0]),
            len(runs[1])))
        print("%-32s %-30s %-30s %s" % ("metric", "base q1/median/q3",
                                         "change q1/median/q3", "verdict"))
        for name in sorted({n for r in runs[0] + runs[1] for n in r["metrics"]}):
            vals = [[r["metrics"][name]["value"] for r in side
                     if name in r["metrics"]] for side in runs]
            if not vals[0] or not vals[1]:
                continue
            m = spec.get(name, {"better": "lower"})

            def q(v):
                if len(v) < 2:
                    return "%.4g" % v[0]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                return "%.4g/%.4g/%.4g" % (q1, q2, q3)

            print("%-32s %-30s %-30s %s" % (
                name, q(vals[0]), q(vals[1]),
                metrics.verdict(vals[0], vals[1], m["better"],
                                m.get("bound"))))
    return 0


# ----------------------------------------------------------------- main

def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = metrics.check_benchmark_json(bench)
    if problems:
        die("BENCHMARK.json: %s" % "; ".join(problems))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        die("unknown workload %r" % args.workload)
    build()
    st = stamp()
    log("stamp " + json.dumps(st))
    if st["build_type"] not in OPTIMIZED:
        die("refusing to measure a %s build" % st["build_type"])

    run_dir = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ctx = Context(args.seed, args.seconds, args.trace, run_dir, st["tree"])
    try:
        values = WORKLOADS[args.workload](ctx)
    finally:
        ctx.daemons.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, ok_frac = metrics.failures(
        ctx.attempted, ctx.failed, ctx.shed, ctx.timed_out, ctx.wrong)
    values["ok_frac"] = ok_frac
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {}
    for m in listed:
        v = values.get(m["name"])
        if v is None:
            if not args.trace:
                die("no value for %s" % m["name"])
            v = 0  # the layer did no work on this workload's path
        out[m["name"]] = {"value": float(v), "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, stamp=st,
                  detail=ctx.detail, time=time.time())
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    log("detail " + json.dumps(ctx.detail)[:4000])
    print(json.dumps(result), flush=True)
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A caller's timeout (SIGTERM) must still stop the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
