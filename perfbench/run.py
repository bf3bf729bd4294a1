#!/usr/bin/env python3
"""End-to-end benchmark of covstream: the shipped covstream_cli, whole.

Run from the root of a covstream checkout:

    python3 perfbench/run.py --workload file_kcover --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

  file_kcover  `covstream_cli --cmd=kcover` over a seeded 20M-edge zipf file,
               at --threads=4 and --threads=1
  wire_ingest  open-loop 64-edge `ingest` lines + read-your-writes `estimate`
               against `covstream_cli --cmd=serve --port=N --threads=2`

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
replays and prints the per-layer metrics. Every answer is checked; a
failed check prints `"correct": false` with no metrics and exits 1.
The last stdout line is the JSON result; the full record, stamped with
its run context, goes to .bench_out/.

    python3 perfbench/run.py --compare OLD.json NEW.json

compares two records, refusing when their run contexts differ.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
CLI = os.path.join(BUILD, "covstream", "covstream_cli")
TOOL = os.path.join(BUILD, "perfbench_tool")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

# Set-ups per run; setup_s is their median. The workload sizes live in
# perfbench_tool (src/tool.hpp), which reports file_kcover's to this script.
SETUP_REPEATS = 3
SERVER_ARGS = ["--threads=2"]

PER_LAYER = [
    ("stream.read_s", "s"), ("stream.edges", "count"),
    ("core.admit_s", "s"), ("core.kept_ratio", "ratio"),
    ("core.merge_s", "s"), ("parallel.shard_skew", "ratio"),
    ("sketch.peak_space_words", "words"), ("sketch.p_star", "ratio"),
    ("sketch.estimate_rel_err", "ratio"),
    ("solve.view_s", "s"), ("solve.greedy_s", "s"),
    ("serve.fleet.publish_ms", "ms"), ("serve.fleet.publish_bytes", "bytes"),
    ("core.estimate_scan_ms", "ms"), ("serve.fleet.estimate_ms", "ms"),
    ("serve.fleet.solve_ms", "ms"),
    ("sketch.snapshot.spill_ms", "ms"), ("sketch.snapshot.reload_ms", "ms"),
    ("serve.dispatch.exec_ms", "ms"),
    ("serve.dispatch.batched_requests", "count"),
    ("serve.dispatch.coalesced_ingest_lines", "count"),
    ("serve.fleet.estimate_batches", "count"),
    ("serve.net.self_ms", "ms"), ("serve.net.wakeups_per_req", "ratio"),
    ("parallel.pool_pending", "count"), ("loadgen.lag_p99_ms", "ms"),
    ("trace.self_sum_ratio", "ratio"), ("trace.overhead_ratio", "ratio"),
]


class CheckFailed(Exception):
    """An output of the program under test was wrong."""

    def __init__(self, message, attempted=1, failed=1):
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --
def build():
    """Builds covstream_cli and perfbench_tool from this checkout's source."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(
                f"{needed} not found in {ROOT}: run from the root of a "
                "covstream checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                    "--target", "covstream_cli", "perfbench_tool"],
                   check=True, stdout=sys.stderr)


def tool(*args, timeout=170):
    """Runs perfbench_tool; returns its last stdout line as JSON."""
    proc = subprocess.run([TOOL, *args], stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_tool {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_context():
    """Everything a result depends on besides the code under test."""
    ctx = tool("context")
    ctx["host"] = platform.node()
    ctx["nproc"] = os.cpu_count()
    ctx["git_sha"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        ctx["git_sha"] = sha.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    ctx["source_digest"] = digest.hexdigest()[:16]
    return ctx


# Code identity differs between the two sides of any comparison; everything
# else must match for the numbers to be comparable.
CODE_IDENTITY = ("git_sha", "source_digest")


def compare(old_path, new_path):
    with open(old_path) as handle:
        old = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    mismatched = [key for key in sorted(set(old["context"]) | set(new["context"]))
                  if key not in CODE_IDENTITY
                  and old["context"].get(key) != new["context"].get(key)]
    if mismatched:
        for key in mismatched:
            print(f"context mismatch: {key}: {old['context'].get(key)!r} vs "
                  f"{new['context'].get(key)!r}", file=sys.stderr)
        print("refusing to compare results from different run contexts",
              file=sys.stderr)
        return 1
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare different workloads or trace modes",
              file=sys.stderr)
        return 1
    for name, metric in sorted(new["metrics"].items()):
        before = old["metrics"].get(name, {}).get("value")
        after = metric["value"]
        ratio = after / before if before else float("nan")
        print(f"{name:40s} {before!s:>22} {after!s:>22} {metric['unit']:>8} "
              f"x{ratio:.3f}")
    return 0


# -------------------------------------------------------------- processes --
def run_timed(argv, timeout=170):
    """Runs argv to exit; returns (exit code, stdout, wall s, peak RSS MB).

    Wall time is exec to exit as seen from here; peak RSS is the child's own
    (wait4 rusage), so nothing else in this process pollutes it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    usage = wait_rusage(proc, timeout)
    wall = time.perf_counter() - start
    with proc.stdout:
        out = proc.stdout.read()
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def wait_rusage(proc, timeout):
    """Reaps `proc` (killed after `timeout` s) and returns its rusage. Its
    stdout must fit the pipe buffer, as the CLI's short reports do."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """`covstream_cli --cmd=serve --port=N` as a separate process.

    `--port=0` would start the stdin REPL, not an ephemeral port, so a free
    port is picked here and the boot retried if another process takes it
    first. The server is stopped with the wire `shutdown` command and must
    exit 0.
    """

    def __init__(self, args, spill_dir, log_path):
        self.args = args
        self.spill_dir = spill_dir
        self.log_path = log_path
        self.proc = None
        self.port = None
        self.boot_s = None

    def start(self):
        for _ in range(5):
            self.port = free_port()
            start = time.perf_counter()
            with open(self.log_path, "w") as err:
                self.proc = subprocess.Popen(
                    [CLI, "--cmd=serve", f"--port={self.port}",
                     f"--spill-dir={self.spill_dir}", *self.args],
                    stdout=subprocess.PIPE, stderr=err, text=True)
            line = self._banner(deadline=time.monotonic() + 30)
            if line is not None:
                self.boot_s = time.perf_counter() - start
                return
            self.proc.wait(timeout=30)
            with open(self.log_path) as err:
                text = err.read()
            if "cannot listen" not in text:
                raise RuntimeError(f"server failed to boot: {text.strip()}")
            log(f"port {self.port} taken, retrying")
        raise RuntimeError("server could not bind a port in 5 attempts")

    def _banner(self, deadline):
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    return None
                if line.startswith("fleet serving on"):
                    return line
            elif self.proc.poll() is not None:
                return None
        raise RuntimeError("server did not print its banner within 30 s")

    def stop(self):
        """Sends `shutdown`, waits, checks the exit status; returns peak RSS."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall(b"shutdown\n")
            reply = s.makefile().readline().strip()
        usage = wait_rusage(self.proc, 60)
        self.proc.stdout.close()
        if reply != "ok bye" or self.proc.returncode != 0:
            raise RuntimeError(f"server shutdown: reply {reply!r}, exit "
                               f"{self.proc.returncode}")
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


# ------------------------------------------------------------ statistics --
def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    return statistics.median(values)


# ------------------------------------------------------------ file_kcover --
def kcover_argv(path, cfg, seed, threads):
    return [CLI, "--cmd=kcover", f"--input={path}", f"--n={cfg['n']:.0f}",
            f"--k={cfg['k']:.0f}", f"--eps={cfg['eps']:g}", f"--seed={seed}",
            f"--threads={threads}"]


def parse_kcover(out):
    """(estimate, solution) from the kcover report."""
    estimate = solution = None
    for line in out.splitlines():
        if line.startswith("k-cover"):
            estimate = line.rsplit(" ", 1)[1]
        elif line.strip().startswith("solution"):
            solution = line.split(":", 1)[1].split()
    if estimate is None or not solution:
        raise CheckFailed("kcover printed no estimate or solution")
    return estimate, solution


def generate_file(tmp, scale, seed):
    """Writes the input SETUP_REPEATS times; returns (path, the workload's
    sizes as perfbench_tool reports them, median seconds)."""
    path = os.path.join(tmp, "kcover.bin")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cfg = tool("gen", f"--out={path}", f"--scale={scale}", f"--seed={seed}")
        times.append(time.perf_counter() - start)
    return path, cfg, median(times)


def run_kcover(path, cfg, seed, threads, results):
    code, out, wall, rss = run_timed(kcover_argv(path, cfg, seed, threads))
    if code != 0:
        raise CheckFailed(f"kcover --threads={threads} exited {code}",
                          attempted=len(results) + 1)
    results.append({"seed": seed, "threads": threads, "wall": wall, "rss": rss,
                    "answer": parse_kcover(out)})


def check_kcover(results, path, args, cfg):
    """Every job with one sketch seed, pooled or serial, must print the same
    answer (DESIGN.md §5.5), and each seed's estimate must be within eps of
    the exact coverage of its solution, which an untimed pass over the file
    by this package's own parser gives. Returns the mean relative error and
    the exact coverage per seed."""
    if args.corrupt:
        estimate, solution = results[-1]["answer"]
        results[-1]["answer"] = (estimate, solution[::-1])
    answers = {}
    for r in results:
        first = answers.setdefault(r["seed"], r["answer"])
        if r["answer"] != first:
            raise CheckFailed(
                f"kcover --seed={r['seed']} --threads={r['threads']} printed "
                f"{r['answer']}, an earlier job printed {first}",
                attempted=len(results) + 1)
    seeds = sorted(answers)
    exact = tool("exact", f"--input={path}", f"--scale={args.scale}",
                 "--sets=" + "/".join(",".join(answers[s][1]) for s in seeds))["coverage"]
    rel_errs = []
    for seed, coverage in zip(seeds, exact):
        rel_err = abs(float(answers[seed][0]) - coverage) / coverage
        if rel_err > cfg["eps"]:
            raise CheckFailed(f"kcover --seed={seed}: estimate {answers[seed][0]} vs "
                              f"exact {coverage}: relative error {rel_err:.4f} > eps",
                              attempted=len(results) + 1)
        rel_errs.append(rel_err)
    return statistics.fmean(rel_errs), dict(zip(seeds, exact))


def file_kcover(args, tmp):
    path, cfg, setup_s = generate_file(tmp, args.scale, args.seed)
    pooled_threads = int(cfg["pooled_threads"])
    results = []
    if args.trace:
        return file_kcover_traced(args, tmp, cfg, path, results)
    # One untimed job first, so the file and the allocator are warm. Then
    # rounds of pooled, serial, pooled: two pooled jobs per serial one, since
    # three metrics rest on the pooled job; the serial job sits between
    # them, so slow spells of the shared host land on both alike.
    # Each round uses its own sketch seed, so estimate_accuracy averages
    # over about ten sketches rather than resting on one.
    run_kcover(path, cfg, args.seed * 1000, pooled_threads, [])
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < 2 or time.perf_counter() < deadline:
        for threads in (pooled_threads, 1, pooled_threads):
            run_kcover(path, cfg, args.seed * 1000 + rounds, threads, results)
        rounds += 1
    rel_err, exact = check_kcover(results, path, args, cfg)
    pooled = [r["wall"] for r in results if r["threads"] == pooled_threads]
    serial = [r["wall"] for r in results if r["threads"] == 1]
    # For a batch job, throughput and job time are one measurement:
    # rate_per_s and p50_ms both come from the median pooled job. The
    # metric set is shared with wire_ingest, where they differ.
    metrics = end_to_end(
        setup_s=setup_s,
        peak_rss_mb=median([r["rss"] for r in results if r["threads"] == pooled_threads]),
        rate_per_s=cfg["edges"] / median(pooled),
        serial_rate_per_s=cfg["edges"] / median(serial),
        p50_ms=median(pooled) * 1e3,
        estimate_accuracy=1.0 - rel_err)
    detail = {"workload": cfg, "runs": len(results), "exact_coverage": exact,
              "mean_rel_err": rel_err, "pooled_walls": pooled, "serial_walls": serial}
    return len(results) + 1, metrics, detail


def file_kcover_traced(args, tmp, cfg, path, results):
    """Per-layer metrics from perfbench_tool trace-kcover, which replays the
    CLI's job in process, alternately untraced and traced. The CLI jobs run
    here are the untraced reference the replay must reproduce."""
    pooled_threads = int(cfg["pooled_threads"])
    for threads in (1, pooled_threads) * 3:
        run_kcover(path, cfg, args.seed, threads, results)
    t = tool("trace-kcover", f"--input={path}", f"--scale={args.scale}",
             f"--seed={args.seed}", f"--tmp={tmp}",
             f"--spans={os.path.join(OUT_DIR, 'spans-file_kcover')}")
    if not t["replays_agree"]:
        raise CheckFailed("the in-process replays printed different answers",
                          attempted=len(results) + 1)
    for side, threads in (("serial", 1), ("pooled", pooled_threads)):
        results.append({"seed": args.seed, "threads": threads, "wall": 0, "rss": 0,
                        "answer": (f"{t[side + '_estimate']:.0f}",
                                   t[side + "_solution"].split(","))})
    rel_err, exact = check_kcover(results, path, args, cfg)

    cli_serial = median([r["wall"] for r in results if r["threads"] == 1 and r["wall"]])
    cli_pooled = median([r["wall"] for r in results
                         if r["threads"] == pooled_threads and r["wall"]])
    serial_self, pooled_self = t["serial_self_s"], t["pooled_self_s"]
    # The traced replay's self times against the CLI job they stand for, and
    # the traced replay against the same replay untraced.
    self_sum = sum(serial_self.values())
    overhead = median(t["serial_traced_s"]) / median(t["serial_untraced_s"]) - 1.0
    log(f"file_kcover serial self-time sum {self_sum:.3f} s vs CLI job "
        f"{cli_serial:.3f} s; replay untraced {median(t['serial_untraced_s']):.3f} s, "
        f"traced {median(t['serial_traced_s']):.3f} s; pooled self-time sum "
        f"{sum(pooled_self.values()):.3f} s vs CLI job {cli_pooled:.3f} s")
    layers = zero_layers()
    layers.update({
        "stream.read_s": serial_self.get("stream.read", 0.0),
        "stream.edges": t["edges"],
        "core.admit_s": serial_self.get("core.admit", 0.0),
        "core.kept_ratio": t["stored_edges"] / t["edges"],
        "core.merge_s": pooled_self.get("core.merge", 0.0),
        "parallel.shard_skew": t["shard_skew"],
        "sketch.peak_space_words": t["peak_space_words"],
        "sketch.p_star": t["p_star"],
        "sketch.estimate_rel_err": rel_err,
        "solve.view_s": serial_self.get("solve.view", 0.0),
        "solve.greedy_s": serial_self.get("solve.greedy", 0.0),
        "serve.fleet.publish_ms": t["publish_ms"],
        "serve.fleet.publish_bytes": t["publish_bytes"],
        "core.estimate_scan_ms": t["estimate_scan_ms"],
        "sketch.snapshot.spill_ms": t["spill_ms"],
        "sketch.snapshot.reload_ms": t["reload_ms"],
        "trace.self_sum_ratio": self_sum / cli_serial,
        "trace.overhead_ratio": overhead,
    })
    detail = {"workload": cfg, "trace": t, "cli_serial_s": cli_serial,
              "cli_pooled_s": cli_pooled, "exact_coverage": exact}
    return len(results) + 1, layer_metrics(layers), detail


# Every workload reports every end-to-end metric (BENCHMARK.json), each
# read off that workload's own unit of work; see README.md for the table.
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "rate_per_s": "1/s",
    "serial_rate_per_s": "1/s", "p50_ms": "ms",
    "estimate_accuracy": "ratio",
}


def end_to_end(**values):
    assert set(values) == set(END_TO_END), sorted(set(values) ^ set(END_TO_END))
    return {name: metric(float(values[name]), unit) for name, unit in END_TO_END.items()}


def zero_layers():
    """Every per-layer metric, 0 where the workload never enters the layer."""
    return {name: 0.0 for name, _ in PER_LAYER}


def layer_metrics(layers):
    units = dict(PER_LAYER)
    return {name: metric(float(layers[name]), units[name]) for name in units}


# ------------------------------------------------------------ wire_ingest --
def wire_ingest(args, tmp):
    spill = os.path.join(tmp, "spill")
    server_log = os.path.join(tmp, "server.log")
    common = [f"--scale={args.scale}", f"--seed={args.seed}"]
    setups = []
    # Extra set-ups (boot, create, warm-up, shutdown) so setup_s is a median.
    for _ in range(SETUP_REPEATS - 1):
        shutil.rmtree(spill, ignore_errors=True)
        server = Server(SERVER_ARGS, spill, server_log)
        try:
            server.start()
            setup = tool("wire", *common, f"--port={server.port}", "--mode=setup")
            server.stop()
        finally:
            server.kill()
        setups.append(server.boot_s + setup["setup_s"])

    shutil.rmtree(spill, ignore_errors=True)
    server = Server(SERVER_ARGS, spill, server_log)
    mode = "trace" if args.trace else "run"
    spans = os.path.join(OUT_DIR, "spans-wire_ingest")
    try:
        server.start()
        run = tool("wire", *common, f"--port={server.port}", f"--mode={mode}",
                   f"--seconds={args.seconds}", f"--corrupt={int(args.corrupt)}",
                   f"--spans={spans}.client.json" if args.trace else "--spans=")
        rss = server.stop()
    finally:
        server.kill()
    setups.append(server.boot_s + run["setup_s"])
    if run["failed"]:
        raise CheckFailed("; ".join(run["errors"]) or "wire check failed",
                          attempted=int(run["attempted"]), failed=int(run["failed"]))
    attempted = int(run["attempted"])
    if args.trace:
        metrics, replay = wire_layers(args, tmp, run)
        return attempted, metrics, {"phases": run["phases"], "replay": replay}

    def slices(name):
        return [p for p in run["phases"] if p["name"] == name]

    def closed_loop_rate(name, conns):
        # Each connection's pace at the median round trip: a stall of the
        # shared host slows a few requests, not the median.
        return conns * 1e3 / median([p["all_p50_ms"] for p in slices(name)])

    # Each figure is a median over the run's slices of that phase (see
    # wire.cpp), so a slow spell of the host over a few slices does not set it.
    max_rate_rps = max_rate(slices("ladder"), run["p99_limit_ms"])
    metrics = end_to_end(
        setup_s=median(setups),
        peak_rss_mb=rss,
        rate_per_s=closed_loop_rate("concurrent", 4),
        serial_rate_per_s=closed_loop_rate("serial", 1),
        p50_ms=median([p["ingest"]["p50_ms"] for p in slices("reference")]),
        estimate_accuracy=run["estimate_accuracy"])
    log(f"wire_ingest max_rate_rps {max_rate_rps:.0f} (record detail only)")
    detail = {"setups_s": setups, "max_rate_rps": max_rate_rps,
              "phases": run["phases"], "estimates_checked": run["estimates_checked"]}
    return attempted, metrics, detail


def max_rate(ladder, limit_ms):
    """Highest offered rate whose p99 meets the limit without a growing
    backlog. The ladder doubles until a rung fails, then bisects; the
    answer is the achieved rate of the highest passing rung, moved toward
    the lowest failing rung above it by where the p99 crosses the limit
    between the two (log-log interpolation), so it varies continuously
    instead of in ladder steps."""
    passing = [p for p in ladder if p["pass"]]
    if not passing:
        first = min(ladder, key=lambda p: p["rate"])
        return first["achieved_rps"] * min(1.0, limit_ms / max(first["all_p99_ms"], 1e-9))
    top = max(passing, key=lambda p: p["rate"])
    above = [p for p in ladder if not p["pass"] and p["rate"] > top["rate"]]
    if not above:
        return top["achieved_rps"]
    fail = min(above, key=lambda p: p["rate"])
    lo, hi = max(top["all_p99_ms"], 1e-6), max(fail["all_p99_ms"], limit_ms * 1.001)
    frac = math.log(limit_ms / lo) / math.log(hi / lo) if hi > lo else 0.0
    return top["achieved_rps"] * (fail["rate"] / top["rate"]) ** min(max(frac, 0.0), 1.0)


def wire_layers(args, tmp, run):
    """Composes one request's span tree from the live round trip (client
    clock) and the in-process replays of each server layer."""
    untraced = next(p for p in run["phases"] if p["name"] == "untraced")
    traced = next(p for p in run["phases"] if p["name"] == "traced")
    replay = tool("trace-fleet", f"--scale={args.scale}", f"--seed={args.seed}",
                  f"--tmp={tmp}",
                  f"--spans={os.path.join(OUT_DIR, 'spans-wire_ingest')}.replay.json")

    def ms(name):
        return replay[name]["p50_ms"] if name in replay else 0.0

    rtt = traced["ingest"]["p50_ms"]
    untraced_rtt = untraced["ingest"]["p50_ms"]
    dispatch = ms("serve.dispatch.ingest")
    fleet = ms("serve.fleet.ingest")
    inner = {"core.admit": ms("core.admit"), "serve.publish": ms("serve.publish")}
    # Every part is measured on its own: the network/reactor path is the
    # live `ping` round trip under the same load (socket, reactor, a pool
    # thread, no fleet layer); the server layers are the replay's medians.
    # Their sum is then checked against the untraced ingest round trip.
    selfs = {"serve.net": traced["ping"]["p50_ms"], "serve.dispatch": dispatch - fleet,
             "serve.fleet": fleet - sum(inner.values()), **inner}
    selfs = {name: max(value, 0.0) for name, value in selfs.items()}
    total = sum(selfs.values())
    log("wire_ingest ingest self times (ms): "
        + ", ".join(f"{k} {v:.3f}" for k, v in selfs.items())
        + f"; sum {total:.3f} vs untraced p50 {untraced_rtt:.3f}, left unexplained "
        f"{untraced_rtt - total:.3f}")

    delta = traced["stats_delta"]
    served = max(traced["sent"], 1)
    layers = zero_layers()
    layers.update({
        "core.admit_s": ms("core.admit") / 1e3,
        "core.kept_ratio": replay["kept_ratio"],
        "sketch.peak_space_words": replay["peak_space_words"],
        "sketch.p_star": replay["p_star"],
        "solve.view_s": ms("solve.view") / 1e3,
        "solve.greedy_s": ms("solve.greedy") / 1e3,
        "serve.fleet.publish_ms": ms("serve.publish"),
        "serve.fleet.publish_bytes": replay["publish_bytes"],
        "core.estimate_scan_ms": ms("core.estimate"),
        "serve.fleet.estimate_ms": ms("serve.fleet.estimate"),
        "serve.fleet.solve_ms": ms("serve.fleet.solve"),
        "sketch.snapshot.spill_ms": ms("sketch.snapshot.spill"),
        "sketch.snapshot.reload_ms": ms("sketch.snapshot.reload"),
        "serve.dispatch.exec_ms": dispatch,
        "serve.dispatch.batched_requests": delta.get("batched_requests", 0),
        "serve.dispatch.coalesced_ingest_lines": delta.get("coalesced_ingest_lines", 0),
        "serve.fleet.estimate_batches": delta.get("estimate_batches", 0),
        "serve.net.self_ms": selfs["serve.net"],
        "serve.net.wakeups_per_req": delta.get("epoll_wakeups", 0) / served,
        "parallel.pool_pending": traced["pool_pending_mean"],
        "loadgen.lag_p99_ms": traced["lag_p99_ms"],
        "trace.self_sum_ratio": total / untraced_rtt,
        "trace.overhead_ratio": rtt / untraced_rtt - 1.0,
    })
    return layer_metrics(layers), replay


WORKLOADS = {"file_kcover": file_kcover, "wire_ingest": wire_ingest}


# ------------------------------------------------------------------ main --
def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="tamper with one answer; the check must fail")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    tmp = None
    try:
        build()
        context = run_context()
        os.makedirs(OUT_DIR, exist_ok=True)
        os.makedirs(TMP_ROOT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
        attempted, metrics, detail = WORKLOADS[args.workload](args, tmp)
    except CheckFailed as failure:
        log(f"CHECK FAILED: {failure}")
        print(json.dumps({"correct": False, "attempted": failure.attempted,
                          "failed": failure.failed, "metrics": {}}))
        return 1
    except Exception:  # noqa: BLE001 - any other error is a broken run
        traceback.print_exc()
        return 2
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(TMP_ROOT) and not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)

    record = {"context": context, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
              "metrics": metrics, "detail": detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(record, handle, indent=1)
    for key, value in metrics.items():
        log(f"{key:40s} {value['value']:.6g} {value['unit']}")
    print("context: " + json.dumps(context))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
