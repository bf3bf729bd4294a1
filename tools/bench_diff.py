#!/usr/bin/env python3
"""Compare a fresh update_time run against the committed perf baseline.

Usage:
    ./build/update_time --benchmark_out=fresh.json --benchmark_out_format=json
    python3 tools/bench_diff.py fresh.json [--baseline BENCH_update_time.json]
        [--threshold 0.25]
    python3 tools/bench_diff.py --doc [--baseline BENCH_update_time.json]

Per benchmark family present in BOTH files, compares ns/op (real_time for
per-op benchmarks, items_per_second inverted when available) and reports the
relative change. Exits 1 if any family regressed by more than --threshold
(default 25%); new or removed families are reported but never fail the run.

--doc renders the baseline as the README's perf-table rows (markdown, ns per
item for per-op families, MB/s for byte-throughput families such as the
snapshot save/load benches) so the documented numbers are always emitted
from the committed measurements instead of retyped — regenerate the README
table with it whenever the baseline is refreshed.

Refreshing the baseline: run update_time from a quiet machine (it writes
BENCH_update_time.json in the working directory by default), eyeball the
diff against the committed file, and commit the new JSON alongside the
change that explains it. CI runs this script as a non-blocking step —
shared-runner noise makes hard gating counterproductive, but the log keeps
the trend visible on every PR.

Each JSON records its run context: the dispatched SIMD tier
("covstream_isa"), the compiler ("covstream_compiler") and whether NDEBUG
was set ("covstream_ndebug"), all stamped by bench/benchmark_json_main.hpp,
and the host's CPU count ("num_cpus", google-benchmark's own). Comparing
files that differ in any of these measures the tier, the host or the build,
not the change under review, so such a pair is refused. A file without an
entry (written before it was stamped) passes on that entry.
"""

import argparse
import json
import sys


# Context entries two files must share to be compared, each with what a
# diff across them would measure instead of the change.
MATCHED_CONTEXT = {
    "covstream_isa": "the SIMD tier (rerun with COVSTREAM_ISA set to the "
                     "baseline's tier, or refresh the baseline)",
    "num_cpus": "a different host",
    "covstream_compiler": "a different compiler",
    "covstream_ndebug": "a build with assertions on against one without",
}


def load_context(path):
    with open(path) as fh:
        return json.load(fh).get("context", {})


def check_same_context(fresh_path, baseline_path):
    """Refuses a pair whose MATCHED_CONTEXT entries differ; an entry missing
    from either file passes (legacy)."""
    fresh, base = load_context(fresh_path), load_context(baseline_path)
    same = True
    for key, measures in MATCHED_CONTEXT.items():
        if key in fresh and key in base and fresh[key] != base[key]:
            print(f"refusing to compare: {fresh_path} has {key}="
                  f"{fresh[key]!r} but {baseline_path} has {key}="
                  f"{base[key]!r}; the diff would measure {measures}.",
                  file=sys.stderr)
            same = False
    return same


def load_family_times(path):
    """name -> WALL ns per item.

    google-benchmark's items_per_second divides by CPU time, which
    misreports pool-parallel benchmarks (the driving thread sleeps while
    workers run). Items per iteration is reconstructed from
    items_per_second * cpu_time, and wall time divided by it; serial
    benchmarks come out identical to 1e9 / items_per_second.
    """
    with open(path) as fh:
        data = json.load(fh)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[
            bench.get("time_unit", "ns")]
        real_ns = bench["real_time"] * unit
        items = bench.get("items_per_second")
        cpu_ns = bench.get("cpu_time", 0) * unit
        if items and cpu_ns:
            items_per_iter = items * cpu_ns * 1e-9
            times[name] = real_ns / items_per_iter
        else:
            times[name] = real_ns
    return times


def load_qps(path):
    """name -> {"qps": req/s, "p50_us":..., "p99_us":...} for the serve
    benchmarks (bench/serve_qps.cpp), which publish a `qps` counter.

    These are a separate family on purpose: direction is inverted (higher
    throughput is better, so a DROP is the regression), and tail latency is
    tracked alongside — a change can hold QPS while blowing up p99, which
    per-op averaging would hide.
    """
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if "qps" not in bench:
            continue
        out[bench["name"]] = {
            "qps": bench["qps"],
            "p50_us": bench.get("p50_us"),
            "p99_us": bench.get("p99_us"),
        }
    return out


def load_byte_rates(path):
    """name -> MB/s for families that report bytes_per_second."""
    with open(path) as fh:
        data = json.load(fh)
    rates = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("bytes_per_second")
        if rate:
            rates[bench["name"]] = rate / 1e6
    return rates


def emit_doc_rows(baseline):
    """Print the README perf-table rows from the committed baseline."""
    times = load_family_times(baseline)
    rates = load_byte_rates(baseline)
    qps = load_qps(baseline)
    print("| benchmark | measured |")
    print("|---|---:|")
    for name in sorted(times):
        if name in qps:
            entry = qps[name]
            p99 = (f", p99 {entry['p99_us']:.1f} µs"
                   if entry.get("p99_us") is not None else "")
            print(f"| `{name}` | {entry['qps'] / 1e3:.0f}k req/s{p99} |")
        elif name in rates:
            print(f"| `{name}` | {rates[name]:.0f} MB/s |")
        else:
            print(f"| `{name}` | {times[name]:.1f} ns/item |")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="?",
                        help="JSON from a fresh update_time run")
    parser.add_argument("--baseline", default="BENCH_update_time.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that fails the run")
    parser.add_argument("--doc", action="store_true",
                        help="emit the README perf-table rows from the "
                             "baseline and exit")
    args = parser.parse_args()

    if args.doc:
        return emit_doc_rows(args.baseline)
    if args.fresh is None:
        parser.error("fresh JSON required unless --doc is given")

    if not check_same_context(args.fresh, args.baseline):
        return 1

    fresh = load_family_times(args.fresh)
    base = load_family_times(args.baseline)
    fresh_qps = load_qps(args.fresh)
    base_qps = load_qps(args.baseline)
    # QPS families compare on throughput (inverted direction) below, not on
    # the ns-per-item table.
    for name in list(fresh_qps) + list(base_qps):
        fresh.pop(name, None)
        base.pop(name, None)

    regressions = []
    rows = []
    for name in sorted(set(fresh) | set(base)):
        if name not in base:
            rows.append((name, None, fresh[name], "new"))
            continue
        if name not in fresh:
            rows.append((name, base[name], None, "removed"))
            continue
        ratio = fresh[name] / base[name] - 1.0
        flag = ""
        if ratio > args.threshold:
            flag = "REGRESSION"
            regressions.append((name, ratio))
        elif ratio < -args.threshold:
            flag = "improved"
        rows.append((name, base[name], fresh[name], flag or f"{ratio:+.1%}"))

    width = max(len(r[0]) for r in rows) if rows else 20
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  status")
    for name, b, f, flag in rows:
        bs = f"{b:12.1f}" if b is not None else f"{'-':>12}"
        fs = f"{f:12.1f}" if f is not None else f"{'-':>12}"
        print(f"{name:<{width}}  {bs}  {fs}  {flag}")
    print(f"(ns per item; threshold ±{args.threshold:.0%})")

    qps_rows = []
    for name in sorted(set(fresh_qps) | set(base_qps)):
        if name not in base_qps:
            qps_rows.append((name, None, fresh_qps[name]["qps"], "new"))
            continue
        if name not in fresh_qps:
            qps_rows.append((name, base_qps[name]["qps"], None, "removed"))
            continue
        b, f = base_qps[name], fresh_qps[name]
        drop = 1.0 - f["qps"] / b["qps"]  # higher is better: a drop regresses
        flags = []
        if drop > args.threshold:
            flags.append("QPS REGRESSION")
            regressions.append((name, -drop))
        elif drop < -args.threshold:
            flags.append("improved")
        if b.get("p99_us") and f.get("p99_us") and \
                f["p99_us"] / b["p99_us"] - 1.0 > args.threshold:
            flags.append(f"P99 REGRESSION ({b['p99_us']:.1f} -> "
                         f"{f['p99_us']:.1f} µs)")
            regressions.append((name + " [p99]",
                                f["p99_us"] / b["p99_us"] - 1.0))
        qps_rows.append((name, b["qps"], f["qps"],
                         " ".join(flags) or f"{-drop:+.1%}"))
    if qps_rows:
        width = max(len(r[0]) for r in qps_rows)
        print(f"\n{'serve benchmark':<{width}}  {'baseline':>12}  "
              f"{'fresh':>12}  status")
        for name, b, f, flag in qps_rows:
            bs = f"{b:12.0f}" if b is not None else f"{'-':>12}"
            fs = f"{f:12.0f}" if f is not None else f"{'-':>12}"
            print(f"{name:<{width}}  {bs}  {fs}  {flag}")
        print(f"(requests per second, higher is better; p99 tracked at the "
              f"same ±{args.threshold:.0%})")

    if regressions:
        print(f"\n{len(regressions)} famil{'y' if len(regressions) == 1 else 'ies'} "
              f"regressed beyond {args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:+.1%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
