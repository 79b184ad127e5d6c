#!/usr/bin/env python3
"""Benchmark of the HFuse fusion search and compile path.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `hfuse-perfbench` binary (the
package in this directory) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then runs repetitions of the workload, each in a fresh
process, until `--seconds` have passed (at least `MIN_REPS`). A fresh
process per repetition gives every repetition the same cold process-wide
analysis cache. The first repetition checks the search winners; every
repetition checks its compiled candidates and edits, and all of them must
agree exactly on the simulated results. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`, each
metric the median over repetitions. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced repetitions, reports
the per-layer metrics and the tracing overhead, and writes each traced
repetition's spans under `.bench_out/`. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("dl-search", "mining-search", "compile-sweep")

# Repetitions run in one invocation, at the least.
MIN_REPS = 3

# A repetition that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "search_s": "s",
    "compile_s": "s",
    "recompile_s": "s",
    "winner_cycles": "cycles",
    "fused_speedup": "x",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.kernels": "count",
    "frontend.self_s": "s",
    "analysis.lint_s": "s",
    "analysis.ranges_s": "s",
    "analysis.cache_hits": "count",
    "analysis.cache_misses": "count",
    "analysis.self_s": "s",
    "fuse.fuse_s": "s",
    "fuse.candidates": "count",
    "fuse.self_s": "s",
    "ir.lower_s": "s",
    "ir.opt_s": "s",
    "ir.regbound_s": "s",
    "ir.insts": "count",
    "ir.spilled_regs": "count",
    "ir.self_s": "s",
    "sim.decode_s": "s",
    "sim.run_s": "s",
    "sim.functional_s": "s",
    "sim.timing_s": "s",
    "sim.cycles": "cycles",
    "sim.warp_insts": "count",
    "sim.warp_insts_per_s": "1/s",
    "sim.cycles_per_s": "cycles/s",
    "sim.self_s": "s",
    "search.model_s": "s",
    "search.candidates": "count",
    "search.unique_programs": "count",
    "search.pruned": "count",
    "search.sim_cycles": "cycles",
    "search.aborted_cycles": "cycles",
    "search.useful_ratio": "ratio",
    "search.winner_model_rank": "rank",
    "search.report_compile_s": "s",
    "search.report_profile_s": "s",
    "search.self_s": "s",
    "session.hits": "count",
    "session.misses": "count",
    "session.recomputes": "count",
    "session.hit_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Rep:
    """What one repetition process reported."""

    def __init__(self, traced, report=None, error=None):
        self.traced = traced
        self.metrics = report["metrics"] if report else {}
        self.signature = report["signature"] if report else None
        self.search_threads = report["search_threads"] if report else None
        self.attempted = report["attempted"] if report else 1
        self.failures = list(report["failures"]) if report else []
        if error:
            self.failures.append(error)


def build():
    """Builds the benchmark binary and returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"error: building the benchmark failed ({done.returncode})")
    return target / "release" / "hfuse-perfbench"


def run_rep(binary, workload, seed, traced, check_winners, trace_out):
    """Runs one repetition in a fresh process."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0",
           "--check-winners", "1" if check_winners else "0"]
    if traced:
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Rep(traced, error=f"repetition timed out after {REP_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return Rep(traced, error=f"repetition exited {done.returncode} without a report")
    rep = Rep(traced, report)
    if done.returncode != 0 and not rep.failures:
        rep.failures.append(f"repetition exited {done.returncode}")
    return rep


def mismatched_signatures(reps):
    """Indices of the repetitions whose exact results differ from the first's."""
    first = reps[0].signature
    return [i for i, r in enumerate(reps) if r.signature is not None and r.signature != first]


def median_of(reps, name):
    """The median of a metric over the repetitions that report it."""
    values = [r.metrics[name] for r in reps if name in r.metrics]
    return statistics.median(values) if values else None


def aggregate(reps, traced):
    """The result object of a run from its repetitions."""
    failures = [f for r in reps for f in r.failures]
    attempted = sum(r.attempted for r in reps)
    for i in mismatched_signatures(reps):
        failures.append(f"repetition {i} simulated results differ from repetition 0")
        attempted += 1
    plain = [r for r in reps if not r.traced]
    metrics = {}
    if traced:
        with_trace = [r for r in reps if r.traced]
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                t, u = median_of(with_trace, "e2e_s"), median_of(plain, "e2e_s")
                value = None if t is None or u is None else t - u
            else:
                value = median_of(with_trace, name)
            metrics[name] = (value, unit)
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = (median_of(plain, name), unit)
    for name, (value, _) in metrics.items():
        if value is None:
            failures.append(f"no value for {name}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }, failures


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    traced = args.trace == 1
    if not (HERE.parent / "crates").is_dir():
        raise SystemExit("error: run from a checkout of the HFuse repository")
    t0 = time.monotonic()
    binary = build()
    print(f"built in {time.monotonic() - t0:.1f} s", file=sys.stderr)
    out_dir = Path(".bench_out")
    if traced:
        out_dir.mkdir(exist_ok=True)

    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        # In a traced run, every second repetition is traced.
        rep_traced = traced and len(reps) % 2 == 1
        trace_out = out_dir / f"trace-{args.workload}-{args.seed}-{len(reps)}.json"
        # The searches are deterministic and every repetition must match the
        # first one's exact results, so the first checks the winners (and
        # reports fused_speedup) for all of them.
        rep = run_rep(binary, args.workload, args.seed, rep_traced, not reps, trace_out)
        reps.append(rep)
        shown = {k: v for k, v in rep.metrics.items()
                 if k in END_TO_END or k.startswith("wall.") or k in ("e2e_s", "slowdown")}
        print(f"repetition {len(reps) - 1}{' (traced)' if rep_traced else ''}: "
              f"HFUSE_SEARCH_THREADS={rep.search_threads} "
              + " ".join(f"{k}={v:.6g}" for k, v in shown.items()), file=sys.stderr)
        if rep.failures:
            break
    print(f"{len(reps)} repetitions in {time.monotonic() - start:.1f} s", file=sys.stderr)

    result, failures = aggregate(reps, traced)
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"failed_ops: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
