#!/usr/bin/env python3
"""Run the pinned bench suite and assemble the bench ledger artifact.

Three sources merge into one speedscale.bench_ledger/1 document (schema:
src/obs/perf/bench_ledger.h, docs/observability.md):

1. `bench_suite_runner` (bench/bench_suite_runner.cpp) — the deterministic
   half: pinned seeds, wall time per repetition, and the MetricsRegistry
   work-counter snapshot per workload (byte-for-byte reproducible).
2. The google-benchmark wall-time suites (E13 `bench_perf`, E19/E23
   `bench_obs_overhead`), a pinned filter each, run with
   `--benchmark_format=json`.  Wall-only (advisory in `bench_compare.py`).
3. The 10M-job streaming run of `bench_engine_stream` (E27), which asserts
   its RSS plateau in-process (a breach is a nonzero exit, not a ledger
   diff: RSS is machine-dependent and stays out of the counter half).  Its
   job/arena/recorder tallies are deterministic at any scale, so the
   engine.stream/10M entry is counter-gated like the rest.

The final file is written by this script (json.dumps, sorted keys, compact
separators), so regenerating on the same machine/toolchain is byte-stable in
the counter half.  Refresh the committed baseline with:

    scripts/run_bench_suite.py --build-dir build --out BENCH.json

`--jobs N` shards the runner's (bench x repetition) grid across N workers;
the counter half of the ledger is byte-identical at any N (the sweep
engine's determinism contract, docs/performance.md), so CI exercises the
parallel path with --jobs $(nproc) against the same committed baseline.
Co-running entries skew each other's wall times (the analysis.sweep_suite
/8x1 vs /8x8 speedup in particular), so the committed baseline is written
at the default --jobs 1.

Use --quick in CI: fewer repetitions and short google-benchmark min-times;
counters are per-run deterministic, so quick and full ledgers agree on them.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "speedscale.bench_ledger/1"

# (binary, pinned --benchmark_filter): the google-benchmark half.
GBENCH_SUITES = [
    ("bench_perf", "^BM_AlgorithmC/1024$|^BM_AlgorithmNCUniform/1024$|^BM_NCNonUniform/8$"),
    ("bench_obs_overhead",
     "^BM_AlgorithmC_ObsDisabled/1024$|^BM_AlgorithmNCUniform_ObsDisabled/1024$"
     "|^BM_AlgorithmNCUniform_MetricsOnly/1024$"),
]

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

def run_ledger_tool(build_dir, binary, out_flag, args):
    """Runs a bench binary that writes a ledger to `out_flag PATH`; returns it."""
    path = os.path.join(build_dir, "bench", binary)
    if not os.path.exists(path):
        sys.exit(f"error: {path} not found — build the Release tree first "
                 f"(cmake --build {build_dir})")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        cmd = [path] + list(args) + [out_flag, tmp_path]
        print("+", " ".join(cmd), flush=True)
        subprocess.run(cmd, check=True)
        with open(tmp_path) as f:
            ledger = json.load(f)
    finally:
        os.unlink(tmp_path)
    if ledger.get("schema") != SCHEMA:
        sys.exit(f"error: {binary} emitted schema {ledger.get('schema')!r}, "
                 f"expected {SCHEMA!r}")
    return ledger


def run_gbench(build_dir, binary, bench_filter, quick, repetitions):
    path = os.path.join(build_dir, "bench", binary)
    if not os.path.exists(path):
        print(f"warning: {path} not found; skipping its wall-time entries", file=sys.stderr)
        return {}
    cmd = [
        path,
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=false",
    ]
    if quick:
        cmd.append("--benchmark_min_time=0.01")
    print("+", " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
    report = json.loads(proc.stdout)
    entries = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue  # skip gbench's own mean/median/stddev aggregate rows
        name = bench["run_name"] if "run_name" in bench else bench["name"]
        wall_ns = bench["real_time"] * TIME_UNIT_NS[bench.get("time_unit", "ns")]
        entry = entries.setdefault(
            f"gbench.{binary}/{name}",
            {"counters": {}, "repetitions": 0, "source": "google_benchmark", "wall_ns": []},
        )
        entry["wall_ns"].append(wall_ns)
        entry["repetitions"] += 1
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default="build", help="CMake build tree (Release)")
    ap.add_argument("--out", default="BENCH.json", help="ledger output path")
    ap.add_argument("--jobs", type=int, default=1,
                    help="runner worker threads (counters identical at any value)")
    ap.add_argument("--stream-jobs", type=int, default=10_000_000,
                    help="job count for the bench_engine_stream run (default 10M; "
                         "the entry name scales with it, so the committed baseline "
                         "must be generated at the default)")
    ap.add_argument("--quick", action="store_true",
                    help="CI mode: 2 runner repetitions, short gbench min-times")
    ap.add_argument("--skip-gbench", action="store_true",
                    help="leave out the google-benchmark wall-time suites")
    args = ap.parse_args()

    runner_args = ["--jobs", str(args.jobs)] + (["--quick"] if args.quick else [])
    ledger = run_ledger_tool(args.build_dir, "bench_suite_runner", "--out", runner_args)

    if not args.skip_gbench:
        reps = 1 if args.quick else 3
        for binary, bench_filter in GBENCH_SUITES:
            for name, entry in run_gbench(args.build_dir, binary, bench_filter,
                                          args.quick, reps).items():
                ledger["entries"][name] = entry

    stream = run_ledger_tool(args.build_dir, "bench_engine_stream", "--json",
                             ["--jobs", str(args.stream_jobs),
                              "--reps", "1" if args.quick else "2",
                              "--rss-ceiling-mb", "512"])
    ledger["entries"].update(stream["entries"])

    with open(args.out + ".tmp", "w") as f:
        json.dump(ledger, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    os.replace(args.out + ".tmp", args.out)
    n_counted = sum(1 for e in ledger["entries"].values() if e["counters"])
    print(f"wrote {args.out}: {len(ledger['entries'])} entries "
          f"({n_counted} with deterministic work counters)")


if __name__ == "__main__":
    main()
