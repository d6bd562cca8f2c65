#!/usr/bin/env python3
"""Run the pinned bench suite and assemble the bench ledger artifact.

Two sources merge into one speedscale.bench_ledger/1 document (schema:
src/obs/perf/bench_ledger.h, docs/observability.md):

1. `bench_suite_runner` (bench/bench_suite_runner.cpp) — the deterministic
   half: pinned seeds, wall time per repetition, and the MetricsRegistry
   work-counter snapshot per workload (byte-for-byte reproducible).
2. The google-benchmark wall-time suites (E13 `bench_perf`, E19
   `bench_obs_overhead`, E20 `bench_robust_overhead`), a pinned filter each,
   run with `--benchmark_format=json`.  Mostly wall-only (advisory in
   `bench_compare.py`), except custom gbench counters named `work_*`
   (e.g. BM_GuardedEngine_FaultRetry's attempted/committed split), which are
   deterministic per iteration and lifted into the hard-gated counter half.

The final file is written by this script (json.dumps, sorted keys, compact
separators), so regenerating on the same machine/toolchain is byte-stable in
the counter half.  Refresh the committed baselines with:

    scripts/run_bench_suite.py --build-dir build --out BENCH_PR3.json \
        --pr5-out BENCH_PR5.json --pr6-out BENCH_PR6.json \
        --pr9-out BENCH_PR9.json --pr10-out BENCH_PR10.json

`--jobs N` shards the runner's (bench x repetition) grid across N workers;
the counter half of the ledger is byte-identical at any N (the sweep
engine's determinism contract, docs/performance.md), so CI exercises the
parallel path with --jobs $(nproc) against the same committed baseline.

The heavyweight sweep-suite pair (analysis.sweep_suite/8x1 vs /8x8 — same
counters, serial vs parallel wall) lives in its own ledger, written when
--pr5-out is given; the main ledger excludes it.  The PR5 run always uses
one *outer* worker so the 8x1/8x8 wall comparison is not skewed by the two
entries co-running.

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
    ("bench_obs_overhead", "^BM_AlgorithmC_ObsDisabled/1024$|^BM_AlgorithmNCUniform_ObsDisabled/1024$"),
    ("bench_robust_overhead",
     "^BM_GuardedEngine_CleanPath/8$|^BM_NumericEngine_NoPlan/8$|^BM_GuardedEngine_FaultRetry/8$"),
]

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# gbench JSON keys that are report metadata, not user counters.
GBENCH_META_KEYS = frozenset({
    "name", "run_name", "run_type", "repetitions", "repetition_index", "threads",
    "iterations", "real_time", "cpu_time", "time_unit", "family_index",
    "per_family_instance_index", "items_per_second", "bytes_per_second",
    "aggregate_name", "aggregate_unit", "label", "error_occurred", "error_message",
})


def run_suite_runner(build_dir, quick, jobs=1, extra_args=()):
    runner = os.path.join(build_dir, "bench", "bench_suite_runner")
    if not os.path.exists(runner):
        sys.exit(f"error: {runner} not found — build the Release tree first "
                 f"(cmake --build {build_dir})")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    try:
        cmd = [runner, "--out", tmp_path, "--jobs", str(jobs)] + list(extra_args)
        if quick:
            cmd.append("--quick")
        print("+", " ".join(cmd), flush=True)
        subprocess.run(cmd, check=True)
        with open(tmp_path) as f:
            ledger = json.load(f)
    finally:
        os.unlink(tmp_path)
    if ledger.get("schema") != SCHEMA:
        sys.exit(f"error: runner emitted schema {ledger.get('schema')!r}, expected {SCHEMA!r}")
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
        # Custom counters named work_* are per-iteration deterministic work
        # tallies (e.g. the guarded engine's attempted/committed units);
        # lifting them into `counters` puts them under bench_compare.py's
        # hard gate.  Reps must agree, like the runner's determinism check.
        work = {k: int(round(v)) for k, v in bench.items()
                if k.startswith("work_") and k not in GBENCH_META_KEYS}
        if work:
            if entry["counters"] and entry["counters"] != work:
                sys.exit(f"error: {name}: work_* counters differ between repetitions — "
                         f"the workload is not deterministic")
            entry["counters"] = work
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default="build", help="CMake build tree (Release)")
    ap.add_argument("--out", default="BENCH_PR3.json", help="ledger output path")
    ap.add_argument("--jobs", type=int, default=1,
                    help="runner worker threads (counters identical at any value)")
    ap.add_argument("--pr5-out", default=None,
                    help="also write the sweep-suite ledger (analysis.sweep_suite/8x1 "
                         "vs /8x8: identical counters, serial vs parallel wall) here")
    ap.add_argument("--pr6-out", default=None,
                    help="also write the live-telemetry ledger (live.* pinned counters "
                         "under a running sampler + E23 overhead wall rows) here")
    ap.add_argument("--pr9-out", default=None,
                    help="also write the perf-history ledger (obs.history_* trajectory "
                         "store round-trip tallies) here")
    ap.add_argument("--pr10-out", default=None,
                    help="also write the streaming-engine ledger (engine.stream pinned "
                         "suite entries + the 10M-job bench_engine_stream run with its "
                         "in-process RSS plateau assertion) here")
    ap.add_argument("--stream-jobs", type=int, default=10_000_000,
                    help="job count for the pr10 streaming harness run (default 10M; "
                         "the entry name scales with it, so the committed baseline "
                         "must be generated at the default)")
    ap.add_argument("--quick", action="store_true",
                    help="CI mode: 2 runner repetitions, short gbench min-times")
    ap.add_argument("--skip-gbench", action="store_true",
                    help="pinned runner only (counters + its wall times)")
    ap.add_argument("--suite", default=None, help="override the suite label")
    args = ap.parse_args()

    def write_ledger(path, ledger):
        with open(path + ".tmp", "w") as f:
            json.dump(ledger, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
        os.replace(path + ".tmp", path)
        n_counted = sum(1 for e in ledger["entries"].values() if e["counters"])
        print(f"wrote {path}: {len(ledger['entries'])} entries "
              f"({n_counted} with deterministic work counters)")

    # Each PR's bench family lives in its own ledger (like live.* and the
    # sweep-suite pair before it), so the older committed baselines keep
    # their entry sets.  PINNED_EXCLUDES keeps those families out of the
    # common pinned suite.
    PINNED_EXCLUDES = ["--exclude", "analysis.sweep_suite",
                       "--exclude", "live.",
                       "--exclude", "obs.history",
                       "--exclude", "engine.stream"]
    ledger = run_suite_runner(args.build_dir, args.quick, jobs=args.jobs,
                              extra_args=list(PINNED_EXCLUDES))
    if args.suite:
        ledger["suite"] = args.suite

    if not args.skip_gbench:
        reps = 1 if args.quick else 3
        for binary, bench_filter in GBENCH_SUITES:
            for name, entry in run_gbench(args.build_dir, binary, bench_filter,
                                          args.quick, reps).items():
                ledger["entries"][name] = entry

    write_ledger(args.out, ledger)

    if args.pr5_out:
        # Outer jobs pinned to 1: the /8x1 vs /8x8 wall comparison must not
        # have the two entries competing for the same cores.  Parallelism
        # under test is the *inner* sweep (the /8x8 workload's own workers).
        pr5 = run_suite_runner(args.build_dir, args.quick, jobs=1,
                               extra_args=["--filter", "analysis.sweep_suite",
                                           "--suite", "pr5-sweep"])
        write_ledger(args.pr5_out, pr5)

    if args.pr6_out:
        # Live telemetry (ISSUE 6 / E23): the live.* pinned counters prove
        # the sampler is unobservable in the deterministic half; the gbench
        # rows are the sampled-vs-unsampled overhead evidence (wall-only,
        # advisory in the gate).
        pr6 = run_suite_runner(args.build_dir, args.quick, jobs=1,
                               extra_args=["--filter", "live.",
                                           "--suite", "pr6-telemetry"])
        if not args.skip_gbench:
            pr6_filter = ("^BM_AlgorithmNCUniform_MetricsOnly/1024$"
                          "|^BM_AlgorithmNCUniform_SampledHub/1024$"
                          "|^BM_TelemetrySampleTick$|^BM_PrometheusExposition$")
            for name, entry in run_gbench(args.build_dir, "bench_obs_overhead",
                                          pr6_filter, args.quick,
                                          1 if args.quick else 3).items():
                pr6["entries"][name] = entry
        write_ledger(args.pr6_out, pr6)

    if args.pr9_out:
        # Perf-history observatory (ISSUE 9): the obs.history_* pinned
        # benches pin the speedscale.history/1 wire format (byte tallies,
        # strict/lenient load accounting, sentinel verdict counts) under the
        # hard counter gate.
        pr9 = run_suite_runner(args.build_dir, args.quick, jobs=1,
                               extra_args=["--filter", "obs.history",
                                           "--suite", "pr9-history"])
        write_ledger(args.pr9_out, pr9)

    if args.pr10_out:
        # Streaming engine (ISSUE 10 / E27).  Two halves:
        #
        # * the engine.stream pinned suite entries (100k online-only, 20k
        #   ring on two machines) through the regular runner — the engine's
        #   batched engine.stream.* tallies under the hard counter gate;
        # * the 10M-job run through bench/bench_engine_stream, which asserts
        #   the RSS plateau *in-process* (a breach is a nonzero exit, i.e. a
        #   failed suite run, not a ledger diff: RSS is machine-dependent and
        #   must stay out of the byte-stable counter half).  Its job/arena/
        #   recorder tallies are deterministic at any scale, so the merged
        #   engine.stream/10M entry still counter-gates against the baseline.
        pr10 = run_suite_runner(args.build_dir, args.quick, jobs=1,
                                extra_args=["--filter", "engine.stream",
                                            "--suite", "pr10-stream"])
        harness = os.path.join(args.build_dir, "bench", "bench_engine_stream")
        if not os.path.exists(harness):
            sys.exit(f"error: {harness} not found — build the Release tree first")
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
            tmp_path = tmp.name
        try:
            cmd = [harness, "--jobs", str(args.stream_jobs),
                   "--reps", "1" if args.quick else "2",
                   "--rss-ceiling-mb", "512", "--json", tmp_path]
            print("+", " ".join(cmd), flush=True)
            subprocess.run(cmd, check=True)
            with open(tmp_path) as f:
                stream = json.load(f)
        finally:
            os.unlink(tmp_path)
        if stream.get("schema") != SCHEMA:
            sys.exit(f"error: {harness} emitted schema {stream.get('schema')!r}, "
                     f"expected {SCHEMA!r}")
        for name, entry in stream["entries"].items():
            pr10["entries"][name] = entry
        write_ledger(args.pr10_out, pr10)


if __name__ == "__main__":
    main()
