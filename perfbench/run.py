#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload stream|trace|batch|sweep|all \\
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, a Release build of the library
in ../src) under .bench_build/ at the repo root, runs the workload in a fresh
process and prints every metric with its unit, the attempted and failed
operation counts, and each failed check.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones from a traced run whose spans land in
.bench_build/perfbench/runs/<workload>-spans.jsonl.  The last line of the
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
README.md in this directory describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("stream", "trace", "batch", "sweep")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the harness; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_harness"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return build_dir / "perfbench_harness"


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from " + ", ".join(WORKLOADS))
    return spec


def report(spec, raw, values, traced):
    """Prints the metrics with their units; returns the result object."""
    defs = spec["per_layer" if traced else "end_to_end"]
    differ = set(values) ^ {d["name"] for d in defs}
    if differ:
        fail(f"metric names differ from BENCHMARK.json: {sorted(differ)}")
    print(f"perfbench workload={raw['workload']} seed={raw['seed']} trace={int(traced)} "
          f"nproc={raw['nproc']} workers={raw['workers']} build_type={raw['build_type']} "
          f"git_hash={raw['git_hash']} compiler=\"{raw['compiler']}\"")
    n_items = len(raw["item_ms"])
    for d in defs:
        name, unit = d["name"], d["unit"]
        if name == "error_rate":
            continue  # printed below with its base
        note = ""
        if name.startswith("item_ms_p"):
            note = f"  (of {n_items} items)"
        elif name == "opt.cache_hit_ratio":
            base = raw["counts"].get("opt.cache.hits", 0) + raw["counts"].get("opt.cache.misses", 0)
            note = f"  (base: {base:g} hits + misses)"
        print(f"  {name:<36} {values[name]:>16.6g} {unit}{note}")
    print(f"  {'error_rate':<36} {metrics.error_rate(raw):>16.6g} fraction  "
          f"(failed {raw['failed']:g} of {raw['attempted']:g} attempted operations)")
    for f in raw["failures"]:
        print(f"    FAILED workload={raw['workload']} pass={f['pass']} item={f['item']} "
              f"check={f['check']} residual={f['residual']:.6g}")
    for e in raw["integrity_errors"]:
        print(f"    INTEGRITY workload={raw['workload']}: {e}")
    units = {d["name"]: d["unit"] for d in defs}
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in sorted(values)},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    build_dir = ROOT / ".bench_build" / "perfbench"
    exe = build(build_dir)
    runs = build_dir / "runs"
    runs.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(spec, exe, runs, workload, args)


def run_workload(spec, exe, runs, workload, args):
    """Runs one workload in a fresh harness process and prints its report."""
    raw_path = runs / f"{workload}-raw.json"
    spans_path = runs / f"{workload}-spans.jsonl"
    tmp_dir = runs / f"tmp-{workload}-{os.getpid()}"
    raw_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path), "--tmp-dir", str(tmp_dir)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        rc = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if rc != 0:
        fail(f"harness exited with {rc}")
    raw = json.loads(raw_path.read_text())

    try:
        if args.trace:
            spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
            values = metrics.per_layer(raw, spans)
        else:
            values = metrics.end_to_end(raw)
    except ValueError as e:
        fail(str(e))
    print(json.dumps(report(spec, raw, values, bool(args.trace))))


if __name__ == "__main__":
    main()
