"""Turns the harness's raw measurements into the benchmark's metrics.

Pure arithmetic, no I/O: run.py feeds it the raw JSON object the harness
wrote and the spans of a traced run; tests/test_metrics.py checks the rules
below on hand-made inputs.
"""

import math
import statistics

# Spans whose duration is one item of a workload: an instance (batch), a
# suite point (sweep), or one traced round of a stream (stream, trace).
ITEM_SPANS = ("batch.item", "sweep.item", "stream.round", "trace.round")

# Per-layer timing metrics: span names whose self time they sum.
LAYER_SPANS = {
    "sim.c_ms": ("sim.run_c",),
    "algo.nc_uniform_ms": ("algo.run_nc_uniform_detailed", "algo.run_nc_uniform"),
    "algo.c_par_ms": ("algo.run_c_par",),
    "algo.nc_par_ms": ("algo.run_nc_par",),
    "core.replay_ms": ("core.compute_metrics",),
    "algo.nc_nonuniform_ms": ("algo.run_nc_nonuniform",),
    "opt.solve_ms": ("opt.solve_fractional_opt",),
    "obs.cert_ms": ("obs.certify_events",),
}

# Whole-run stages of a traced stream round, in the order each adds a layer.
STREAM_STAGES = ("workload.drain", "engine.run.off", "engine.run.ring")

# Per-layer counts the harness reads from values the library returns.
COUNTS = (
    "workload.lines_read",
    "workload.lines_skipped",
    "engine.arena_high_water",
    "engine.segments_dropped",
    "sim.c_segments",
    "algo.nc_par_mismatches",
    "algo.nc_nonuniform_steps",
    "algo.nc_nonuniform_c_evaluations",
    "obs.cert_records",
    "obs.cert_violations",
)

MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples`.

    Reported only when at least MIN_BEYOND samples lie strictly above the
    rank it picks, so p90 needs 100 samples; raises ValueError otherwise.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it; "
            f"needs {MIN_BEYOND}")
    return xs[rank - 1]


def union_length(intervals):
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Span id -> its duration minus the part of it its children cover.

    Children may overlap each other (spans from several threads); their
    union is clipped to the parent before it is subtracted.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        t0, t1 = s["t0_ns"], s["t1_ns"]
        kids = [(max(c["t0_ns"], t0), min(c["t1_ns"], t1))
                for c in children.get(s["id"], [])]
        out[s["id"]] = (t1 - t0) - union_length([k for k in kids if k[1] > k[0]])
    return out


def successive_differences(stage_seconds, jobs):
    """ns/job each stage adds over the one before it.

    `stage_seconds` lists, per stage, the wall seconds of its repeated whole
    runs; each stage's cost is its median, and stage k's share is its median
    minus stage k-1's, over `jobs`.
    """
    out = []
    prev = 0.0
    for runs in stage_seconds:
        med = statistics.median(runs)
        out.append((med - prev) / jobs * 1e9)
        prev = med
    return out


def end_to_end(raw):
    """The untraced run's user-visible metrics: name -> value.

    Rates are the work of every pass over their summed wall time, so a
    short stall anywhere in the run weighs by its length.
    """
    passes = len(raw["pass_s"])
    wall = sum(raw["pass_s"])
    return {
        "jobs_per_s": raw["jobs_per_pass"] * passes / wall,
        "points_per_s": raw["items_per_pass"] * passes / wall,
        "item_ms_p50": percentile(raw["item_ms"], 0.5),
        "item_ms_p90": percentile(raw["item_ms"], 0.9),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(raw["setup_s"]),
    }


def per_layer(raw, spans):
    """The traced run's per-layer metrics: name -> value.

    Timings are mean self time per item; `<name>.share` is that layer's
    self time over item time (ns/job metrics: over the workload's ns/job).
    A layer the workload does not exercise reads 0.
    """
    m = {}
    selfs = self_times(spans)
    items = [s for s in spans if s["name"] in ITEM_SPANS]
    item_ns = sum(s["t1_ns"] - s["t0_ns"] for s in items)

    for metric, names in LAYER_SPANS.items():
        ns = sum(selfs[s["id"]] for s in spans if s["name"] in names)
        m[metric] = ns * 1e-6 / len(items) if items else 0.0
        m[metric + ".share"] = ns / item_ns if item_ns else 0.0

    stages = [[(s["t1_ns"] - s["t0_ns"]) * 1e-9 for s in spans if s["name"] == n]
              for n in STREAM_STAGES]
    stages = [runs for runs in stages if runs]
    per_job = [0.0, 0.0, 0.0]
    if stages:
        jobs = raw["counts"].get("workload.lines_read") or raw["jobs_per_pass"]
        per_job[:len(stages)] = successive_differences(stages, jobs)
    job_ns = sum(per_job)
    for name, v in zip(("workload.source_ns_per_job", "engine.ns_per_job",
                        "engine.record_ns_per_job"), per_job):
        m[name] = v
        m[name + ".share"] = v / job_ns if job_ns else 0.0

    gen = raw["generate_ms"]
    m["workload.generate_ms"] = statistics.median(gen) if gen else 0.0
    setup_ms = statistics.median(raw["setup_s"]) * 1e3
    m["workload.generate_ms.share"] = m["workload.generate_ms"] / setup_ms

    for name in COUNTS:
        m[name] = raw["counts"].get(name, 0)
    hits = raw["counts"].get("opt.cache.hits", 0)
    lookups = hits + raw["counts"].get("opt.cache.misses", 0)
    m["opt.cache_hit_ratio"] = hits / lookups if lookups else 0.0

    sweeps = [s for s in spans if s["name"] == "analysis.sweep"]
    sweep_items = [s["t1_ns"] - s["t0_ns"] for s in items if s["name"] == "sweep.item"]
    busy = sum(sweep_items)
    sweep_ns = sum(s["t1_ns"] - s["t0_ns"] for s in sweeps)
    m["analysis.busy_frac"] = busy / (sweep_ns * raw["workers"]) if sweep_ns else 0.0
    m["analysis.straggler_ratio"] = (
        max(sweep_items) / statistics.median(sweep_items) if sweep_items else 0.0)

    m["trace.overhead_frac"] = (
        statistics.median(raw["traced_pass_s"]) / statistics.median(raw["pass_s"]) - 1.0)
    uncovered = sum(selfs[s["id"]] for s in items)
    m["trace.coverage"] = 1.0 - uncovered / item_ns if item_ns else 0.0

    m["error_rate"] = error_rate(raw)
    return m


def error_rate(raw):
    return raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0
