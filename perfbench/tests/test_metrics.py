"""Self-tests of the benchmark's own arithmetic and metric names.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(id_, parent, name, t0, t1, item=0):
    return {"id": id_, "parent": parent, "name": name, "item": item, "t0_ns": t0, "t1_ns": t1}


def raw_run(workload):
    """A raw harness result shaped like the workload's real one."""
    counts = {
        "stream": {"engine.arena_high_water": 28, "engine.segments_dropped": 9_934_464},
        "trace": {"engine.arena_high_water": 40, "engine.segments_dropped": 0,
                  "workload.lines_read": 990, "workload.lines_skipped": 10},
        "batch": {"sim.c_segments": 999_104, "algo.nc_par_mismatches": 128},
        "sweep": {"sim.c_segments": 4721, "opt.cache.hits": 720, "opt.cache.misses": 840,
                  "obs.cert_records": 4897, "obs.cert_violations": 8,
                  "algo.nc_nonuniform_steps": 375_018,
                  "algo.nc_nonuniform_c_evaluations": 750_036},
    }[workload]
    return {
        "workload": workload, "workers": 4, "setup_s": [0.2, 0.3, 0.25],
        "generate_ms": [40.0, 41.0] if workload in ("batch", "sweep") else [],
        "jobs_per_pass": 1000, "items_per_pass": 100,
        "pass_s": [1.0, 1.2], "traced_pass_s": [1.1],
        "item_ms": [float(i) for i in range(1, 201)],
        "attempted": 512, "failed": 128, "peak_rss_kb": 10240, "counts": counts,
    }


def traced_spans(workload):
    if workload in ("stream", "trace"):
        spans = [span(1, 0, f"{workload}.round", 0, 100),
                 span(2, 1, "workload.drain", 0, 10),
                 span(3, 1, "engine.run.off", 10, 50)]
        if workload == "stream":
            spans.append(span(4, 1, "engine.run.ring", 50, 100))
        return spans
    if workload == "batch":
        return [span(1, 0, "batch.item", 0, 100), span(2, 1, "sim.run_c", 0, 30),
                span(3, 1, "algo.run_nc_par", 30, 95)]
    return [span(1, 0, "analysis.sweep", 0, 100), span(2, 1, "sweep.item", 0, 90),
            span(3, 2, "opt.solve_fractional_opt", 0, 80), span(4, 1, "sweep.item", 0, 60),
            span(5, 4, "algo.run_nc_nonuniform", 5, 60)]


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.percentile(range(1, 101), 0.9), 90)
        with self.assertRaises(ValueError):
            metrics.percentile(range(1, 100), 0.9)

    def test_reported_percentile_has_ten_strictly_beyond(self):
        for n in (100, 101, 128, 257, 1000):
            xs = list(range(n))
            p = metrics.percentile(xs, 0.9)
            self.assertGreaterEqual(sum(1 for x in xs if x > p), metrics.MIN_BEYOND)

    def test_median(self):
        self.assertEqual(metrics.percentile([5, 1, 3] * 10, 0.5), 3)


class SelfTime(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [span(1, 0, "item", 0, 100), span(2, 1, "a", 10, 30), span(3, 1, "b", 40, 50)]
        self.assertEqual(metrics.self_times(spans), {1: 70, 2: 20, 3: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, "item", 0, 100), span(2, 1, "a", 10, 60), span(3, 1, "b", 40, 80),
                 span(4, 1, "c", 50, 55)]
        self.assertEqual(metrics.self_times(spans)[1], 100 - 70)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, "item", 10, 50), span(2, 1, "a", 0, 20), span(3, 1, "b", 40, 90)]
        self.assertEqual(metrics.self_times(spans)[1], 40 - 10 - 10)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, "item", 0, 100), span(2, 1, "a", 0, 50), span(3, 2, "b", 0, 40)]
        self.assertEqual(metrics.self_times(spans), {1: 50, 2: 10, 3: 40})


class SuccessiveDifferences(unittest.TestCase):
    def test_each_stage_adds_over_the_previous(self):
        stages = [[0.1, 0.3, 0.2], [1.0, 1.2, 1.1], [1.5, 1.5]]
        got = metrics.successive_differences(stages, jobs=1_000_000)
        for g, want in zip(got, [200.0, 900.0, 400.0]):
            self.assertAlmostEqual(g, want)

    def test_stream_layers_and_shares(self):
        m = metrics.per_layer(raw_run("stream"), traced_spans("stream"))
        # Stages of 10, 40 and 50 ns over 1000 jobs add 10, 30 and 10 ns.
        self.assertAlmostEqual(m["workload.source_ns_per_job"], 0.01)
        self.assertAlmostEqual(m["engine.ns_per_job"], 0.03)
        self.assertAlmostEqual(m["engine.record_ns_per_job"], 0.01)
        self.assertAlmostEqual(m["engine.ns_per_job.share"], 0.6)
        self.assertAlmostEqual(m["trace.coverage"], 1.0)


class LayerMetrics(unittest.TestCase):
    def test_batch_coverage_and_shares(self):
        m = metrics.per_layer(raw_run("batch"), traced_spans("batch"))
        self.assertAlmostEqual(m["trace.coverage"], 0.95)
        self.assertAlmostEqual(m["sim.c_ms.share"], 0.30)
        self.assertAlmostEqual(m["error_rate"], 0.25)

    def test_sweep_busy_and_straggler(self):
        m = metrics.per_layer(raw_run("sweep"), traced_spans("sweep"))
        self.assertAlmostEqual(m["analysis.busy_frac"], 150 / (100 * 4))
        self.assertAlmostEqual(m["analysis.straggler_ratio"], 90 / 75)
        self.assertAlmostEqual(m["opt.cache_hit_ratio"], 720 / 1560)


class MetricNames(unittest.TestCase):
    def test_spec_names_are_well_formed_and_unique(self):
        names = [d["name"] for k in ("end_to_end", "per_layer") for d in SPEC[k]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)

    def test_every_workload_prints_exactly_the_spec_names(self):
        e2e = {d["name"] for d in SPEC["end_to_end"]}
        layers = {d["name"] for d in SPEC["per_layer"]}
        for w in (w["name"] for w in SPEC["workloads"]):
            raw = raw_run(w)
            self.assertEqual(set(metrics.end_to_end(raw)), e2e, w)
            self.assertEqual(set(metrics.per_layer(raw, traced_spans(w))), layers, w)


if __name__ == "__main__":
    unittest.main()
