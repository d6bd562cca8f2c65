#!/usr/bin/env python3
"""Compare two bench ledgers (speedscale.bench_ledger/1) as a regression gate.

Noise-aware policy, per docs/observability.md:

* **Work counters hard-fail.**  The simulators are exact and seeded, so
  quadrature intervals, root iterations, bracket expansions, and preemptions
  are deterministic; any delta against the baseline is a real behavioral
  change — either a regression or an intentional change that must ship with
  a regenerated baseline (scripts/run_bench_suite.py --out BENCH.json).
* **Wall time is advisory.**  Machine noise on these loops is ~±10%
  (EXPERIMENTS.md E19), so the gate only *warns* when the min-over-
  repetitions wall time moves more than --wall-tolerance (default 25%), and
  never fails on it.
* **Any baseline entry missing from the current ledger is a hard failure** —
  counter-carrying or wall-only alike.  A bench that silently disappears is
  indistinguishable from one that silently stopped being measured; shrinking
  the baseline is an intentional change that must ship with a regenerated
  ledger.  New entries (current-only) stay advisory.

Exit status: 0 ok (possibly with warnings), 1 counter regression or missing
baseline entry, 2 usage/schema error.

`--self-test` runs the gate against synthetic ledgers with an injected
counter regression and verifies it trips; wired into ctest
(bench_compare_selftest) so the gate itself is under test.
"""
import argparse
import json
import sys

SCHEMA = "speedscale.bench_ledger/1"


def load_ledger(path):
    try:
        with open(path) as f:
            ledger = json.load(f)
    except OSError as e:
        sys.exit(f"error: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        sys.exit(f"error: {path} is not valid JSON: {e}")
    if ledger.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: schema {ledger.get('schema')!r}, expected {SCHEMA!r}")
    return ledger


def compare(baseline, current, wall_tolerance=0.25, out=sys.stdout):
    """Returns (failures, warnings) as lists of message strings."""
    failures, warnings = [], []
    base_entries = baseline.get("entries", {})
    cur_entries = current.get("entries", {})

    for name, base in sorted(base_entries.items()):
        cur = cur_entries.get(name)
        if cur is None:
            # Hard failure even for wall-only entries: a vanished bench is a
            # coverage regression regardless of what it recorded.
            failures.append(f"{name}: present in baseline, missing from current ledger")
            continue

        base_counters = base.get("counters", {})
        cur_counters = cur.get("counters", {})
        diverging = [cname for cname in sorted(set(base_counters) | set(cur_counters))
                     if base_counters.get(cname) != cur_counters.get(cname)]
        if diverging:
            # Full sorted diff of every diverging counter, so a regression is
            # diagnosable from the CI log alone — no re-run needed.
            width = max(len(c) for c in diverging)
            lines = [f"{name}: {len(diverging)} diverging counter(s):",
                     f"  {'counter':<{width}} {'baseline':>16} {'current':>16} {'delta':>12}"]
            for cname in diverging:
                b, c = base_counters.get(cname), cur_counters.get(cname)
                bs = "(missing)" if b is None else str(b)
                cs = "(missing)" if c is None else str(c)
                delta = f"{c - b:+d}" if b is not None and c is not None else "n/a"
                lines.append(f"  {cname:<{width}} {bs:>16} {cs:>16} {delta:>12}")
            failures.append("\n".join(lines))

        base_wall = min(base.get("wall_ns") or [0])
        cur_wall = min(cur.get("wall_ns") or [0])
        if base_wall > 0 and cur_wall > 0:
            ratio = cur_wall / base_wall
            if ratio > 1.0 + wall_tolerance:
                warnings.append(f"{name}: wall time {ratio:.2f}x baseline "
                                f"({base_wall / 1e6:.3f} -> {cur_wall / 1e6:.3f} ms) — advisory, "
                                f"machine noise is not gated")

    for name in sorted(set(cur_entries) - set(base_entries)):
        warnings.append(f"{name}: new entry (not in baseline)")

    for msg in failures:
        print(f"FAIL  {msg}", file=out)
    for msg in warnings:
        print(f"warn  {msg}", file=out)
    n = len(base_entries)
    print(f"compared {n} baseline entries: {len(failures)} failure(s), "
          f"{len(warnings)} warning(s)", file=out)
    return failures, warnings


def make_ledger(entries):
    return {"schema": SCHEMA, "suite": "self-test", "config": {}, "entries": entries}


def self_test():
    base = make_ledger({
        "sim.x/64": {"counters": {"sim.c_machine.segments": 100}, "repetitions": 2,
                     "source": "runner", "wall_ns": [1e6, 1.1e6]},
        "gbench.perf/BM_X": {"counters": {}, "repetitions": 1,
                             "source": "google_benchmark", "wall_ns": [2e6]},
    })

    import copy
    import io

    # Identical ledgers pass.
    f, w = compare(base, copy.deepcopy(base), out=io.StringIO())
    assert not f and not w, (f, w)

    # An injected counter regression (one extra segment, plus a counter that
    # only exists on one side each way) must hard-fail, and the failure must
    # carry the full sorted diff: every diverging counter with baseline /
    # current / delta and (missing) markers.
    hot = copy.deepcopy(base)
    hot["entries"]["sim.x/64"]["counters"]["sim.c_machine.segments"] = 101
    hot["entries"]["sim.x/64"]["counters"]["sim.roots.iters"] = 7
    base["entries"]["sim.x/64"]["counters"]["sim.retries"] = 3
    diff_out = io.StringIO()
    f, _ = compare(base, hot, out=diff_out)
    assert f, "injected counter regression was not detected"
    diff = diff_out.getvalue()
    assert "3 diverging counter(s)" in diff, diff
    for expected in ("sim.c_machine.segments", "sim.roots.iters", "sim.retries",
                     "(missing)", "+1"):
        assert expected in diff, f"diff section missing {expected!r}:\n{diff}"
    # Sorted order within the diff table.
    assert diff.index("sim.c_machine.segments") < diff.index("sim.retries") \
        < diff.index("sim.roots.iters"), diff
    del base["entries"]["sim.x/64"]["counters"]["sim.retries"]

    # A vanished pinned (counter-carrying) bench must hard-fail.
    gone = copy.deepcopy(base)
    del gone["entries"]["sim.x/64"]
    f, _ = compare(base, gone, out=io.StringIO())
    assert f, "missing pinned bench was not detected"

    # A vanished *wall-only* bench (empty counters — the google-benchmark
    # rows) must hard-fail too: disappearing coverage is never advisory.
    gone_wall = copy.deepcopy(base)
    del gone_wall["entries"]["gbench.perf/BM_X"]
    f, _ = compare(base, gone_wall, out=io.StringIO())
    assert f, "missing wall-only bench was not detected"

    # A 2x wall-time delta alone only warns.
    slow = copy.deepcopy(base)
    slow["entries"]["sim.x/64"]["wall_ns"] = [2e6, 2.2e6]
    f, w = compare(base, slow, out=io.StringIO())
    assert not f and w, (f, w)

    # End-to-end through the CLI path: the injected regression exits nonzero.
    import subprocess
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fb, \
         tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fc:
        json.dump(base, fb)
        json.dump(hot, fc)
    rc = subprocess.run([sys.executable, __file__, fb.name, fc.name],
                        capture_output=True).returncode
    assert rc == 1, f"CLI exit code for a counter regression was {rc}, expected 1"
    rc = subprocess.run([sys.executable, __file__, fb.name, fb.name],
                        capture_output=True).returncode
    assert rc == 0, f"CLI exit code for identical ledgers was {rc}, expected 0"

    print("bench_compare self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", nargs="?", help="committed ledger (BENCH.json)")
    ap.add_argument("current", nargs="?", help="freshly generated ledger")
    ap.add_argument("--wall-tolerance", type=float, default=0.25,
                    help="advisory wall-time warning threshold (fraction, default 0.25)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate trips on an injected counter regression")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return

    if not args.baseline or not args.current:
        ap.error("baseline and current ledger paths are required (or --self-test)")
    failures, _ = compare(load_ledger(args.baseline), load_ledger(args.current),
                          wall_tolerance=args.wall_tolerance)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
