"""Benchmark of `highwayhull.build` over three input workloads.

    python3 perfbench/run.py --workload onesided_box --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Single process, single thread, closed loop with one caller: each build
starts when the previous one has returned.  A pass builds every cell of the
workload once, in cell order, on inputs generated once from the seed;
passes repeat while the next one fits in --seconds (at least one runs), and
every timing is a median over passes.  Every output is checked (see
checks.py) and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it is a
report with sample counts, per-cell times, failed_frac, near-tie skips and
the output digest (SHA-256 over the canonical JSON of each pass-1 build,
in cell order), which is identical across runs of one seed.

--trace 0 reports the end-to-end metrics:
  build_s           ref_s        median pass time (sum of the cells' builds)
  cell_s_max        ref_s        slowest cell's median build time
  us_per_point_p50  ref_us/point median over cells of build time / n
  setup_s           s            median of SETUP_REPS fresh interpreters
                                 timing `import highwayhull` plus
                                 MetricParams.make for the workload's regimes
  peak_rss_mb       MiB          this process's max RSS

Build timings are in reference seconds: wall seconds times host_speed, the
nominal REFERENCE_S over the run's median time of reference_work(), a fixed
pure-Python loop timed right before every build.  On a shared 2-core host
the speed of identical work drifted by up to 1.6x over minutes, which moved
raw medians by 20-25 % (first-to-third quartile over six seeds) while the
normalised ones moved 5-10 %.  Raw per-cell samples and host_speed are in
the report line, so wall time is always recoverable.
--trace 1 alternates untraced and traced passes (trace.py) and reports,
per pass, `<layer>.calls|total_s|self_s` for every traced layer, the two
hit ratios, and trace_overhead = traced / untraced median pass time.  Span
nodes are written to perfbench/out/.

Layer -> end-to-end predictions, with the workload where each shows:
  hull_builder.build self (dedup/sort, sweep, assembly) -> build_s, onesided_box
  hull_builder.cross_side_merge -> build_s, cell_s_max on twosided;
      0 calls on both one-sided workloads, so no change predicted there
  hull_builder.footprints_and_bridges -> build_s on onesided_convex, ~0 elsewhere
  frontier.Frontier.locate, subpath_hull.build -> build_s (and peak_rss_mb
      for the tree) on onesided_box
  subpath_hull.HullTree.any_point_above (+ hit_ratio) -> onesided_box
  geometry.left/right_edge_tangent, exposed_boundary_segments -> build_s on
      onesided_convex; 0 tangent calls on onesided_box
  geometry.closure_hull -> twosided and onesided_box
  metric.in_walking_region (+ true_ratio), highway_time, lp_distance ->
      build_s on all three; per-call validation shows here
  metric.disc_curve_y, solver.brentq -> onesided_convex;
      solver.minimize_scalar -> twosided
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 5
# reference_work()'s median on the 2-core host this benchmark was tuned on
REFERENCE_S = 0.015
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "build_s": "ref_s",
    "cell_s_max": "ref_s",
    "us_per_point_p50": "ref_us/point",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, %r)
import highwayhull
for p, v in %r:
    highwayhull.MetricParams.make(float(p), float(v))
print(repr(time.perf_counter() - t0))
"""


def reference_work() -> float:
    """Fixed pure-Python work that shares no code with the program: a
    monotone-chain hull and L1.7 distances over 12000 deterministic points.
    Timed right before every build, it tracks the host's current speed."""
    n = 12000
    pts = sorted(((i * 7919) % 12007 / 12007.0, (i * 104729) % 11987 / 11987.0) for i in range(n))
    hull = []
    for p in pts:
        while len(hull) >= 2 and (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1]) - (
            hull[-1][1] - hull[-2][1]
        ) * (p[0] - hull[-2][0]) <= 0.0:
            hull.pop()
        hull.append(p)
    total = 0.0
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        total += (abs(ax - bx) ** 1.7 + abs(ay - by) ** 1.7) ** (1.0 / 1.7)
    return total + len(hull)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import highwayhull from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "highwayhull", "__init__.py")):
        raise BenchError("no highwayhull sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import highwayhull

    if os.path.dirname(os.path.dirname(os.path.abspath(highwayhull.__file__))) != SRC:
        raise BenchError("highwayhull imported from %s, not %s" % (highwayhull.__file__, SRC))


def measure_setup(regimes) -> list:
    code = _SETUP_CODE % (SRC, [(repr(p), repr(v)) for p, v in regimes])
    out = []
    for _ in range(SETUP_REPS):
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if res.returncode != 0:
            raise BenchError("set-up interpreter failed:\n" + res.stderr)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


class Run:
    """One workload, one seed: inputs, passes, checks and counts."""

    def __init__(self, workload, seed: int):
        from highwayhull.metric import MetricParams
        from perfbench.workloads import cell_points

        self.workload = workload
        self.seed = seed
        self.inputs = [
            (cell, cell_points(seed, i, cell), MetricParams.make(cell.p, cell.v))
            for i, cell in enumerate(workload.cells)
        ]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cell_digests = None
        self.reference_s = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def one_pass(self, tracer=None, trace_base: int = 0) -> list:
        """Build every cell once; returns per-cell seconds."""
        from highwayhull import cli, hull_builder
        from perfbench.checks import structural_errors

        times = []
        digests = []
        for i, (cell, pts, m) in enumerate(self.inputs):
            self.attempted += 1
            gc.collect()
            t0 = time.perf_counter()
            reference_work()
            self.reference_s.append(time.perf_counter() - t0)
            try:
                with tracer.build_span(trace_base + i) if tracer else nullcontext():
                    t0 = time.perf_counter()
                    tch = hull_builder.build(pts, m)
                    times.append(time.perf_counter() - t0)
            except Exception:
                self.fail("%s: %s" % (cell.name, traceback.format_exc(limit=3)))
                times.append(math.nan)
                digests.append(None)
                continue
            errors = structural_errors(tch, pts)
            digests.append(hashlib.sha256(cli.tch_to_json(tch).encode()).hexdigest())
            if self.cell_digests is not None and digests[-1] != self.cell_digests[i]:
                errors.append("output differs from pass 1")
            if errors:
                self.fail("%s: %s" % (cell.name, "; ".join(errors)))
        if self.cell_digests is None:
            self.cell_digests = digests
        return times

    def companions(self) -> int:
        """Oracle checks on small instances; returns the near-tie skip count."""
        from highwayhull.metric import MetricParams
        from perfbench.checks import companion_check
        from perfbench.workloads import COMPANION_N, cell_points

        skipped = 0
        for i, cell in enumerate(self.workload.cells):
            pts = cell_points(self.seed, i, cell, COMPANION_N)
            try:
                ok = companion_check(pts, MetricParams.make(cell.p, cell.v))
            except Exception:
                self.attempted += 1
                self.fail("%s companion: %s" % (cell.name, traceback.format_exc(limit=3)))
                continue
            if ok is None:
                skipped += 1
                continue
            self.attempted += 1
            if not ok:
                self.fail("%s companion: partition differs from the oracle" % cell.name)
        return skipped

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.cell_digests:
            h.update((d or "failed").encode())
        return h.hexdigest()


def run_passes(run: Run, seconds: float, tracer=None):
    """Untraced passes, alternating with traced ones when `tracer` is given,
    while the next pass fits in `seconds`."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                traced.append(run.one_pass(tracer, trace_base=len(traced) * len(run.inputs)))
        else:
            plain.append(run.one_pass())
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced)
        if tracer is not None and not traced:
            continue
        if elapsed + elapsed / done > seconds:
            return plain, traced


def _cell_medians(passes: list) -> list:
    return [statistics.median(col) for col in zip(*passes)]


def host_speed(run: Run) -> float:
    """REFERENCE_S over the run's median reference_work() time: below 1
    while the host runs slower than nominal."""
    return REFERENCE_S / statistics.median(run.reference_s)


def end_to_end(run: Run, passes: list, setup: list) -> dict:
    speed = host_speed(run)
    cells = [t * speed for t in _cell_medians(passes)]
    per_point = [t / cell.n * 1e6 for t, (cell, _, _) in zip(cells, run.inputs)]
    values = {
        "build_s": statistics.median(sum(p) for p in passes) * speed,
        "cell_s_max": max(cells),
        "us_per_point_p50": statistics.median(per_point),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(tracer, plain: list, traced: list) -> dict:
    from perfbench.trace import RATIOS

    k = len(traced)
    out = {}
    for layer, acc in tracer.layer_totals().items():
        out[layer + ".calls"] = {"value": acc["calls"] / k, "unit": "count"}
        out[layer + ".total_s"] = {"value": acc["total_s"] / k, "unit": "s"}
        out[layer + ".self_s"] = {"value": acc["self_s"] / k, "unit": "s"}
        if layer in RATIOS:
            ratio = acc["hits"] / acc["calls"] if acc["calls"] else 0.0
            out[layer + "." + RATIOS[layer]] = {"value": ratio, "unit": "ratio"}
    overhead = statistics.median(sum(p) for p in traced) / statistics.median(sum(p) for p in plain)
    out["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    return out


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setup = measure_setup(sorted({(c.p, c.v) for c in workload.cells}))
    run = Run(workload, seed)
    tracer = Tracer() if trace else None
    plain, traced = run_passes(run, seconds, tracer)
    skipped = run.companions()
    report = {
        "workload": workload_name,
        "seed": seed,
        "passes": len(plain),
        "pass_s": [sum(p) for p in plain],
        "traced_passes": len(traced),
        "setup_samples": len(setup),
        "cells": [
            {"cell": cell.name, "samples_s": list(col)}
            for (cell, _, _), col in zip(run.inputs, zip(*plain))
        ],
        "host_speed": host_speed(run),
        "reference_samples": len(run.reference_s),
        "digest": run.digest(),
        "failed_frac": run.failed / run.attempted,
        "near_tie_skips": skipped,
        "failures": run.failures,
    }
    if trace:
        metrics = per_layer(tracer, plain, traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl" % (workload_name, seed))
        report["spans"] = tracer.write(path)
        report["span_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = end_to_end(run, plain, setup)
    print(json.dumps({"report": report}))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def bench_all(args) -> int:
    """Each workload in its own fresh process; prints every metric."""
    from perfbench.workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or len(lines) < 2:
            print("%s: failed with exit code %d" % (name, res.returncode))
            ok = False
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print("%s  digest %s  correct %s" % (name, report["digest"][:16], result["correct"]))
        print("  %-48s %14.6g  %s" % ("failed_frac", report["failed_frac"], "ratio"))
        for metric, mv in result["metrics"].items():
            print("  %-48s %14.6g  %s" % (metric, mv["value"], mv["unit"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        import_program()
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return bench_all(args)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
