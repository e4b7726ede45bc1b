"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import importlib
import io
import json
import math
import os
from contextlib import redirect_stdout

import pytest

from highwayhull import Frontier, HullTree, MetricParams, hull_builder
from highwayhull.geometry import lower_hull, upper_hull
from highwayhull.metric import Point
from perfbench import run, trace, workloads
from perfbench.checks import companion_check, structural_errors
from perfbench.workloads import FAMILIES, Cell, Workload, cell_points

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = Workload(
    "tiny",
    "one small cell per family",
    (
        Cell("uniform_square", 64, False, 1.0, 2.0),
        Cell("sparse_strip", 96, False, 2.0, 2.0),
        Cell("convex_arc", 48, False, 2.0, 2.0),
        Cell("convex_cup", 48, False, 1.3, 1.1),
        Cell("alternating", 64, True, 2.0, 2.0),
        Cell("sparse_strip", 64, True, 2.0, math.inf),
    ),
)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


def test_generators_are_deterministic_per_seed():
    for i, cell in enumerate(TINY.cells):
        a = cell_points(7, i, cell)
        assert a == cell_points(7, i, cell)
        assert a != cell_points(8, i, cell)
        assert len(a) == cell.n
        assert all(y >= 0.0 for _, y in a) or cell.two_sided


def test_families_have_their_shape():
    rng_cell = lambda fam, two: Cell(fam, 200, two, 2.0, 2.0)
    arc = sorted(Point(*q) for q in cell_points(1, 0, rng_cell("convex_arc", False)))
    assert len(upper_hull(arc)) == len(arc)
    cup = sorted(Point(*q) for q in cell_points(1, 0, rng_cell("convex_cup", False)))
    assert len(lower_hull(cup)) == len(cup)
    alt = cell_points(1, 0, rng_cell("alternating", True))
    assert all((y > 0) == (i % 2 == 0) and 1.0 <= abs(y) <= 3.0 for i, (_, y) in enumerate(alt))
    strip = cell_points(1, 0, rng_cell("sparse_strip", True))
    assert all(0.05 <= abs(y) <= 5.0 and 0.0 <= x <= 200.0 for x, y in strip)
    assert {y > 0 for _, y in strip} == {True, False}
    with pytest.raises(ValueError):
        FAMILIES["convex_arc"](None, 4, True)


def _bindings_snapshot():
    owners = [importlib.import_module(m) for m in trace.BINDING_MODULES]
    owners += [Frontier, HullTree]
    return [(o, dict(vars(o))) for o in owners]


def test_tracer_restores_every_binding():
    before = _bindings_snapshot()
    original = hull_builder.in_walking_region
    with pytest.raises(RuntimeError):
        with trace.Tracer():
            assert hull_builder.in_walking_region is not original
            raise RuntimeError("abort inside the traced region")
    with trace.Tracer():
        pass
    for (owner, attrs), (_, now) in zip(before, _bindings_snapshot()):
        assert set(attrs) == set(now), owner
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_tracer_wraps_the_bindings_callers_use():
    wrapped = {(getattr(o, "__name__", ""), a) for o, a, _, _ in trace.bindings()}
    for binding in [
        ("highwayhull.hull_builder", "in_walking_region"),
        ("highwayhull.frontier", "in_walking_region"),
        ("highwayhull.geometry", "brentq"),
        ("highwayhull.metric", "brentq"),
        ("highwayhull.hull_builder", "minimize_scalar"),
        ("highwayhull.frontier", "right_edge_tangent"),
        ("Frontier", "locate"),
        ("HullTree", "any_point_above"),
    ]:
        assert binding in wrapped


def test_child_self_times_never_exceed_parent_total():
    tracer = trace.Tracer()
    with tracer:
        for i, cell in enumerate(TINY.cells):
            with tracer.build_span(i):
                hull_builder.build(cell_points(3, i, cell), MetricParams.make(cell.p, cell.v))
    nodes = list(tracer.nodes())
    assert {n.trace_id for n in nodes} == set(range(len(TINY.cells)))
    for n in nodes:
        kids = n.children.values()
        assert sum(c.self_time for c in kids) <= n.total + 1e-9
        assert sum(c.total for c in kids) <= n.total + 1e-9
        assert n.self_time >= -1e-9
    totals = tracer.layer_totals()
    assert totals["hull_builder.build"]["calls"] == len(TINY.cells)
    assert totals["hull_builder.cross_side_merge"]["calls"] == 2
    assert 0 < totals["metric.in_walking_region"]["hits"] < totals["metric.in_walking_region"]["calls"]


def test_checks_accept_builds_and_catch_broken_outputs():
    cell = TINY.cells[1]
    pts = cell_points(2, 1, cell)
    m = MetricParams.make(cell.p, cell.v)
    tch = hull_builder.build(pts, m)
    assert structural_errors(tch, pts) == []
    assert companion_check(pts, m) is True
    tch.clusters[0].member_indices.append(tch.clusters[-1].member_indices[0])
    assert structural_errors(tch, pts)
    tch = hull_builder.build(pts, m)
    tch.bridges = list(reversed(tch.bridges))
    assert structural_errors(tch, pts)


@pytest.mark.parametrize("traced", [False, True])
def test_tiny_smoke_run(monkeypatch, tmp_path, traced):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    buf = io.StringIO()
    with redirect_stdout(buf):
        result = run.bench("tiny", 5, 0.01, traced)
    report = json.loads(buf.getvalue())["report"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if traced else 1) * len(TINY.cells)
    assert set(result["metrics"]) == _declared("per_layer" if traced else "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values()) or traced
    assert len(report["digest"]) == 64 and report["failed_frac"] == 0.0
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.bench("tiny", 5, 0.01, False)["correct"]
    assert json.loads(buf.getvalue())["report"]["digest"] == report["digest"]
    if traced:
        assert (tmp_path / "spans-tiny-seed5.jsonl").stat().st_size > 0


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    with pytest.raises(run.BenchError):
        run.import_program()
