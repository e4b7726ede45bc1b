"""Arrival location over live cluster envelopes."""

import random

import pytest

from highwayhull.frontier import ContractViolationError, EnvelopeEntry, Frontier
from highwayhull.metric import (
    INF,
    MetricParams,
    Point,
    box_coords,
    highway_time,
    in_walking_region,
    lp_distance,
)
from highwayhull.oracle import _edge_region_margin

GUARD = 1e-7


def singleton(pt, m):
    e = EnvelopeEntry()
    if m.closure_kind != "convex":
        e.right_corner = pt
        s, t = box_coords(pt, m.closure_kind)
        e.box = [s, s, t, t]
    else:
        e.chain = [pt]
    e.right_x = pt.x
    e.ymax = pt.y
    return e


def unit(pt, s):
    """pt scaled by the power of two s into the unit frame (|x| < 2)."""
    return Point(s * pt.x, s * pt.y)


def pair_margin(q, g, m):
    hw = highway_time(q, g, m)
    if hw is None:
        return -INF  # overlap keeps the pair inside regardless of perturbation
    return lp_distance(q, g, m.p) - hw


def test_out_of_order_arrivals_rejected():
    f = Frontier(MetricParams.make(2.0, 2.0))
    assert f.locate(Point(1.25, 0.25)) is None
    assert f.locate(Point(1.25, 0.5)) is None  # equal abscissa allowed
    with pytest.raises(ContractViolationError):
        f.locate(Point(0.75, 0.25))


def test_prefix_maxima_track_heights():
    m = MetricParams.make(2.0, 2.0)
    f = Frontier(m)
    for x, y in ((0.0, 1.0), (0.25, 0.25), (0.5, 0.5)):
        f.append(singleton(Point(x, y), m))
    assert [e.pmax_y for e in f.live] == [1.0, 1.0, 1.0]
    # box entries keep a prefix maximum of their frame extreme s1 = x + y too
    m = MetricParams.make(INF, 2.0)
    f = Frontier(m)
    for x, y in ((0.0, 1.0), (0.25, 0.25), (0.5, 1.0)):
        f.append(singleton(Point(x, y), m))
    assert [(e.pmax_y, e.pmax_s) for e in f.live] == [(1.0, 1.0), (1.0, 1.0), (1.0, 1.5)]


def test_locate_matches_naive_scan_over_singletons():
    rng = random.Random(5)
    for p in (1.0, 1.3, 2.0, 3.0, INF):
        for v in (1.1, 2.0, 5.0, INF):
            m = MetricParams.make(p, v)
            f = Frontier(m)
            xs = sorted(rng.uniform(-40.0, 40.0) for _ in range(30))
            pts = [Point(x, rng.uniform(0.0, 8.0)) for x in xs]
            for pt in pts:
                f.append(singleton(unit(pt, 2.0**-7), m))
            queries = sorted(
                (Point(rng.uniform(40.0, 90.0), rng.uniform(0.0, 10.0)) for _ in range(40)),
                key=lambda q: q.x,
            )
            for q in queries:
                margins = [pair_margin(q, g, m) for g in pts]
                if min(abs(x) for x in margins) < GUARD:
                    continue
                want = next((i for i, x in enumerate(margins) if x <= 0.0), None)
                assert f.locate(unit(q, 2.0**-7)) == want, (p, v, q)


def test_falling_edge_band_agrees_with_exhaustive_region_test():
    rng = random.Random(20)
    hi, lo = Point(0.0, 5.0), Point(4.0, 1.0)
    s = 2.0**-5
    for p, v in ((1.3, 2.0), (2.0, 2.0), (3.0, 5.0), (7.0, 1.5), (2.0, 100.0)):
        m = MetricParams.make(p, v)
        e = EnvelopeEntry()
        e.chain = [unit(hi, s), unit(lo, s)]
        e.right_x, e.ymax = s * lo.x, s * hi.y
        f = Frontier(m)
        f.append(e)
        queries = sorted(
            (Point(rng.uniform(4.0, 30.0), rng.uniform(0.0, 12.0)) for _ in range(150)),
            key=lambda q: q.x,
        )
        for q in queries:
            vertex_margins = [pair_margin(q, g, m) for g in (hi, lo)]
            edge_hit, edge_margin = _edge_region_margin(q, (hi, lo), m)
            if min(abs(x) for x in vertex_margins) < GUARD or edge_margin < GUARD:
                continue
            want = any(x <= 0.0 for x in vertex_margins) or edge_hit
            assert (f.locate(unit(q, s)) == 0) == want, (p, v, q)


# concave chains with strict and flat tops, inside and at either end
TOPPED_CHAINS = {
    "strict_inside": [(0, 1), (1, 3), (2, 3.5), (3, 3), (4, 1.5)],
    "flat_inside": [(0, 1), (1, 3), (2, 3), (3, 2), (4, 0.5)],
    "strict_left": [(0, 3), (1, 2.5), (2, 1)],
    "flat_left": [(0, 3), (1, 3), (2, 1)],
    "strict_right": [(0, 1), (1, 2), (2, 2.5)],
    "flat_right": [(0, 1), (1, 2), (2, 2)],
}


@pytest.mark.parametrize("name", sorted(TOPPED_CHAINS))
def test_locate_reads_the_top_off_the_chain(name):
    # the reference takes the rightmost highest vertex by a full scan and
    # tests the walking regions of the vertices and edges from there right
    pts = [Point(float(x), float(y)) for x, y in TOPPED_CHAINS[name]]
    top = max(range(len(pts)), key=lambda i: (pts[i].y, i))
    rng = random.Random(name)
    s = 2.0**-5
    decided = 0
    for p, v in ((1.3, 2.0), (2.0, 2.0), (3.0, 5.0), (7.0, 1.5)):
        m = MetricParams.make(p, v)
        e = EnvelopeEntry()
        e.chain = [unit(g, s) for g in pts]
        e.right_x, e.ymax = s * pts[-1].x, s * pts[top].y
        f = Frontier(m)
        f.append(e)
        queries = sorted(
            (Point(rng.uniform(pts[-1].x, 20.0), rng.uniform(0.0, 10.0)) for _ in range(150)),
            key=lambda q: q.x,
        )
        for q in queries:
            vertex_margins = [pair_margin(q, g, m) for g in pts[top:]]
            edges = [_edge_region_margin(q, edge, m) for edge in zip(pts[top:], pts[top + 1:])]
            if min(abs(x) for x in vertex_margins) < GUARD or any(x < GUARD for _, x in edges):
                continue
            want = any(x <= 0.0 for x in vertex_margins) or any(hit for hit, _ in edges)
            assert (f.locate(unit(q, s)) == 0) == want, (p, v, q)
            decided += want
    assert decided
