"""Cluster footprints: the sorted entry-point sweep and its pair-block tree
against the plain pair loop they replace, plus call-count guards on the
sweep's early exit and on clusters where nothing rides."""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

import pytest

import helpers
from highwayhull import hull_builder
from highwayhull.metric import (
    INF,
    MetricParams,
    Point,
    entry_points,
    highway_time,
    in_walking_region,
    lp_distance,
)


# -- reference: every ordered pair of boundary generators ---------------------


def reference_footprint(boundary: List[Point], m: MetricParams) -> Optional[Tuple[float, float]]:
    lo = INF
    hi = -INF
    n = len(boundary)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = boundary[i], boundary[j]
            if a.x > b.x or (a.x == b.x and abs(a.y) > abs(b.y)):
                continue
            hw = highway_time(a, b, m)
            if hw is None or hw >= lp_distance(a, b, m.p):
                continue
            lo = min(lo, entry_points(a, m)[1].x)
            hi = max(hi, entry_points(b, m)[0].x)
    if lo > hi:
        return None
    return (lo, hi)


def footprint(gens: List[Point], m: MetricParams) -> Optional[Tuple[float, float]]:
    return hull_builder._cluster_footprint(gens, *hull_builder._entries(gens, m), m)


def boundary_of(cl: hull_builder.Cluster) -> List[Point]:
    out: List[Point] = []
    for h in (cl.closure_above, cl.closure_below):
        if h is not None:
            out.extend(hull_builder._generators(h.upper.vertices, h.lower.vertices,
                                                h.corner_generators))
    return out


# -- corpus ---------------------------------------------------------------------


def _arc(rng: random.Random, n: int) -> List[Point]:
    ts = [rng.uniform(0.05, math.pi - 0.05) for _ in range(n)]
    return [Point(100.0 * math.cos(t), 100.0 * math.sin(t)) for t in ts]


def _cup(rng: random.Random, n: int) -> List[Point]:
    ts = [rng.uniform(0.05, math.pi - 0.05) for _ in range(n)]
    return [Point(100.0 * math.cos(t), 101.0 - 100.0 * math.sin(t)) for t in ts]


def _strip(rng: random.Random, n: int) -> List[Point]:
    return [Point(rng.uniform(0.0, n), math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            for _ in range(n)]


def _mixed(rng: random.Random, n: int) -> List[Point]:
    # alternating sides close enough to form clusters across the highway
    return [Point(3.0 * i + rng.uniform(-1.0, 1.0), (-1.0) ** i * rng.uniform(1.0, 3.0))
            for i in range(n)]


def _mirrored(rng: random.Random, n: int) -> List[Point]:
    # (x, y) and (x, -y): equal keys (x, |y|), in both pair orders
    half = helpers.random_points(rng, (n + 1) // 2, span=5.0)
    return half + [Point(p.x, -p.y) for p in half]


def _signed_zeros(rng: random.Random, n: int) -> List[Point]:
    # x in {-0.0, 0.0} with y = 0 or tan(alpha) = 0 gives L = -0.0 beside
    # L = 0.0; the pair loop's max kept the first of the tie
    return [Point(rng.choice((-0.0, 0.0, 1.0, -1.0)),
                  rng.choice((0.0, -0.0, float(rng.randint(-3, 3)))))
            for _ in range(n)]


FAMILIES = (_arc, _cup, _strip, _mixed, _mirrored, _signed_zeros,
            lambda rng, n: helpers.random_points(rng, n))


def _clusters(rng: random.Random, m: MetricParams, n_max: int):
    for family in FAMILIES:
        pts = family(rng, rng.randint(1, n_max))
        for cl in hull_builder.build(pts, m).clusters:
            yield pts, cl


def _planted(rng: random.Random, m: MetricParams) -> List[Point]:
    """Generators with L(b) == R(a) exactly: pairs at gap zero, which the
    sweep's cut (L(b) < R(a)) must still hand to the predicate."""
    t = m.tan_alpha
    out: List[Point] = []
    while len(out) < 6:
        a = Point(rng.uniform(-10.0, 10.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 5.0))
        yb = rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 5.0)
        b = Point(a.x + abs(a.y) * t + abs(yb) * t, yb)
        if b.x - abs(b.y) * t == a.x + abs(a.y) * t:
            out += [a, b]
    return out


def test_sweep_matches_pair_loop_bit_for_bit():
    rng = random.Random(77)
    clusters = riding = 0
    for p in helpers.P_GRID:
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            for _ in range(3):
                for _, cl in _clusters(rng, m, 40):
                    gens = boundary_of(cl)
                    want = reference_footprint(gens, m)
                    assert repr(footprint(gens, m)) == repr(want), (p, v, gens)
                    assert repr(cl.footprint) == repr(want), (p, v, gens)
                    clusters += 1
                    riding += want is not None
                planted = _planted(rng, m)
                for gens in (planted, planted[:1], list(reversed(planted))):
                    assert repr(footprint(gens, m)) == repr(reference_footprint(gens, m))
    assert clusters >= 1000 and riding >= 300


def test_signed_zero_tie_keeps_the_pair_loops_sign():
    # L = -0.0 for (-0.0, 0.0) beside L = 0.0 for (0.0, 2.0), both maximal
    m = MetricParams.make(3.0, INF)
    for gens in (
        [Point(-1.0, 3.0), Point(0.0, 2.0), Point(-1.0, 0.0), Point(-0.0, 0.0),
         Point(-1.0, -3.0), Point(-0.0, -1.0), Point(0.0, -3.0)],
        [Point(-1.0, 3.0), Point(-0.0, 3.0), Point(0.0, 0.0), Point(-1.0, -2.0),
         Point(-0.0, -1.0), Point(0.0, -2.0)],
    ):
        want = reference_footprint(gens, m)
        assert want is not None and want[1] == 0.0
        assert repr(footprint(gens, m)) == repr(want)


def test_boundary_footprints_match_all_member_pairs():
    # at p = inf the generators are box_point frame round trips, an ulp off
    # the members, hence the tolerance
    rng = random.Random(78)
    compared = 0
    for p in helpers.P_GRID:
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            for pts, cl in _clusters(rng, m, 24):
                members = list(dict.fromkeys(pts[i] for i in cl.member_indices))
                want = reference_footprint(members, m)
                got = cl.footprint
                assert (got is None) == (want is None), (p, v, members)
                if got is not None:
                    tol = 1e-9 * max(1.0, max(max(abs(q.x), abs(q.y)) for q in members))
                    assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol
                compared += 1
    assert compared >= 500


# -- clusters beyond one block of the pair tree ---------------------------------


def test_large_cups_and_arcs_match_pair_loop_bit_for_bit():
    # for p in (1, inf) one cluster of 150-300 generators, where the sweeps
    # query the pair tree; on the cup at p = 1.3, v = 1.1 nothing rides.
    # The mirrored generator sets put equal keys and mixed-side blocks in
    # the tree.
    rng = random.Random(79)
    large = empty = 0
    for p in helpers.P_GRID:
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            for family in (_cup, _arc):
                for cl in hull_builder.build(family(rng, rng.randint(150, 300)), m).clusters:
                    gens = boundary_of(cl)
                    want = reference_footprint(gens, m)
                    assert repr(cl.footprint) == repr(want), (p, v, family.__name__)
                    large += len(gens) >= 150
                    empty += len(gens) >= 150 and want is None
            mirrored = [q for g in _cup(rng, 60) for q in (g, Point(g.x, -g.y))]
            assert repr(footprint(mirrored, m)) == repr(reference_footprint(mirrored, m))
    assert large >= 30 and empty >= 1


def _boundary_x(h: float, m: MetricParams) -> Tuple[float, float]:
    """Adjacent floats x0 < x1: (x0, h) walks to (0, h) and (x1, h) rides."""
    a = Point(0.0, h)
    lo, hi = 0.0, 1.0
    while in_walking_region(a, Point(hi, h), m):
        hi *= 2.0
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return lo, hi
        if in_walking_region(a, Point(mid, h), m):
            lo = mid
        else:
            hi = mid


def _planted_block(rng: random.Random, m: MetricParams, n: int, ride: bool, k: int,
                   side: float) -> Tuple[List[Point], Point, Point]:
    """a = (0, h) and b = (bx, h), bx one float either side of the boundary
    of a's walking region, so F(a, b) is within a few ulps of 0 and the
    pair rides iff `ride`; n points in [0, 0.9 bx] x [h, 1.05 h] between
    them; and n + 2 points right of b and higher up, which walk to a.  In
    key order a, the n points and b fill the first half, so b is the far
    low corner of the root's first block; and the higher points' larger L
    puts b behind them in the sweep's partner order.  Scaled by 2^k, on
    `side` of the highway."""
    h = rng.uniform(0.5, 2.0)
    bx = _boundary_x(h, m)[1 if ride else 0]
    pts = ([Point(0.0, h), Point(bx, h)]
           + [Point(rng.uniform(0.0, 0.9 * bx), h * rng.uniform(1.0, 1.05)) for _ in range(n)]
           + [Point(bx * rng.uniform(1.0, 1.1), h * rng.uniform(3.0, 4.0)) for _ in range(n + 2)])
    rng.shuffle(pts)
    pts = [Point(math.ldexp(q.x, k), side * math.ldexp(q.y, k)) for q in pts]
    hk = side * math.ldexp(h, k)
    return pts, Point(0.0, hk), Point(math.ldexp(bx, k), hk)


def test_planted_boundary_pairs_in_large_blocks_match_pair_loop():
    # a block's certified bound must not skip a pair that rides by an ulp:
    # with a margin below zero the tree skips the block whose far low
    # corner is b, at every scale
    rng = random.Random(80)
    on_plan = 0
    for p in helpers.P_GRID:
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            for ride in (True, False):
                k = rng.choice((-600, -40, 0, 40, 600))
                gens, a, b = _planted_block(rng, m, rng.randint(20, 40), ride, k,
                                            rng.choice((-1.0, 1.0)))
                want = reference_footprint(gens, m)
                assert repr(footprint(gens, m)) == repr(want), (p, v, ride, k)
                plan = (entry_points(a, m)[1].x, entry_points(b, m)[0].x) if ride else None
                on_plan += want == plan
    assert on_plan >= 45


def _fan(rng: random.Random, m: MetricParams, n: int) -> List[Point]:
    """A point above the highway and n points below at gap L(b) - R(a)
    exactly 0 from it: each pair is a tie that rounding may tip to ride,
    and every other pair has a negative gap."""
    t = m.tan_alpha
    a = Point(rng.uniform(-10.0, 10.0), rng.uniform(0.0, 5.0))
    out = [a]
    while len(out) <= n:
        h = rng.uniform(0.0, 5.0)
        b = Point(a.x + a.y * t + h * t, -h)
        if b.x - h * t == a.x + a.y * t:
            out.append(b)
    rng.shuffle(out)
    return out


def test_gap_zero_fans_match_pair_loop():
    # more partners at gap zero than one block holds, so the tree must hand
    # a block whose max L equals R(a) to the predicate, not skip it
    rng = random.Random(81)
    riding = 0
    for p in helpers.P_GRID:
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            for _ in range(10):
                gens = list(dict.fromkeys(_fan(rng, m, 12)))
                want = reference_footprint(gens, m)
                assert repr(footprint(gens, m)) == repr(want), (p, v, gens)
                riding += want is not None
    assert riding >= 30


def test_mirrored_generators_have_the_negated_footprint():
    # the sweep finds the high end as minus the low end of the generators
    # mirrored by x -> -x; that identity must hold for the mirrored points
    # themselves, with their own entries, by value (recomputed entries can
    # flip a zero's sign)
    rng = random.Random(82)
    sets_seen = riding = 0
    for p in helpers.P_GRID:
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            sets = []
            for _ in range(3):
                sets += [boundary_of(cl) for _, cl in _clusters(rng, m, 40)]
                sets += [_planted(rng, m), list(dict.fromkeys(_fan(rng, m, 12)))]
            for gens in sets:
                got = footprint([Point(-q.x, q.y) for q in gens], m)
                want = footprint(gens, m)
                if want is None:
                    assert got is None, (p, v, gens)
                else:
                    assert got == (-want[1], -want[0]), (p, v, gens)
                    riding += 1
                sets_seen += 1
    assert sets_seen >= 1500 and riding >= 600, (sets_seen, riding)


# -- call-count guards -----------------------------------------------------------


@pytest.mark.parametrize("family", [_arc, _cup])
def test_convex_position_footprints_stop_early(counted, family):
    # one cluster holding every point; the pair loop made 130,816
    # highway_time calls here
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build(family(random.Random(5), 512), m)
    (cl,) = tch.clusters
    h = len(boundary_of(cl))
    assert h == 512
    counted["walk"] = 0
    (fp,), _ = hull_builder.footprints_and_bridges([boundary_of(cl)], m)
    assert fp is not None
    assert counted["walk"] <= 4 * h


def test_nothing_rides_footprints_stay_near_linear(counted):
    # a cup at p = 1.3, v = 1.1: one cluster, every point a generator, and
    # no pair rides, so the sweep must show that every pair walks.  The pair
    # scan made 46,434 predicate calls at n = 512 and 185,693 at n = 1024;
    # the tree makes 260 and 476.
    m = MetricParams.make(1.3, 1.1)
    calls = {}
    for n in (512, 1024):
        tch = hull_builder.build(_cup(random.Random(5), n), m)
        (cl,) = tch.clusters
        assert len(boundary_of(cl)) == n
        counted["walk"] = 0
        (fp,), _ = hull_builder.footprints_and_bridges([boundary_of(cl)], m)
        assert fp is None
        calls[n] = counted["walk"]
    assert 0 < calls[512] <= 2000
    assert calls[1024] <= 2.6 * calls[512]


def test_build_runs_the_footprint_stage_once(monkeypatch):
    # build calls footprints_and_bridges through its module binding, the
    # one a tracer swaps, once per build, on a one-sided strip and on the
    # alternating two-sided family, where mixed clusters form
    rng = random.Random(1)
    alternating = [Point(10.0 * i + rng.uniform(-1.0, 1.0), (-1.0) ** i * rng.uniform(1.0, 3.0))
                   for i in range(256)]
    cases = [(_strip(random.Random(3), 2048), MetricParams.make(2.0, 2.0)),
             (alternating, MetricParams.make(2.0, 1.1))]
    want = [hull_builder.build(pts, m) for pts, m in cases]
    stage = hull_builder.footprints_and_bridges
    calls = []

    def counted_stage(boundaries, m):
        calls.append(len(boundaries))
        return stage(boundaries, m)

    monkeypatch.setattr(hull_builder, "footprints_and_bridges", counted_stage)
    for (pts, m), w in zip(cases, want):
        calls.clear()
        got = hull_builder.build(pts, m)
        assert calls == [len(got.clusters)]
        assert [c.footprint for c in got.clusters] == [c.footprint for c in w.clusters]
        assert got.bridges == w.bridges
        assert any(c.footprint is not None for c in got.clusters)
    assert any(c.closure_above is not None and c.closure_below is not None for c in got.clusters)
