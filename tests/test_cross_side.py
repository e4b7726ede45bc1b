"""Cross-side join: the swept fixpoint over the sweep's closures against
the plain all-pairs join of members and closures, plus call-count guards
on the pruning."""

from __future__ import annotations

import math
import random
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from highwayhull import hull_builder, oracle
from highwayhull.geometry import closure_hull
from highwayhull.metric import (
    INF,
    MetricParams,
    NumericError,
    Point,
    in_walking_region,
    reach_coefficient,
)

EXTRA_P = (1.0 + 1e-7, 50.0, 1e6)
V_NEAR_ONE = 1.0 + 1e-7


# -- reference: every below member in the global reach, every root pair -----


def _in_edge_region(u: Point, a: Point, b: Point, m: MetricParams) -> bool:
    """u in the walking region of some point of the whole edge ab: its
    endpoints by the pair predicate, the rest by the builder's edge test."""
    return (in_walking_region(a, u, m) or in_walking_region(b, u, m)
            or hull_builder._point_in_edge_region(u, a, b, m))


def _reference_linked(ga, ea, gb, eb, m: MetricParams) -> bool:
    for p in ga:
        for q in gb:
            if in_walking_region(p, q, m):
                return True
    for a, b in ea:
        for q in gb:
            if _in_edge_region(q, a, b, m):
                return True
    for a, b in eb:
        for p in ga:
            if _in_edge_region(p, a, b, m):
                return True
    return False


def _find(parent: List[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _union(parent: List[int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[ry] = rx


def _groups(parent: List[int]) -> List[List[int]]:
    out: Dict[int, List[int]] = {}
    for i in range(len(parent)):
        out.setdefault(_find(parent, i), []).append(i)
    return list(out.values())


def reference_member_pairs(groups: List[List[Point]], n_above: int, m: MetricParams) -> List[int]:
    """Links through member pairs: each above member against every below
    member in the reach of the tallest one."""
    parent = list(range(len(groups)))
    k = reach_coefficient(m)
    flat_b = sorted((p.x, p.y, gi) for gi in range(n_above, len(groups)) for p in groups[gi])
    xs_b = [t[0] for t in flat_b]
    ymax_b = max(abs(t[1]) for t in flat_b)
    for gi in range(n_above):
        for p in groups[gi]:
            reach = k * (p.y + ymax_b)
            for t in range(bisect_left(xs_b, p.x - reach), bisect_right(xs_b, p.x + reach)):
                bx, by, gj = flat_b[t]
                if _find(parent, gi) == _find(parent, gj) or abs(p.x - bx) > k * (p.y + abs(by)):
                    continue
                if in_walking_region(p, Point(bx, by), m):
                    _union(parent, gi, gj)
    return parent


def reference_fixpoint(groups: List[List[Point]], parent: List[int], m: MetricParams) -> List[int]:
    """Every pair of component roots, closures rebuilt, every round."""
    parent = list(parent)
    k = reach_coefficient(m)
    while True:
        comps: Dict[int, List[int]] = {}
        for i in range(len(groups)):
            comps.setdefault(_find(parent, i), []).append(i)
        if len(comps) <= 1:
            return parent
        bounds = {}
        for r, gis in comps.items():
            g, e = [], []
            for above_side in (True, False):
                pts = [p for gi in gis for p in groups[gi] if (p.y >= 0.0) == above_side]
                if pts:
                    h = closure_hull(pts, m)
                    g.extend(hull_builder._generators(*_outline(h)))
                    for vs in (h.upper.vertices, h.lower.vertices):
                        e.extend(zip(vs, vs[1:]))
            xs = [p.x for p in g]
            bounds[r] = (g, e, min(xs), max(xs), max(abs(p.y) for p in g))
        roots = list(comps)
        changed = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                ri, rj = roots[i], roots[j]
                if _find(parent, ri) == _find(parent, rj):
                    continue
                gi_, ei, lo_i, hi_i, ym_i = bounds[ri]
                gj_, ej, lo_j, hi_j, ym_j = bounds[rj]
                slack = k * (ym_i + ym_j)
                if lo_j - hi_i > slack or lo_i - hi_j > slack:
                    continue
                if _reference_linked(gi_, ei, gj_, ej, m):
                    _union(parent, ri, rj)
                    changed = True
        if not changed:
            return parent


# -- corpus -------------------------------------------------------------------


Side = List[Tuple[List[Point], hull_builder._Outline]]


def _outline(h) -> hull_builder._Outline:
    """A closure hull's outline: its chain vertices and virtual corners."""
    return h.upper.vertices, h.lower.vertices, h.corner_generators


def _with_closures(groups: List[List[Point]], m: MetricParams) -> Side:
    return [(g, _outline(closure_hull(g, m))) for g in groups]


def _side_groups(pts: List[Point], m: MetricParams, sweep: bool) -> Tuple[Side, Side]:
    """Per-side groups of member points with their closure outlines, as
    `build` hands them to the join: the sweep's clusters, or singletons.
    Points are deduplicated first."""
    dedup = list(dict.fromkeys(pts))
    side_pts = [Point(p.x, abs(p.y)) for p in dedup]
    out = []
    for above_side in (True, False):
        ids = sorted(
            (i for i, p in enumerate(dedup) if (p.y >= 0.0) == above_side),
            key=side_pts.__getitem__,
        )
        groups = [[dedup[i]] for i in ids]
        lives = []
        if sweep and ids:
            try:
                lives = hull_builder._SideBuilder([side_pts[i] for i in ids], m).run()
            except NumericError:
                pass
        if lives:
            # a swept cluster is a run of the side's sorted points
            starts = [c.start for c in lives] + [len(ids)]
            groups = [[dedup[i] for i in ids[s:t]] for s, t in zip(starts, starts[1:])]
        if lives and m.closure_kind == "convex":
            out.append([(g, hull_builder._side_closure(
                c, [Point(p.x, abs(p.y)) for p in g], 0, len(g), not above_side, m.closure_kind))
                        for g, c in zip(groups, lives)])
        else:
            out.append(_with_closures(groups, m))
    return out[0], out[1]


def _hex_outline(f: hull_builder._Outline) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
    """Every float of an outline as hex, so zero signs count."""
    return tuple(tuple((q.x.hex(), q.y.hex()) for q in vs) for vs in f)


def _unit(pts: List[Point]) -> List[Point]:
    """pts scaled by the power of two that puts their largest |coordinate|
    in [1, 2): the unit frame the join and the sweep run in."""
    s = helpers.unit_scale(pts)
    return [Point(s * p.x, s * p.y) for p in pts]


def _cloud(rng: random.Random, m: MetricParams, scale: float, offset: float):
    pts = helpers.random_points(rng, rng.randint(4, 12), span=3.0)
    pts = _unit([Point(offset + scale * p.x, scale * p.y) for p in pts])
    return _side_groups(pts, m, sweep=rng.random() < 0.5)


def _planted(rng: random.Random, m: MetricParams, scale: float, offset: float):
    """Groups far apart: opposite-side pairs at the cone edge |dx| = t Y +-
    10^-j Y and at the reach edge |dx| = k Y (1 +- 10^-j), where the above
    group of the cone-edge pair is a vertical pair, a convex closure with
    no edges, and every other group a singleton; plus, above, a low
    horizontal closure edge with a tall left generator and a lone point at
    the edge's height k Y (1 +- 10^-j) past its end."""
    k = reach_coefficient(m)
    gap = 8.0 * k * 3.0 * scale + 1.0
    above: List[List[Point]] = []
    below: List[List[Point]] = []
    x = offset
    for _ in range(4):
        ya, yb = scale * rng.uniform(0.01, 1.0), scale * rng.uniform(0.01, 1.0)
        y = ya + yb
        j = 10.0 ** -rng.randint(1, 17) * rng.choice((-1.0, 1.0))
        for dx, column in ((m.tan_alpha * y + j * y, True), (k * y * (1.0 + j), False)):
            above.append([Point(x, ya), Point(x, 0.5 * ya)] if column else [Point(x, ya)])
            below.append([Point(x + rng.choice((-1.0, 1.0)) * dx, -yb)])
            x += gap
    h = scale * rng.uniform(0.01, 1.0)
    tall = Point(x - scale, 3.0 * scale)
    a, b = Point(x, h), Point(x + scale, h)
    u = Point(b.x + 2.0 * k * h * (1.0 + 10.0 ** -rng.randint(1, 17) * rng.choice((-1.0, 1.0))), h)
    above += [[tall, a, b], [u]]
    s = helpers.unit_scale([p for g in above + below for p in g])
    return [_with_closures([[Point(s * p.x, s * p.y) for p in g] for g in side], m)
            for side in (above, below)]


def _regimes() -> List[MetricParams]:
    ps = helpers.P_GRID + EXTRA_P
    return [MetricParams.make(p, v) for p in ps for v in helpers.V_GRID + (V_NEAR_ONE,)]


def test_join_stages_match_all_pairs_reference():
    # every instance is scaled into the unit frame by one power of two; the
    # join, fed only the groups' closures, must find every member-pair link
    rng = random.Random(2024)
    cases = 0
    member_links = fixpoint_links = 0
    for m in _regimes():
        for scale in (1e-3, 1.0, 1e3):
            offset = rng.choice((0.0, 1e3, -1e5, 1e8))
            for make in (_cloud, _planted):
                above, below = make(rng, m, scale, offset)
                if not above or not below:
                    continue
                groups = [g for g, _ in above + below]
                outlines = [f for _, f in above + below]
                want1 = reference_member_pairs(groups, len(above), m)
                want2 = _groups(reference_fixpoint(groups, want1, m))

                got = hull_builder.cross_side_merge(groups, outlines, len(above), m)
                assert [gis for gis, _, _ in got] == want2, ("join", m.p, m.v, scale, offset)
                # each side's outline is that of its members' closure, however
                # built, to the bit
                for gis, *fs in got:
                    for above_side, f in zip((True, False), fs):
                        pts = [p for gi in gis if (gi < len(above)) == above_side
                               for p in groups[gi]]
                        want = _hex_outline(_outline(closure_hull(pts, m))) if pts else None
                        got_f = None if f is None else _hex_outline(f)
                        assert got_f == want, ("closure", m.p, m.v, scale, offset, gis)
                cases += 1
                member_links += len(groups) - len(_groups(want1))
                fixpoint_links += len(_groups(want1)) - len(want2)
    assert cases >= 300 and member_links >= 300 and fixpoint_links >= 100


def _rows() -> List[Point]:
    """Two rows above and two below, 1/4 apart: no closure vertex of one
    side walks to one of the other, but members near x = 0 do."""
    return ([Point(x / 4.0, y) for x in range(-12, 13) for y in (0.1, 0.2)]
            + [Point(x / 4.0, y) for x in range(-2, 3) for y in (-0.1, -0.2)])


@pytest.mark.parametrize("p", [1.0, 1.3, 2.0, 7.0])
def test_rows_join_through_closure_edges(p):
    m = MetricParams.make(p, 2.0)
    above, below = _side_groups(_unit(_rows()), m, sweep=True)
    gens = [[g for _, f in side for g in hull_builder._generators(*f)]
            for side in (above, below)]
    assert not any(in_walking_region(a, b, m) for a in gens[0] for b in gens[1])
    members = [[q for g, _ in side for q in g] for side in (above, below)]
    walks = sum(in_walking_region(a, b, m) for a in members[0] for b in members[1])
    assert 20 <= walks <= 90, walks
    want = helpers.canon(oracle.cluster(_rows(), m).partition)
    assert helpers.build_partition(_rows(), m) == want == (tuple(range(len(_rows()))),)


# -- edge-region predicate -----------------------------------------------------

FAR_P = (1.0, 1.3, 2.0, 7.0, INF)
FAR_V = (1.1, 2.0, INF)


def _far_side(rng: random.Random, u_below: bool) -> Tuple[Point, Point, Point]:
    """u and an edge on the far side of the highway from it, in the unit
    frame; heights include 0 (a point on the highway)."""

    def h() -> float:
        return 0.0 if rng.random() < 0.1 else rng.uniform(0.001, 1.5)

    u = Point(rng.uniform(-1.9, 1.9), h())
    a = Point(rng.uniform(-1.9, 1.9), -h())
    b = Point(a.x + rng.uniform(-0.6, 0.6), -h())
    if u_below:
        u, a, b = (Point(q.x, -q.y) for q in (u, a, b))
    return u, a, b


def test_far_side_at_vertical_descent_is_the_span_rule():
    # tan(alpha) = 0: some edge point's entries meet u's exactly when u.x is
    # in the edge's x-span; the endpoint predicates catch rounding ties
    rng = random.Random(11)
    regimes = [(1.0, v) for v in FAR_V] + [(2.0, INF), (7.0, INF)]
    outcomes = set()
    for p, v in regimes:
        m = MetricParams.make(p, v)
        assert m.tan_alpha == 0.0
        for _ in range(60):
            u0, a, b = _far_side(rng, rng.random() < 0.5)
            if a.x == b.x:
                continue
            lo, hi = min(a.x, b.x), max(a.x, b.x)
            uy = math.copysign(rng.choice((0.0, 1e-3, rng.uniform(0.001, 1.5))), u0.y)
            for x in (lo, hi, 0.5 * (lo + hi), math.nextafter(lo, -INF), math.nextafter(hi, INF)):
                u = Point(x, uy)
                want = (in_walking_region(a, u, m) or in_walking_region(b, u, m)
                        or lo <= x <= hi)
                got = _in_edge_region(u, a, b, m)
                assert got == want, (p, v, u, a, b)
                outcomes.add((lo <= x <= hi, got))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_far_side_edges_never_reach_the_minimizer(monkeypatch):
    calls = []
    minimize = hull_builder.minimize_scalar

    def counted(*args, **kwargs):
        calls.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(hull_builder, "minimize_scalar", counted)
    rng = random.Random(12)
    verdicts = set()
    for p in FAR_P:
        for v in FAR_V:
            m = MetricParams.make(p, v)
            for _ in range(200):
                u, a, b = _far_side(rng, rng.random() < 0.5)
                verdicts.add(hull_builder._point_in_edge_region(u, a, b, m))
    assert not calls and verdicts == {True, False}
    # a same-side edge past the entries still goes to the minimizer
    m = MetricParams.make(2.0, 2.0)
    assert not hull_builder._point_in_edge_region(Point(1.5, 0.1), Point(0.0, 0.1), Point(0.2, 0.1), m)
    assert calls


def test_an_interior_entry_overlap_gives_the_minimizer_no_infinity():
    # the endpoints' entries are apart, yet interior edge points have a
    # negative float gap: f reads 0.0 there, where -inf made scipy's bounded
    # method compute with NaN and warn, for the same verdict
    m = MetricParams.make(INF, INF)
    u = Point(0.02928972286439189, -0.006671992080477432)
    a = Point(0.10553609851593698, -0.06957438357106766)
    b = Point(0.20187788382203536, -0.16591616887716604)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hull_builder._point_in_edge_region(u, a, b, m)


def test_far_side_verdicts_match_the_oracle():
    rng = random.Random(13)
    checked = {True: 0, False: 0}
    for p in FAR_P + (3.0,):
        for v in FAR_V + (5.0, 100.0):
            m = MetricParams.make(p, v)
            for _ in range(80):
                u, a, b = _far_side(rng, rng.random() < 0.5)
                want, margin = oracle._edge_region_margin(u, (a, b), m)
                if margin < helpers.NEAR_TIE:
                    continue
                assert hull_builder._point_in_edge_region(u, a, b, m) == want, (p, v, u, a, b)
                checked[want] += 1
    assert min(checked.values()) >= 200


def test_entry_overlap_on_highway_crossing_edges_matches_exact_scan():
    # |y| kinks where the edge crosses the highway, so L and R are not
    # linear in the edge parameter there; a Fraction scan of the exact
    # entries must find no overlap the endpoint test misses
    rng = random.Random(14)
    steps = 64
    found = {"endpoint": 0, "interior": 0, "none": 0}
    for p in FAR_P:
        for v in FAR_V:
            m = MetricParams.make(p, v)
            t = Fraction(m.tan_alpha)
            for _ in range(100):
                a = Point(rng.uniform(-1.5, 1.5), rng.uniform(0.001, 1.5))
                b = Point(rng.uniform(-1.5, 1.5), -rng.uniform(0.001, 1.5))
                cross = a.y / (a.y - b.y)
                u = Point(a.x + cross * (b.x - a.x) + rng.uniform(-0.5, 0.5),
                          rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 0.3))
                ux, uy = Fraction(u.x), abs(Fraction(u.y))
                meets = []
                for k in range(steps + 1):
                    s = Fraction(k, steps)
                    x = Fraction(a.x) + s * (Fraction(b.x) - Fraction(a.x))
                    y = abs(Fraction(a.y) + s * (Fraction(b.y) - Fraction(a.y)))
                    meets.append(x - y * t <= ux + uy * t and x + y * t >= ux - uy * t)
                got = hull_builder._entries_meet(u, a, b, m.tan_alpha)
                if any(meets):
                    assert got, (p, v, u, a, b)
                    found["endpoint" if meets[0] or meets[-1] else "interior"] += 1
                else:
                    found["none"] += 1
    assert min(found.values()) >= 50, found


# edge-region regimes, and coordinates with both zeros and subnormals
_REGIMES = [(p, v) for p in helpers.P_GRID for v in helpers.V_GRID]
_coord = st.one_of(st.floats(-4.0, 4.0),
                   st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022))))


@settings(max_examples=400)
@given(st.lists(_coord, min_size=3, max_size=3, unique=True), _coord, _coord, _coord,
       st.booleans(), st.sampled_from(_REGIMES))
def test_point_inside_the_edge_x_span_meets_its_entries(xs, uy, ay, by, flip, regime):
    # why _point_in_edge_region has no |dx| kink inside [0, 1]: with u.x
    # strictly inside the edge's x-span, the left end's float L is at most
    # its x < u.x <= R(u), and the right end's R at least its x > u.x >= L(u)
    lo, mid, hi = sorted(xs)
    a, b, u = Point(lo, ay), Point(hi, by), Point(mid, uy)
    if flip:
        a, b = b, a
    assert hull_builder._entries_meet(u, a, b, MetricParams.make(*regime).tan_alpha)


# -- call-count guards ----------------------------------------------------------


def test_uniform_join_walk_tests_stay_linear(counted):
    rng = random.Random(1)
    n = 2048
    pts = [
        Point(rng.uniform(-100.0, 100.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 100.0))
        for _ in range(n)
    ]
    hull_builder.build(pts, MetricParams.make(1.0, 2.0))
    # the fixpoint's generator pairs and the footprint sweeps; an
    # all-pairs member join made 955k calls here
    assert counted["walk"] <= 4 * n


def _alternating(n: int) -> List[Point]:
    """The alternating family of `perfbench.workloads`, drawn from
    random.Random(1): x = 10 i + U[-1, 1], sides alternating, |y| ~
    U[1, 3]."""
    rng = random.Random(1)
    return [
        Point(10.0 * i + rng.uniform(-1.0, 1.0), (1.0 if i % 2 == 0 else -1.0) * rng.uniform(1.0, 3.0))
        for i in range(n)
    ]


def test_alternating_edge_region_tests_stay_reach_bounded(counted):
    hull_builder.build(_alternating(256), MetricParams.make(2.0, 1.1))
    # 1224 without the reach box
    assert 0 < counted["edge"] <= 500


def _counted_closures(monkeypatch) -> List[frozenset]:
    """Member sets of the closure_hull calls hull_builder makes."""
    calls = []
    closure = hull_builder.closure_hull

    def counted(members, m):
        calls.append(frozenset(members))
        return closure(members, m)

    monkeypatch.setattr(hull_builder, "closure_hull", counted)
    return calls


def test_alternating_join_starts_from_the_sweep_closures(monkeypatch):
    calls = _counted_closures(monkeypatch)
    tch = hull_builder.build(_alternating(1024), MetricParams.make(2.0, 2.0))
    # no cluster merges, so the join builds no closure
    assert len(tch.clusters) == 1024 and not calls


def test_one_sided_box_builds_call_no_closure_hull(monkeypatch):
    # one-sided box closures come from the sweep's extremes
    calls = _counted_closures(monkeypatch)
    rng = random.Random(20)
    clusters = 0
    for p in (1.0, INF):
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            for _ in range(4):
                pts = helpers.random_points(rng, rng.randint(2, 60))
                for side in ([Point(x, abs(y)) for x, y in pts],
                             [Point(x, -abs(y)) for x, y in pts if y != 0.0]):
                    if side:
                        clusters += len(hull_builder.build(side, m).clusters)
    assert clusters >= 200 and not calls


def test_join_builds_each_closure_once(monkeypatch):
    # mixed clusters form here; each side the join gathers from several
    # swept clusters is built once, and a side of one swept cluster keeps
    # the sweep's closure
    m = MetricParams.make(2.0, 1.1)
    pts = _alternating(256)
    above, below = _side_groups(_unit(pts), m, sweep=True)
    swept = {frozenset(g) for g, _ in above + below}
    calls = _counted_closures(monkeypatch)
    tch = hull_builder.build(pts, m)
    assert len(tch.clusters) < len(swept)
    assert calls and len(set(calls)) == len(calls)
    assert not swept.intersection(calls)


def test_join_decides_each_generator_pair_once(monkeypatch):
    # mixed clusters form here: within one link test no unordered
    # generator pair reaches the walking predicate twice, and the edge
    # tests, each (point, edge) decided once per build, call the minimizer
    # at most 35 times
    active: List[Counter] = []
    done: List[Counter] = []
    minimized = []
    linked = hull_builder._clusters_linked
    walks = hull_builder.in_walking_region
    minimize = hull_builder.minimize_scalar

    def counted_linked(*args):
        active.append(Counter())
        try:
            return linked(*args)
        finally:
            done.append(active.pop())

    def counted_walk(q, u, m):
        if active:
            active[-1][frozenset((q, u))] += 1
        return walks(q, u, m)

    def counted_minimize(*args, **kwargs):
        minimized.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(hull_builder, "_clusters_linked", counted_linked)
    monkeypatch.setattr(hull_builder, "in_walking_region", counted_walk)
    monkeypatch.setattr(hull_builder, "minimize_scalar", counted_minimize)
    hull_builder.build(_alternating(256), MetricParams.make(2.0, 1.1))
    repeats = sum(n - 1 for c in done for n in c.values())
    assert sum(map(len, done)) > 0 and repeats == 0, repeats
    assert 0 < len(minimized) <= 35


def test_join_decides_each_edge_region_once(monkeypatch):
    # the join keeps each edge-region verdict for the whole build, so no
    # (point, edge) triple reaches the test twice across fixpoint rounds
    seen: Counter = Counter()
    edge = hull_builder._point_in_edge_region

    def counted_edge(u, a, b, m):
        seen[(u, a, b)] += 1
        return edge(u, a, b, m)

    monkeypatch.setattr(hull_builder, "_point_in_edge_region", counted_edge)
    hull_builder.build(_alternating(256), MetricParams.make(2.0, 1.1))
    assert len(seen) > 100 and max(seen.values()) == 1
