"""Partition construction end to end, checked against the exhaustive reference."""

import gc
import math
import random
from collections import Counter

import pytest

import helpers
from highwayhull import frontier, hull_builder, oracle
from highwayhull.geometry import (
    Chain,
    ClosureHull,
    closure_hull,
    exposed_boundary_segments,
    right_edge_tangent,
)
from highwayhull.metric import (
    INF,
    InvalidInputError,
    MetricParams,
    NumericError,
    Point,
)

SQ3 = math.sqrt(3.0)


# -- reference instances ---------------------------------------------------------

def test_single_point_and_duplicates():
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build([Point(3.0, 4.0)], m)
    assert [c.member_indices for c in tch.clusters] == [[0]]
    assert tch.bridges == []
    dup = hull_builder.build([Point(0, 1), Point(0, 1), Point(50, 2)], m)
    assert helpers.canon(c.member_indices for c in dup.clusters) == ((0, 1), (2,))
    both = hull_builder.build([Point(0, 1), Point(50, -2), Point(0, 1), Point(50, -2), Point(50, -2)], m)
    assert helpers.canon(c.member_indices for c in both.clusters) == ((0, 2), (1, 3, 4))
    # copies collapse to the first copy's floats, zero signs included (the
    # p = inf diamond recomputes its vertices from rotated coordinates)
    for p in (1.0, 2.0):
        for zeros in ([Point(-0.0, 0.0), Point(0.0, 0.0)], [Point(0.0, 0.0), Point(-0.0, 0.0)],
                      [Point(0.0, -0.0), Point(0.0, 0.0)]):
            (cl,) = hull_builder.build(zeros, MetricParams.make(p, 2.0)).clusters
            assert cl.member_indices == [0, 1]
            want = [math.copysign(1.0, c) for c in zeros[0]]
            for v in cl.closure.upper.vertices + cl.closure.lower.vertices:
                assert [math.copysign(1.0, c) for c in v] == want
    # a point and its mirror image have equal side coordinates (x, |y|) but
    # are two points, one per side; only the copy of the first collapses
    for p in (1.0, 2.0, INF):
        tch = hull_builder.build([Point(5.0, 1.0), Point(5.0, -1.0), Point(5.0, 1.0)],
                                 MetricParams.make(p, 2.0))
        assert helpers.canon(c.member_indices for c in tch.clusters) in (((0, 1, 2),), ((0, 2), (1,)))
        hulls = [h for c in tch.clusters for h in (c.closure_above, c.closure_below) if h is not None]
        assert sorted(v for h in hulls for v in h.upper.vertices) == [Point(5.0, -1.0), Point(5.0, 1.0)]


def test_two_far_singletons_bridge_spans_entry_points():
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build([Point(0.0, 1.0), Point(100.0, 1.0)], m)
    assert [c.member_indices for c in tch.clusters] == [[0], [1]]
    ((b0, b1),) = tch.bridges
    off = 1.0 / SQ3
    assert abs(b0 - off) < 1e-12 and abs(b1 - (100.0 - off)) < 1e-12


def test_reference_instance_three_clusters():
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(0, 1), Point(0.5, 1), Point(100, 1), Point(50, -30)]
    tch = hull_builder.build(pts, m)
    got = helpers.canon(c.member_indices for c in tch.clusters)
    assert got == ((0, 1), (2,), (3,))
    want = [
        (0.5 + 1.0 / SQ3, 50.0 - 30.0 / SQ3),
        (50.0 + 30.0 / SQ3, 100.0 - 1.0 / SQ3),
    ]
    assert len(tch.bridges) == 2
    for (g0, g1), (w0, w1) in zip(tch.bridges, want):
        assert abs(g0 - w0) < 1e-9 and abs(g1 - w1) < 1e-9
    assert all(c.footprint is None for c in tch.clusters)


def test_highway_points_stay_separate():
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(float(i), 0.0) for i in range(4)]
    tch = hull_builder.build(pts, m)
    assert [c.member_indices for c in tch.clusters] == [[0], [1], [2], [3]]
    assert tch.bridges == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]


def test_barely_faster_highway_cannot_split_tall_points():
    m = MetricParams.make(2.0, 1.0001)
    rng = random.Random(2)
    pts = [
        Point(rng.uniform(-100.0, 100.0), rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 40.0))
        for _ in range(25)
    ]
    tch = hull_builder.build(pts, m)
    assert len(tch.clusters) == 1


def test_straddling_pair_merges_with_one_closure_per_side():
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build([Point(0.0, 1.0), Point(0.2, -1.0)], m)
    assert len(tch.clusters) == 1
    cl = tch.clusters[0]
    assert list(cl.closure_above.upper) == [Point(0.0, 1.0)]
    assert list(cl.closure_below.lower) == [Point(0.2, -1.0)]
    assert cl.closure is cl.closure_above


def test_internal_highway_use_yields_footprint():
    # the ends walk to the tall middle point but ride between each other
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(0.0, 5.0), Point(15.0, 9.0), Point(30.0, 5.0)]
    tch = hull_builder.build(pts, m)
    assert len(tch.clusters) == 1
    lo, hi = tch.clusters[0].footprint
    assert abs(lo - 5.0 / SQ3) < 1e-9
    assert abs(hi - (30.0 - 5.0 / SQ3)) < 1e-9
    assert tch.bridges == []


def test_build_input_validation():
    m = MetricParams.make(2.0, 2.0)
    with pytest.raises(InvalidInputError):
        hull_builder.build([], m)
    with pytest.raises(InvalidInputError):
        hull_builder.build([Point(math.nan, 0.0)], m)


@pytest.mark.parametrize("pts", [
    [(1e308, 1e308), (-1e308, 1.5e308)],
    [(1.7e308, 1e308), (-1.6e308, 1.5e308), (0.0, 1.7e308)],
])
def test_hull_beyond_float_range_raises_numeric_error(pts):
    # the p = inf apex of these points lies above the largest float: the
    # build used to return it as (x, inf), and the oracle's closure failed
    # its chain check
    m = MetricParams.make(INF, 2.0)
    with pytest.raises(NumericError, match=r"p=inf, v=2\.0 overflows the float range"):
        hull_builder.build(pts, m)
    with pytest.raises(NumericError, match=r"p=inf, v=2\.0 overflows the float range"):
        oracle.cluster(pts, m)
    # the p = 1 box has its corners among the coordinates
    assert len(hull_builder.build(pts, MetricParams.make(1.0, 2.0)).clusters) == 1


def test_hull_at_the_top_exponent_scales_back_exactly():
    # every coordinate above 2^1023, corners included, yet representable
    m = MetricParams.make(INF, 2.0)
    pts = [(1e308, 0.5e308), (1.2e308, 0.6e308), (1.1e308, 0.3e308)]
    s = 2.0**-1000
    (big,) = hull_builder.build(pts, m).clusters
    (small,) = hull_builder.build([(s * x, s * y) for x, y in pts], m).clusters
    assert len(big.closure.corner_generators) == 4
    for vs, ws in ((big.closure.upper, small.closure.upper), (big.closure.lower, small.closure.lower),
                   (big.closure.corner_generators, small.closure.corner_generators)):
        assert list(vs) == [Point(x / s, y / s) for x, y in ws]


def test_build_pauses_the_collector_and_restores_it(monkeypatch):
    # paused inside, left as found on return and on error
    m = MetricParams.make(2.0, 2.0)
    seen = []
    sweep = hull_builder._SideBuilder.run

    def run(self):
        seen.append(gc.isenabled())
        return sweep(self)

    monkeypatch.setattr(hull_builder._SideBuilder, "run", run)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            hull_builder.build([Point(0.0, 1.0), Point(3.0, -2.0)], m)
            assert gc.isenabled() == enabled
            with pytest.raises(InvalidInputError):
                hull_builder.build([Point(0.0, 1.0), Point(math.nan, 0.0)], m)
            assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert len(seen) == 4 and not any(seen)


@pytest.mark.parametrize("run", [hull_builder.build, oracle.cluster], ids=["build", "oracle"])
@pytest.mark.parametrize(
    "bad", [("a", 1), (1,), None, (1, 2, 3), "xy", (1.0, None), (INF, 0.0), (10**400, 0)]
)
def test_points_must_be_pairs_of_finite_reals(run, bad):
    m = MetricParams.make(2.0, 2.0)
    with pytest.raises(InvalidInputError):
        run([(0.0, 1.0), bad], m)
    run([(0, 1), [2.5, -1.0], Point(3, 2)], m)  # any (x, y) pairs of reals pass


def test_tangent_collapsed_onto_highway_is_skipped():
    # the right tangent of the edge (-5, 3)-(-4, 1) runs under 1e-16 above
    # the highway (p = 50: the curves leave their entries as |x|^50)
    m = MetricParams.make(50.0, INF)
    pts = [Point(-4.0, 1.0), Point(-2.0, 0.0), Point(-5.0, 3.0)]
    assert helpers.build_partition(pts, m) == ((0, 2), (1,))
    assert helpers.canon(oracle.cluster(pts, m).partition) == ((0, 2), (1,))
    # an edge whose pivot lies an ulp left of the entry: the polar solve
    # (p = 1.3) collapses its tangent onto the highway, a band of zero
    # height and zero slope that locate skips for the highway point (2, 0)
    m = MetricParams.make(1.3, 2.0)
    dx = math.nextafter(2.0 * m.tan_alpha, INF)
    assert right_edge_tangent(Point(0.0, 3.0), Point(dx, 1.0), m)[2] == 0.0
    pts = [Point(dx, 1.0), Point(2.0, 0.0), Point(0.0, 3.0)]
    assert helpers.build_partition(pts, m) == helpers.canon(oracle.cluster(pts, m).partition)
    # the p = 2 closed form keeps a band of height (c d)^2, under 1e-30
    m = MetricParams.make(2.0, 2.0)
    dx = math.nextafter(2.0 * m.tan_alpha, INF)
    lo, hi, _ = right_edge_tangent(Point(0.0, 3.0), Point(dx, 1.0), m)
    assert 0.0 <= lo.y < 1e-30 and 0.0 <= hi.y < 1e-30
    pts = [Point(dx, 1.0), Point(2.0, 0.0), Point(0.0, 3.0)]
    assert helpers.build_partition(pts, m) == ((0, 2), (1,))
    assert helpers.canon(oracle.cluster(pts, m).partition) == ((0, 2), (1,))


def test_tangent_near_p_one_matches_oracle():
    # an edge whose tangent a curve-ordinate solve inside the tangent search
    # would meet as NaN (a scipy ValueError from brentq)
    m = MetricParams.make(1.05, 5.0)
    pts = [
        Point(16.603932884706435, 3.1463386006678977),
        Point(12.71167258689557, 3.1270042398507827),
        Point(3.916161619528951, 3.741735542212447),
    ]
    want = helpers.canon(oracle.cluster(pts, m).partition)
    assert want == ((0, 1), (2,))
    assert helpers.build_partition(pts, m) == want


@pytest.mark.parametrize("p", [1.3, 2.0, 7.0])
@pytest.mark.parametrize("d", [2e-6, 2e-8, 2e-10, 2e-12])
def test_far_pivot_tangents_match_oracle(p, d):
    # the edge (0, 100)-(200, 100 - d) puts the unit pivot at -200 / d, so
    # its tangency lies next to the curve's asymptote
    m = MetricParams.make(p, 2.0)
    pts = [Point(0.0, 100.0), Point(200.0, 100.0 - d), Point(350.0, 1.0)]
    want = helpers.canon(oracle.cluster(pts, m).partition)
    assert want == ((0, 1), (2,))
    assert helpers.build_partition(pts, m) == want


def _strip(rng, n):
    lo, hi = math.log(0.05), math.log(5.0)
    return [Point(rng.uniform(0.0, float(n)), math.exp(rng.uniform(lo, hi))) for _ in range(n)]


def test_strip_tangents_make_no_curve_solves(counted):
    # each tangent is one brentq over the direction, with no curve solve
    # inside it
    tch = hull_builder.build(_strip(random.Random(11), 2048), MetricParams.make(1.3, 2.0))
    solves = counted["tangent"]
    assert solves > 100 and len(tch.clusters) > 50
    assert counted["curve"] == 0
    assert counted["brentq"] <= solves
    assert counted["evals"] <= 40 * solves


def test_p2_strip_tangents_make_no_root_solves(counted):
    # at p = 2 every tangent is the parabola's closed form
    tch = hull_builder.build(_strip(random.Random(11), 2048), MetricParams.make(2.0, 2.0))
    assert counted["tangent"] > 100 and len(tch.clusters) > 50
    assert counted["brentq"] == 0 and counted["curve"] == 0


def test_build_checks_each_output_chain_once(monkeypatch):
    # the unit-frame outlines come from push_upper / push_lower and are not
    # checked; each output closure side checks its two chains once, at the
    # caller's scale, and so does each closure_hull call, which the join
    # makes for a side it gathers from several swept clusters.  Checking
    # the unit-frame closures as well made 4 per side.
    checks = Counter()
    post_init = Chain.__post_init__
    hulls = []
    closure = hull_builder.closure_hull

    def counted_post_init(self):
        checks[self.kind] += 1
        post_init(self)

    def counted_closure(members, m):
        hulls.append(members)
        return closure(members, m)

    monkeypatch.setattr(Chain, "__post_init__", counted_post_init)
    monkeypatch.setattr(hull_builder, "closure_hull", counted_closure)
    # a one-sided strip, and the alternating family of test_cross_side.py,
    # where mixed clusters form
    rng = random.Random(1)
    alternating = [Point(10.0 * i + rng.uniform(-1.0, 1.0), (-1.0) ** i * rng.uniform(1.0, 3.0))
                   for i in range(256)]
    for pts, m, least, joined in (
            (_strip(random.Random(22), 4096), MetricParams.make(1.0, INF), 500, False),
            (alternating, MetricParams.make(2.0, 1.1), 100, True)):
        checks.clear()
        hulls.clear()
        tch = hull_builder.build(pts, m)
        sides = sum(h is not None for c in tch.clusters for h in (c.closure_above, c.closure_below))
        assert sides >= least and bool(hulls) == joined, (sides, len(hulls))
        assert checks["upper"] == checks["lower"] == sides + len(hulls), (checks, sides, len(hulls))


@pytest.mark.parametrize("p, v", [(INF, 2.0), (1.0, INF)])
def test_box_strip_corner_tests_stay_linear(counted, p, v):
    # box entries beyond the rounding-widened reach are skipped without a
    # corner test; without that cut these strips make 2.4-6.1 n tests,
    # growing with n at p = inf.  With the cut they make 1.23-1.31 n; the
    # floor keeps the count live, so a predicate the fixture misses fails
    m = MetricParams.make(p, v)
    for n in (4096, 8192):
        counted.clear()
        hull_builder.build(_strip(random.Random(n), n), m)
        assert n <= counted["corner"] <= 1.5 * n, (p, v, n, counted["corner"])


@pytest.mark.parametrize("p, v, corner, right, tangent", [
    (2.0, 2.0, 1899, 478, 771),
    (1.3, 2.0, 4504, 777, 1129),
    (7.0, 5.0, 652, 399, 826),
])
def test_convex_locate_makes_the_pinned_calls(counted, monkeypatch, p, v, corner, right,
                                              tangent):
    # Frontier.locate decides a convex entry by its top-vertex walk and the
    # tangent bands below; these are the counts of its vertex tests, its
    # right tangents and their unit tangencies when that decision was a
    # method of its own, so the inlined loop makes the same calls
    tangent_fn = frontier.right_edge_tangent

    def counted_tangent(*args):
        counted["right"] += 1
        return tangent_fn(*args)

    monkeypatch.setattr(frontier, "right_edge_tangent", counted_tangent)
    hull_builder.build(_strip(random.Random(4096), 4096), MetricParams.make(p, v))
    assert (counted["corner"], counted["right"], counted["tangent"]) == (corner, right, tangent)


def _tiny_cluster(seed):
    # points 2^-600 across beside a unit point: in the unit frame their turn
    # products underflow, so only a scale-safe turn test keeps their hulls
    rng = random.Random(seed)
    s = 2.0**-600
    return [Point(-1.0, 1.0)] + [Point(s * rng.uniform(0, 50), s * rng.uniform(0, 3))
                                 for _ in range(rng.randint(4, 24))]


def _tiny_strip(seed, n):
    # n points 2^-560..2^-800 across beside a unit-size point, heights spread
    # over two decades: box-metric exposure lines must keep their offset
    rng = random.Random(seed)
    s = 2.0 ** -rng.randint(560, 800)
    lo, hi = math.log(0.05), math.log(5.0)
    return [Point(-1.9, 1e-3)] + [Point(rng.uniform(0, n) * s, math.exp(rng.uniform(lo, hi)) * s)
                                  for _ in range(n)]


@pytest.mark.parametrize("p, v, n, seeds", [
    (INF, 2.0, 16, range(20)),
    (1.0, 2.0, 64, (7, 11, 57, 141)),
    (1.0, INF, 64, (10, 124, 127)),
])
def test_tiny_strips_match_the_oracle(p, v, n, seeds):
    m = MetricParams.make(p, v)
    mismatches = []
    for seed in seeds:
        pts = _tiny_strip(seed, n)
        if helpers.build_partition(pts, m) != helpers.canon(oracle.cluster(pts, m).partition):
            mismatches.append(seed)
    assert not mismatches


@pytest.mark.parametrize("p", [1.3, 2.0, INF])
def test_tiny_two_sided_strips_match_the_oracle(p):
    # the point below the highway runs the cross-side join over clusters
    # 2^-560..2^-800 across; an absolute tolerance of 1e-12 on
    # direct - highway merged them into one, on 26 (p = 1.3), 28 (p = 2) and
    # 30 (p = inf) of these seeds.  p = 1 waits for the box metrics' virtual
    # corners (ROADMAP item 2).
    m = MetricParams.make(p, 2.0)
    mismatches = []
    for seed in range(30):
        pts = _tiny_strip(seed, 120) + [Point(-3.0, -1.0)]
        if helpers.build_partition(pts, m) != helpers.canon(oracle.cluster(pts, m).partition):
            mismatches.append(seed)
    assert not mismatches


@pytest.mark.parametrize("p", [1.3, 2.0])
def test_tiny_clusters_match_the_oracle(p):
    m = MetricParams.make(p, 2.0)
    mismatches = []
    for seed in range(40):
        pts = _tiny_cluster(seed)
        if helpers.build_partition(pts, m) != helpers.canon(oracle.cluster(pts, m).partition):
            mismatches.append(seed)
    assert not mismatches


# -- exposure captures: points governed by grown boundary pieces -------------------

def test_tangent_bulge_boundary_decides_membership():
    m = MetricParams.make(2.0, 2.0)
    a, b = Point(0.0, 1.0), Point(4.0, 5.0)
    (seg,) = exposed_boundary_segments((a, b), m, x_cap=INF)
    xm = 0.5 * (seg.start.x + seg.end.x)
    for dy, want in ((1e-3, ((0, 1, 2),)), (-1e-3, ((0,), (1, 2)))):
        q = Point(xm, seg.y_at(xm) + dy)
        pts = [q, a, b]
        assert helpers.build_partition(pts, m) == want
        assert helpers.canon(oracle.cluster(pts, m).partition) == want


def test_box_corner_wedge_decides_membership():
    # the virtual top-left corner of the grown box reaches further left
    # than either member does on its own
    m = MetricParams.make(1.0, 2.0)
    a, b = Point(0.0, 0.5), Point(1.0, 4.0)
    for qy, want in ((2.6, ((0, 1, 2),)), (2.4, ((0,), (1, 2)))):
        pts = [Point(-10.0, qy), a, b]
        assert helpers.build_partition(pts, m) == want
        assert helpers.canon(oracle.cluster(pts, m).partition) == want


# -- structural soundness -----------------------------------------------------------

def test_closures_contain_their_members():
    for seed in range(12):
        pts, m, _ = helpers.tie_free_instance(300 + seed)
        tch = hull_builder.build(pts, m)
        for cl in tch.clusters:
            for i in cl.member_indices:
                q = pts[i]
                h = cl.closure_above if q.y >= 0.0 else cl.closure_below
                if h is None and q.y == 0.0:
                    h = cl.closure_below
                up, lo = list(h.upper), list(h.lower)
                assert up[0].x - 1e-9 <= q.x <= up[-1].x + 1e-9
                x = min(max(q.x, up[0].x), up[-1].x)
                assert q.y <= helpers.chain_y(up, x) + 1e-9
                assert q.y >= helpers.chain_y(lo, x) - 1e-9


def test_cluster_order_and_bridge_positivity():
    for seed in range(8):
        pts, m, _ = helpers.tie_free_instance(400 + seed)
        tch = hull_builder.build(pts, m)
        mins = [min(pts[i].x for i in c.member_indices) for c in tch.clusters]
        assert mins == sorted(mins)
        for b0, b1 in tch.bridges:
            assert b1 > b0
        assert len(tch.bridges) <= max(0, len(tch.clusters) - 1)


def test_partition_covers_all_indices_once():
    for seed in range(8):
        pts, m, _ = helpers.tie_free_instance(500 + seed)
        tch = hull_builder.build(pts, m)
        seen = sorted(i for c in tch.clusters for i in c.member_indices)
        assert seen == list(range(len(pts)))


def test_one_sided_clusters_are_runs_of_the_sorted_side():
    # an arrival merges a suffix of the live clusters and an exposure hit
    # the last two, so each cluster's distinct points are one block of its
    # side's (x, |y|) order
    multi = 0
    for i, p in enumerate(helpers.P_GRID):
        for j, v in enumerate(helpers.V_GRID):
            m = MetricParams.make(p, v)
            rng = random.Random(1800 + 10 * i + j)
            for _ in range(10):
                pts = helpers.random_points(rng, rng.randint(2, 60))
                for side in ([Point(x, abs(y)) for x, y in pts],
                             [Point(x, -abs(y)) for x, y in pts if y != 0.0]):
                    keys = [(q.x, abs(q.y)) for q in side]
                    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
                    for cl in hull_builder.build(side, m).clusters if side else ():
                        block = sorted({rank[keys[k]] for k in cl.member_indices})
                        assert block == list(range(block[0], block[-1] + 1))
                        multi += len(block) > 1
    assert multi >= 1000


def _hex_outline(f):
    """Every float of an outline (upper chain vertices, lower chain
    vertices, virtual corners) as hex, so zero signs count."""
    return tuple(tuple((q.x.hex(), q.y.hex()) for q in vs) for vs in f)


def _zero_heavy(rng, n):
    """Integer grid points in [-3, 3]^2, each zero coordinate signed at random."""

    def signed(k):
        return math.copysign(0.0, rng.choice((-1.0, 1.0))) if k == 0 else float(k)

    return [Point(signed(rng.randint(-3, 3)), signed(rng.randint(-3, 3))) for _ in range(n)]


def _signed_zero_xs(rng, n):
    """Uniform points, about a third of them with x = +-0.0."""
    return [Point(math.copysign(0.0, rng.choice((-1.0, 1.0))) if rng.random() < 0.35
                  else rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]


def test_swept_box_closures_equal_closure_hull_of_their_runs(monkeypatch):
    # each box closure comes from its swept cluster's extremes; it must be
    # closure_hull of the cluster's run to the bit, zero signs included,
    # which below the highway takes x ties in the opposite order
    box_closure = hull_builder._box_closure
    checked = Counter()

    def compared(c, pts, s, t, mirror, kind):
        got = box_closure(c, pts, s, t, mirror, kind)
        run = [Point(x, -y) if mirror else Point(x, y) for x, y in pts[s:t]]
        want = closure_hull(run, m)
        assert (_hex_outline(got) == _hex_outline(
            (want.upper.vertices, want.lower.vertices, want.corner_generators))), (kind, mirror, run)
        zeros = {math.copysign(1.0, q.x) for q in run if q.x == 0.0}
        checked["below" if mirror else "above"] += 1
        checked["signed zero ties below"] += mirror and len(zeros) == 2
        return got

    monkeypatch.setattr(hull_builder, "_box_closure", compared)
    rng = random.Random(1900)
    pair = [Point(-0.0, -1.0), Point(0.0, -2.0)]
    for p in (1.0, INF):
        for v in helpers.V_GRID:
            m = MetricParams.make(p, v)
            inputs = [pair, pair + [Point(0.2, 0.3)], pair[::-1] + [Point(0.5, -1.5)]]
            for _ in range(12):
                inputs.append(_zero_heavy(rng, rng.randint(2, 30)))
                inputs.append(_signed_zero_xs(rng, rng.randint(2, 30)))
            for pts in inputs:
                # as drawn, above only (y = -0.0 stays above) and below only
                for side in (pts, [Point(x, y if y == 0.0 else abs(y)) for x, y in pts],
                             [Point(x, -abs(y)) for x, y in pts if y != 0.0]):
                    if side:
                        hull_builder.build(side, m)
    assert checked["above"] >= 400 and checked["below"] >= 400, checked
    assert checked["signed zero ties below"] >= 150, checked


# -- oracle equivalence ---------------------------------------------------------------

def test_partition_matches_exhaustive_reference():
    mismatches = []
    for seed in range(40):
        pts, m, want = helpers.tie_free_instance(seed)
        got = helpers.build_partition(pts, m)
        if got != want:
            mismatches.append((seed, m.p, m.v, len(pts)))
    assert not mismatches


def _by_members(tch):
    return {tuple(c.member_indices): c.footprint for c in tch.clusters}


def test_partition_invariances():
    # partitions under permutation, x-translation, mirrors and 2^+-20
    # scaling; footprints and bridges exactly under the mirrors and scaling
    rng = random.Random(9)
    footprints = 0
    for seed in range(60):
        pts, m, want = helpers.tie_free_instance(100 + seed)
        n = len(pts)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [pts[j] for j in perm]
        tch = hull_builder.build(permuted, m)
        mapped = helpers.canon(
            [perm[i] for i in c.member_indices] for c in tch.clusters
        )
        assert mapped == want
        dx = rng.uniform(-30.0, 30.0)
        assert helpers.build_partition([Point(q.x + dx, q.y) for q in pts], m) == want
        base = hull_builder.build(pts, m)
        assert helpers.canon(c.member_indices for c in base.clusters) == want
        fps = _by_members(base)
        footprints += sum(f is not None for f in fps.values())
        ymir = hull_builder.build([Point(q.x, -q.y) for q in pts], m)
        assert _by_members(ymir) == fps and ymir.bridges == base.bridges
        xmir = hull_builder.build([Point(-q.x, q.y) for q in pts], m)
        assert _by_members(xmir) == {
            c: None if f is None else (-f[1], -f[0]) for c, f in fps.items()
        }
        assert xmir.bridges == [(-b, -a) for a, b in reversed(base.bridges)]
        for s in (2.0**20, 2.0**-20):
            scaled = hull_builder.build([Point(s * q.x, s * q.y) for q in pts], m)
            assert _by_members(scaled) == {
                c: None if f is None else (s * f[0], s * f[1]) for c, f in fps.items()
            }
            assert scaled.bridges == [(s * a, s * b) for a, b in base.bridges]
    assert footprints >= 30


def test_exponent_near_one_fails_only_with_typed_errors():
    # alpha underflows to 0 for these p although v is finite, so the curve
    # solver takes its vertical-descent bracket, whose 1 / (p - 1) exponent
    # overflows a float; failures must still be typed and carry p and v
    for p in (1.0 + 1e-7, 1.000001):
        for v in (1.5, 2.0, 10.0):
            m = MetricParams.make(p, v)
            for seed in range(10):
                rng = random.Random(seed)
                pts = [Point(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(20)]
                try:
                    got = helpers.build_partition(pts, m)
                except NumericError as ex:
                    assert "p=%r v=%r" % (p, v) in str(ex)
                    continue
                ref = oracle.cluster(pts, m)
                if ref.min_margin >= helpers.NEAR_TIE:
                    assert got == helpers.canon(ref.partition), (p, v, seed)


def _document(tch, s=1.0):
    """Every float of the hull, times s: closure vertices and virtual corners
    per cluster, footprints and bridges."""

    def vs(points):
        return tuple((s * q.x, s * q.y) for q in points)

    def hull(h):
        return None if h is None else (h.kind, vs(h.upper), vs(h.lower), vs(h.corner_generators))

    return (
        [(tuple(c.member_indices), hull(c.closure_above), hull(c.closure_below),
          None if c.footprint is None else (s * c.footprint[0], s * c.footprint[1]))
         for c in tch.clusters],
        [(s * a, s * b) for a, b in tch.bridges],
    )


def _cloud(rng):
    # six points in [-1, 1]^2 on both sides
    return [Point(rng.uniform(-1.0, 1.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 1.0))
            for _ in range(6)]


def test_build_is_exact_under_power_of_two_scaling():
    # travel time is 1-homogeneous and build works in one unit frame, so
    # scaling the input by 2^k scales every float of the hull by 2^k
    rng = random.Random(13)
    instances = [(MetricParams.make(p, v), helpers.random_points(rng, rng.randint(2, 16)))
                 for p in helpers.P_GRID for v in helpers.V_GRID for _ in range(3)]
    clouds = random.Random(11)
    instances += [(MetricParams.make(INF, 5.0), _cloud(clouds)) for _ in range(150)]
    for m, pts in instances:
        base = hull_builder.build(pts, m)
        for k in (-1000, -660, -330, -20, 20, 330, 900):
            s = 2.0**k
            got = hull_builder.build([Point(s * q.x, s * q.y) for q in pts], m)
            assert _document(got) == _document(base, s), (m.p, m.v, k, pts)


def _rechecked(h):
    """h built again through the checking constructors."""
    return ClosureHull(h.kind, Chain(h.upper.vertices, "upper"), Chain(h.lower.vertices, "lower"),
                       h.corner_generators)


def test_output_closures_pass_the_public_checks():
    # build trusts the chains it folds in the unit frame and checks each
    # output closure once, after scaling it back; every closure it returns
    # must pass Chain's and ClosureHull's checks: on the corpus of
    # test_cli.py, and on both sides at scales 2^k, where at k = -1040 the
    # p = inf corners are subnormal
    closures = 0
    for i, p in enumerate(helpers.P_GRID):
        for j, v in enumerate(helpers.V_GRID):
            m = MetricParams.make(p, v)
            rng = random.Random(100 * i + j)
            for _ in range(6):
                pts = helpers.random_points(rng, rng.randint(2, 48))
                insts = [pts, [Point(x, abs(y)) for x, y in pts]]
                if p in (1.0, 1.3, 2.0, INF):
                    u = helpers.unit_scale(pts)
                    insts += [[Point(s * x, s * y) for x, y in side]
                              for side in (insts[1], [Point(x, -abs(y)) for x, y in pts if y != 0.0])
                              if side for s in (u * 2.0**k for k in (-1040, -1000, -600, 600, 1020))]
                for inst in insts:
                    for c in hull_builder.build(inst, m).clusters:
                        for h in (c.closure_above, c.closure_below):
                            if h is not None:
                                assert _rechecked(h) == h
                                closures += 1
    assert closures >= 5000, closures


def _hex(doc):
    """doc with every float as hex, so zero signs count."""
    if isinstance(doc, float):
        return doc.hex()
    if isinstance(doc, (list, tuple)):
        return [_hex(d) for d in doc]
    return doc


@pytest.mark.parametrize("p", [1.0, INF])
def test_box_builds_scale_to_the_bit(p):
    # build(2^k P) is 2^k build(P) float for float, zero signs included, on
    # both sides.  The coordinates are multiples of 2^-34 within 4, so 2^k P
    # is exact down to k = -1040.  There the p = inf corners, multiples of
    # 2^-35 in P, are subnormal with a bit more than floats hold, and both
    # sides round each of them once.
    rng = random.Random(2222)
    builds = 0
    for v in helpers.V_GRID:
        m = MetricParams.make(p, v)
        for _ in range(20):
            pts = [Point(rng.randint(-2**36, 2**36) * 2.0**-34, rng.randint(-2**36, 2**36) * 2.0**-34)
                   for _ in range(rng.randint(2, 30))]
            pts += _zero_heavy(rng, rng.randint(0, 6))
            for side in ([Point(x, y if y == 0.0 else abs(y)) for x, y in pts],
                         [Point(x, -abs(y)) for x, y in pts if y != 0.0]):
                base = hull_builder.build(side, m)
                for k in (-1040, -1030, -330, 330, 1000):
                    s = 2.0**k
                    got = hull_builder.build([Point(s * x, s * y) for x, y in side], m)
                    assert _hex(_document(got)) == _hex(_document(base, s)), (p, v, k, side)
                    builds += 1
    assert builds >= 900


def test_sweep_floor_is_relative_to_the_coordinates():
    # the three below points sweep to two clusters; an exposure floor one
    # absolute unit left of the points made the exposure segment pass
    # through the origin in floats at 1e-100, and the sweep merged them
    m = MetricParams.make(INF, 5.0)
    pts = _cloud(random.Random(39))
    want = helpers.canon(oracle.cluster(pts, m).partition)
    assert helpers.build_partition(pts, m) == want
    for s in (1e-100, 1e-200):
        assert helpers.build_partition([Point(s * q.x, s * q.y) for q in pts], m) == want


@pytest.mark.parametrize("k", [-560, 560])
def test_extreme_scale_triangle_keeps_its_apex(k):
    s = 2.0**k
    pts = [Point(0.0, 0.0), Point(s / 2.0, s), Point(s, 0.0)]
    tch = hull_builder.build(pts, MetricParams.make(2.0, 2.0))
    assert [c.member_indices for c in tch.clusters] == [[0, 1, 2]]
    assert tch.clusters[0].closure.upper.vertices == tuple(pts)
    assert Chain(tuple(pts), "upper").vertices == tuple(pts)
