"""Strictly-above segment queries against a linear scan reference."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from highwayhull import subpath_hull
from highwayhull.geometry import QuerySegment
from highwayhull.metric import InvalidInputError, Point

MARGIN = 1e-9


def naive_above(points, seg):
    """Linear scan; None when some interior point is within MARGIN of the line."""
    hit = False
    for q in points:
        if seg.start.x < q.x < seg.end.x:
            r = q.y - seg.y_at(q.x)
            if abs(r) < MARGIN:
                return None
            hit = hit or r > 0.0
    return hit


def test_build_requires_sorted_distinct_points():
    with pytest.raises(InvalidInputError):
        subpath_hull.build([Point(1.0, 0.0), Point(0.0, 0.0)])
    with pytest.raises(InvalidInputError):
        subpath_hull.build([Point(0.0, 0.0), Point(0.0, 0.0)])


def test_small_fixed_queries():
    pts = [Point(float(i), float((i * 7) % 5)) for i in range(10)]
    t = subpath_hull.build(pts)
    assert t.any_point_above(QuerySegment(Point(0.5, 3.5), Point(9.5, 3.5)))
    assert not t.any_point_above(QuerySegment(Point(-1.0, 4.5), Point(11.0, 4.5)))
    # on-the-line points do not count as above
    assert not t.any_point_above(QuerySegment(Point(0.5, 4.0), Point(9.5, 4.0)))
    # strip interior is open: the spike at x = 2 is excluded
    assert not t.any_point_above(QuerySegment(Point(0.0, 3.9), Point(2.0, 3.9)))
    # zero-length segment has an empty strip
    assert not t.any_point_above(QuerySegment(Point(2.0, -10.0), Point(2.0, -10.0)))


def test_empty_strip_queries_are_false():
    t = subpath_hull.build([Point(0.0, 0.0), Point(1.0, 5.0)])
    assert not t.any_point_above(QuerySegment(Point(2.0, -99.0), Point(9.0, -99.0)))


@given(st.data())
def test_matches_linear_scan(data):
    n = data.draw(st.integers(1, 60))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    pts = sorted({Point(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)})
    tree = subpath_hull.build(pts)
    checked = 0
    for _ in range(6):
        x0, x1 = sorted((rng.uniform(-60, 60), rng.uniform(-60, 60)))
        if not x0 < x1:
            continue
        seg = QuerySegment(
            Point(x0, rng.uniform(-60, 60)), Point(x1, rng.uniform(-60, 60))
        )
        want = naive_above(pts, seg)
        if want is None:
            continue
        assert tree.any_point_above(seg) == want
        checked += 1
    assume(checked > 0)


def test_matches_linear_scan_bulk():
    rng = random.Random(47)
    pts = sorted({Point(rng.uniform(-500, 500), rng.uniform(-500, 500)) for _ in range(500)})
    tree = subpath_hull.build(pts)
    mismatches = 0
    checked = 0
    for _ in range(300):
        x0, x1 = sorted((rng.uniform(-550, 550), rng.uniform(-550, 550)))
        seg = QuerySegment(
            Point(x0, rng.uniform(-600, 600)), Point(x1, rng.uniform(-600, 600))
        )
        want = naive_above(pts, seg)
        if want is None:
            continue
        checked += 1
        if tree.any_point_above(seg) != want:
            mismatches += 1
    assert checked > 250 and mismatches == 0


def _sky_queries(rng, pts, count):
    """Segments above every point, so each query visits all its covering
    nodes; spans are random, each covers at least one point."""
    top = max(p.y for p in pts) + 1.0
    out = []
    for _ in range(count):
        i, j = sorted(rng.sample(range(len(pts)), 2))
        end = Point(pts[j].x + 1e-9, top + rng.uniform(-1.0, 1.0))
        out.append(QuerySegment(Point(pts[i].x - 1e-9, top), end))
    return out


def test_tree_size_stays_log_linear():
    rng = random.Random(53)
    n = 4096
    pts = sorted({Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)) for _ in range(n)})
    tree = subpath_hull.build(pts)
    assert not tree._nodes
    for seg in _sky_queries(rng, pts, 3000):
        assert not tree.any_point_above(seg)
    bound = 4 * len(pts) * (math.log2(len(pts)) + 2)
    assert len(tree._nodes) > 500
    assert sum(len(h) for h, _ in tree._nodes.values()) <= bound


def _leaf_ranges(node, lo, hi):
    """Node id -> the leaf range [lo, hi) it covers, as the queries split it."""
    out = {node: (lo, hi)}
    if hi - lo > subpath_hull._LEAF_SIZE:
        mid = (lo + hi) // 2
        out.update(_leaf_ranges(2 * node, lo, mid))
        out.update(_leaf_ranges(2 * node + 1, mid, hi))
    return out


def test_narrow_query_builds_only_nodes_inside_its_range():
    # a node's hull is merged from its children's, so a query caches the
    # nodes below its covering ones too, but none outside [ql, qr)
    rng = random.Random(59)
    n = 1 << 12
    pts = sorted({Point(float(i), rng.uniform(-1.0, 1.0)) for i in range(n)})
    tree = subpath_hull.build(pts)
    assert not tree.any_point_above(QuerySegment(Point(1000.5, 2.0), Point(1300.5, 2.0)))
    ql, qr = 1001, 1301  # the points sit at x = i
    ranges = _leaf_ranges(1, 0, n)
    assert all(ql <= ranges[node][0] and ranges[node][1] <= qr for node in tree._nodes)
    leaf = subpath_hull._LEAF_SIZE
    assert 0 < len(tree._nodes) <= 2 * math.ceil((qr - ql) / leaf) + 2 * math.log2(n)


def _exactly_above(points, seg):
    """Exact-rational scan: some point strictly inside the strip lies
    strictly above the line through seg.end with the float slope."""
    ex, ey, slope = Fraction(seg.end.x), Fraction(seg.end.y), Fraction(seg.slope)
    return any(
        Fraction(q.y) - ey > slope * (Fraction(q.x) - ex)
        for q in points
        if seg.start.x < q.x < seg.end.x
    )


def test_tiny_cluster_beside_a_unit_point_matches_an_exact_scan():
    # 40 points 2^-540..2^-900 across: their hull turn products underflow,
    # so only scale-safe turns keep every hull vertex
    rng = random.Random(67)
    mismatches = 0
    for _ in range(50):
        s = 2.0 ** -rng.randint(540, 900)
        pts = sorted({Point(s * rng.random(), s * rng.random()) for _ in range(40)})
        pts.append(Point(1.0, 1.0))
        tree = subpath_hull.build(pts)
        for _ in range(200):
            x0, x1 = sorted(s * rng.uniform(-0.1, 1.1) for _ in range(2))
            seg = QuerySegment(Point(x0, s * rng.random()), Point(x1, s * rng.random()))
            mismatches += tree.any_point_above(seg) != _exactly_above(pts, seg)
    assert mismatches == 0


def test_answers_do_not_depend_on_query_order():
    rng = random.Random(61)
    pts = sorted({Point(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(2000)})
    queries = [
        QuerySegment(Point(x0, rng.uniform(-120, 120)), Point(x1, rng.uniform(-120, 120)))
        for x0, x1 in (sorted((rng.uniform(-110, 110), rng.uniform(-110, 110))) for _ in range(400))
    ]
    queries += _sky_queries(rng, pts, 100)
    in_order = subpath_hull.build(pts)
    want = [in_order.any_point_above(q) for q in queries]
    # one fresh tree per query: nothing cached from any other query
    assert want == [subpath_hull.build(pts).any_point_above(q) for q in queries]
    shuffled = list(range(len(queries)))
    rng.shuffle(shuffled)
    tree = subpath_hull.build(pts)
    got = {i: tree.any_point_above(queries[i]) for i in shuffled}
    assert [got[i] for i in range(len(queries))] == want
    assert 0 < sum(want) < len(want)
