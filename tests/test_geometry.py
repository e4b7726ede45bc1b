"""Hull chains, metric closures, common tangents and exposure segments."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from highwayhull.geometry import (
    QuerySegment,
    closure_hull,
    common_tangent,
    exposed_boundary_segments,
    left_edge_tangent,
    lower_hull,
    right_edge_tangent,
    upper_hull,
)
from highwayhull.metric import (
    INF,
    DiscriminatingCurve,
    InvalidInputError,
    MetricParams,
    Point,
    disc_curve_y,
)

SQ3 = math.sqrt(3.0)
TANGENCY_TOL = 1e-7
SUPPORT_TOL = 1e-9

CURVED = [
    MetricParams.make(p, v)
    for p in (1.3, 2.0, 3.0, 7.0)
    for v in (1.1, 2.0, 5.0, 100.0)
]

int_points = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=40
)


# -- hull chains -----------------------------------------------------------------

def test_hull_chains_small_example():
    pts = [Point(0, 0), Point(1, 2), Point(2, 1), Point(3, 3), Point(4, 0)]
    assert list(upper_hull(pts)) == [Point(0, 0), Point(1, 2), Point(3, 3), Point(4, 0)]
    assert list(lower_hull(pts)) == [Point(0, 0), Point(4, 0)]


def test_hull_chains_collapse_x_ties():
    pts = [Point(0, 0), Point(0, 2), Point(1, 1)]
    assert list(upper_hull(pts)) == [Point(0, 2), Point(1, 1)]
    assert list(lower_hull(pts)) == [Point(0, 0), Point(1, 1)]


def test_hull_rejects_unsorted_input():
    with pytest.raises(InvalidInputError):
        upper_hull([Point(1, 0), Point(0, 0)])


@given(int_points)
def test_upper_hull_bounds_every_point(raw):
    pts = sorted({Point(float(x), float(y)) for x, y in raw})
    up = list(upper_hull(pts))
    assert up[0].x == pts[0].x and up[-1].x == pts[-1].x
    for a, b, c in zip(up, up[1:], up[2:]):
        assert (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x) <= 0.0
    for q in pts:
        assert q.y <= helpers.chain_y(up, q.x) + 1e-9


@given(int_points)
def test_lower_hull_mirrors_upper(raw):
    pts = sorted({Point(float(x), float(y)) for x, y in raw})
    lo = list(lower_hull(pts))
    flipped = sorted(Point(q.x, -q.y) for q in pts)
    assert [Point(q.x, -q.y) for q in lo] == list(upper_hull(flipped))


# -- metric closures ---------------------------------------------------------------

def test_closure_shapes_by_metric():
    pts = [Point(0.0, 0.0), Point(2.0, 1.0), Point(1.0, 3.0)]
    c2 = closure_hull(pts, MetricParams.make(2.0, 2.0))
    assert c2.kind == "convex" and c2.corner_generators == ()
    assert list(c2.upper) == [Point(0.0, 0.0), Point(1.0, 3.0), Point(2.0, 1.0)]
    assert list(c2.lower) == [Point(0.0, 0.0), Point(2.0, 1.0)]

    c1 = closure_hull(pts, MetricParams.make(1.0, 2.0))
    assert c1.kind == "axis_box"
    assert list(c1.upper) == [Point(0.0, 3.0), Point(2.0, 3.0)]
    assert list(c1.lower) == [Point(0.0, 0.0), Point(2.0, 0.0)]
    assert c1.corner_generators == (
        Point(0.0, 3.0),
        Point(2.0, 0.0),
        Point(2.0, 3.0),
    )

    ci = closure_hull([Point(0.0, 0.0), Point(2.0, 0.0)], MetricParams.make(INF, 2.0))
    assert ci.kind == "diamond_box"
    assert list(ci.upper) == [Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 0.0)]
    assert list(ci.lower) == [Point(0.0, 0.0), Point(1.0, -1.0), Point(2.0, 0.0)]
    assert ci.corner_generators == (Point(1.0, -1.0), Point(1.0, 1.0))


# (upper, lower, corner_generators) of boxes that collapse to a point, a
# segment of either axis or a segment of slope +-1
DEGENERATE_BOXES = {
    (1.0, "one"): ([(3, 2)], [(3, 2)], []),
    (1.0, "horizontal"): ([(1, 2), (4, 2)], [(1, 2), (4, 2)], []),
    (1.0, "vertical"): ([(1, 3)], [(1, 1)], []),
    (1.0, "slope_plus"): ([(1, 3), (3, 3)], [(1, 1), (3, 1)], [(1, 3), (3, 1)]),
    (1.0, "slope_minus"): ([(1, 3), (3, 3)], [(1, 1), (3, 1)], [(1, 1), (3, 3)]),
    (INF, "one"): ([(3, 2)], [(3, 2)], []),
    (INF, "horizontal"): (
        [(1, 2), (2.5, 3.5), (4, 2)], [(1, 2), (2.5, 0.5), (4, 2)], [(2.5, 0.5), (2.5, 3.5)]
    ),
    (INF, "vertical"): ([(0, 2), (1, 3), (2, 2)], [(0, 2), (1, 1), (2, 2)], [(0, 2), (2, 2)]),
    (INF, "slope_plus"): ([(1, 1), (3, 3)], [(1, 1), (3, 3)], []),
    (INF, "slope_minus"): ([(1, 3), (3, 1)], [(1, 3), (3, 1)], []),
}
DEGENERATE_MEMBERS = {
    "one": [(3, 2)],
    "horizontal": [(1, 2), (4, 2)],
    "vertical": [(1, 1), (1, 3)],
    "slope_plus": [(1, 1), (3, 3)],
    "slope_minus": [(1, 3), (3, 1)],
}


@pytest.mark.parametrize("p, shape", sorted(DEGENERATE_BOXES))
def test_degenerate_box_closures(p, shape):
    h = closure_hull([Point(float(x), float(y)) for x, y in DEGENERATE_MEMBERS[shape]],
                     MetricParams.make(p, 2.0))
    upper, lower, corners = DEGENERATE_BOXES[p, shape]
    assert list(h.upper) == [Point(*v) for v in upper]
    assert list(h.lower) == [Point(*v) for v in lower]
    assert h.corner_generators == tuple(Point(*v) for v in corners)


def test_closure_rejects_straddling_members():
    with pytest.raises(InvalidInputError):
        closure_hull([Point(0.0, 1.0), Point(1.0, -1.0)], MetricParams.make(2.0, 2.0))
    with pytest.raises(InvalidInputError):
        closure_hull([], MetricParams.make(2.0, 2.0))


def test_closure_idempotent_on_own_boundary():
    rng = random.Random(31)
    for m in (MetricParams.make(2.0, 2.0), MetricParams.make(1.0, 5.0)):
        members = sorted(
            {Point(rng.uniform(-9, 9), rng.uniform(0, 6)) for _ in range(12)}
        )
        h = closure_hull(members, m)
        boundary = sorted(
            set(h.upper.vertices) | set(h.lower.vertices) | set(h.corner_generators)
        )
        again = closure_hull(boundary, m)
        assert list(again.upper) == list(h.upper)
        assert list(again.lower) == list(h.lower)


# -- common tangents ------------------------------------------------------------

def test_common_tangent_reference_value():
    # symbolic elimination of the two-curve tangency system for this pair
    # gives slope = intercept = sqrt(3) - 2
    m = MetricParams.make(2.0, 2.0)
    seg = common_tangent(
        DiscriminatingCurve(Point(0.0, 1.0), "left", m),
        DiscriminatingCurve(Point(4.0, 5.0), "left", m),
    )
    ref = SQ3 - 2.0
    assert abs(seg.slope - ref) < 1e-9
    assert abs(seg.y_at(0.0) - ref) < 1e-9


def test_common_tangent_degenerate_cases():
    m = MetricParams.make(2.0, 2.0)
    same = common_tangent(
        DiscriminatingCurve(Point(1.0, 2.0), "left", m),
        DiscriminatingCurve(Point(1.0, 2.0), "left", m),
    )
    assert same.start == same.end
    assert abs(same.start.x - (1.0 - 2.0 / SQ3)) < 1e-12 and same.start.y == 0.0
    level = common_tangent(
        DiscriminatingCurve(Point(0.0, 2.0), "left", m),
        DiscriminatingCurve(Point(5.0, 2.0), "left", m),
    )
    assert level.start.y == 0.0 and level.end.y == 0.0
    assert abs(level.start.x - (0.0 - 2.0 / SQ3)) < 1e-12
    assert abs(level.end.x - (5.0 - 2.0 / SQ3)) < 1e-12


def test_common_tangent_rejects_box_metrics_and_bad_sides():
    m1 = MetricParams.make(1.0, 2.0)
    with pytest.raises(InvalidInputError):
        common_tangent(
            DiscriminatingCurve(Point(0.0, 1.0), "left", m1),
            DiscriminatingCurve(Point(4.0, 5.0), "left", m1),
        )
    m = MetricParams.make(2.0, 2.0)
    with pytest.raises(InvalidInputError):
        common_tangent(
            DiscriminatingCurve(Point(0.0, 1.0), "right", m),
            DiscriminatingCurve(Point(4.0, 5.0), "left", m),
        )


def _rising_edge(m, rng):
    a = Point(rng.uniform(-5.0, 5.0), rng.uniform(0.2, 2.0))
    dy = rng.uniform(0.3, 4.0)
    dx = dy * m.tan_alpha + rng.uniform(0.1, 6.0)
    return a, Point(a.x + dx, a.y + dy)


def test_tangency_points_lie_on_their_curves():
    rng = random.Random(37)
    for m in CURVED:
        for _ in range(3):
            a, b = _rising_edge(m, rng)
            seg = common_tangent(
                DiscriminatingCurve(a, "left", m), DiscriminatingCurve(b, "left", m)
            )
            on_b = disc_curve_y(DiscriminatingCurve(b, "left", m), seg.start.x)
            on_a = disc_curve_y(DiscriminatingCurve(a, "left", m), seg.end.x)
            assert abs(on_b - seg.start.y) < TANGENCY_TOL * (1.0 + abs(seg.start.y))
            assert abs(on_a - seg.end.y) < TANGENCY_TOL * (1.0 + abs(seg.end.y))


def test_tangent_supports_both_curves_from_below():
    rng = random.Random(41)
    for m in CURVED[:8]:
        a, b = _rising_edge(m, rng)
        ca = DiscriminatingCurve(a, "left", m)
        cb = DiscriminatingCurve(b, "left", m)
        seg = common_tangent(ca, cb)
        for i in range(1, 20):
            x = seg.start.x + (seg.end.x - seg.start.x) * i / 20.0
            line = seg.y_at(x)
            for c in (ca, cb):
                if x <= c.generator.x - abs(c.generator.y) * m.tan_alpha:
                    y = disc_curve_y(c, x)
                    if y is not None:
                        assert y >= line - SUPPORT_TOL * (1.0 + abs(line))


def test_edge_tangent_nesting_threshold():
    m = MetricParams.make(2.0, 2.0)
    a = Point(0.0, 1.0)
    dy = 2.0
    cut = dy * m.tan_alpha
    assert left_edge_tangent(a, Point(a.x + cut, a.y + dy), m) is None
    assert left_edge_tangent(a, Point(a.x + cut - 1e-9, a.y + dy), m) is None
    assert left_edge_tangent(a, Point(a.x + cut + 0.5, a.y + dy), m) is not None


def test_right_tangency_points_lie_on_right_curves():
    rng = random.Random(43)
    for m in CURVED[:8]:
        dy = rng.uniform(0.3, 3.0)
        dx = dy * m.tan_alpha + rng.uniform(0.2, 5.0)
        hi = Point(1.0, 0.5 + dy)
        lo = Point(1.0 + dx, 0.5)
        t_lo, t_hi, slope = right_edge_tangent(hi, lo, m)
        assert slope > 0.0 and t_lo.y < t_hi.y and t_lo.x < t_hi.x
        on_hi = disc_curve_y(DiscriminatingCurve(hi, "right", m), t_hi.x)
        on_lo = disc_curve_y(DiscriminatingCurve(lo, "right", m), t_lo.x)
        assert abs(on_hi - t_hi.y) < TANGENCY_TOL * (1.0 + t_hi.y)
        assert abs(on_lo - t_lo.y) < TANGENCY_TOL * (1.0 + t_lo.y)


# -- query segments ----------------------------------------------------------------

def test_query_segment_validation():
    with pytest.raises(InvalidInputError):
        QuerySegment(Point(1.0, 0.0), Point(0.0, 0.0))
    degenerate = QuerySegment(Point(1.0, 1.0), Point(1.0, 1.0))
    assert degenerate.slope == 0.0
    seg = QuerySegment(Point(0.0, 1.0), Point(2.0, 3.0))
    assert seg.slope == 1.0 and seg.y_at(1.0) == 2.0


# -- exposure segments ---------------------------------------------------------------

def test_exposure_box_corner_l1():
    m = MetricParams.make(1.0, 2.0)
    segs = exposed_boundary_segments((Point(2.0, 3.0), Point(2.0, 3.0)), m, x_cap=5.0)
    assert [(s.start, s.end) for s in segs] == [
        (Point(-10.0, 3.0), Point(2.0, 0.0)),
        (Point(-10.0, 3.0), Point(2.0, 3.0)),
    ]
    clipped = exposed_boundary_segments(
        (Point(2.0, 3.0), Point(2.0, 3.0)), m, x_cap=0.0
    )
    assert clipped[0].end == Point(0.0, 0.5)
    assert exposed_boundary_segments((Point(2.0, 0.0), Point(2.0, 0.0)), m, 5.0) == []
    with pytest.raises(InvalidInputError):
        exposed_boundary_segments((Point(0.0, 1.0), Point(1.0, 2.0)), m, 5.0)


def test_exposure_box_corner_linf():
    m = MetricParams.make(INF, 2.0)
    corner = (Point(2.0, 3.0), Point(2.0, 3.0))
    (seg,) = exposed_boundary_segments(corner, m, x_cap=10.0, x_floor=-6.0)
    assert seg.start == Point(-6.0, 5.0) and seg.end == Point(2.0, -3.0)
    assert exposed_boundary_segments(corner, m, x_cap=-7.0, x_floor=-6.0) == []
    with pytest.raises(InvalidInputError):
        exposed_boundary_segments(corner, m, x_cap=10.0)


def test_exposure_convex_edge_matches_common_tangent():
    m = MetricParams.make(2.0, 2.0)
    a, b = Point(0.0, 1.0), Point(4.0, 5.0)
    ref = common_tangent(
        DiscriminatingCurve(a, "left", m), DiscriminatingCurve(b, "left", m)
    )
    (seg,) = exposed_boundary_segments((a, b), m, x_cap=100.0)
    assert abs(seg.start.x - ref.start.x) < 1e-12
    assert abs(seg.end.x - ref.end.x) < 1e-12
    mid = 0.5 * (ref.start.x + ref.end.x)
    (cut,) = exposed_boundary_segments((a, b), m, x_cap=mid)
    assert cut.end.x == mid
    assert abs(cut.end.y - ref.y_at(mid)) < 1e-9
    assert exposed_boundary_segments((a, b), m, x_cap=ref.start.x - 1.0) == []


def test_exposure_skips_flat_nested_and_degenerate_edges():
    m = MetricParams.make(2.0, 2.0)
    assert exposed_boundary_segments((Point(0, 1), Point(0, 1)), m, 10.0) == []
    assert exposed_boundary_segments((Point(0, 5), Point(4, 1)), m, 10.0) == []
    assert exposed_boundary_segments((Point(0, 1), Point(4, 1)), m, 10.0) == []
    nested = (Point(0.0, 1.0), Point(0.1, 5.0))
    assert exposed_boundary_segments(nested, m, 10.0) == []
