"""Hull chains, metric closures, edge tangents and exposure segments."""

import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from highwayhull import geometry, metric
from highwayhull.geometry import (
    QuerySegment,
    closure_hull,
    exposed_boundary_segments,
    left_edge_tangent,
    lower_hull,
    right_edge_tangent,
    upper_hull,
)
from highwayhull.metric import (
    FLOAT_EPS,
    INF,
    DiscriminatingCurve,
    InvalidInputError,
    MetricParams,
    NumericError,
    Point,
    disc_curve_y,
    lp_distance,
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


def test_turn_sign_is_the_unit_scale_sign_at_every_scale():
    # triples 2^-540 to 2^-900 across, where the turn products underflow,
    # 2^560 across, where they overflow, and with the abscissae and the
    # ordinates scaled apart; the integer triples include collinear ones
    def sign(t):
        return (t > 0.0) - (t < 0.0)

    rng = random.Random(37)
    scales = [(k, k) for k in range(-540, -901, -40)] + [(560, 560), (0, -1000), (-1000, 0), (500, -500)]
    for i in range(400):
        if i % 2:
            tri = [Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
        else:
            tri = [Point(rng.randint(-3, 3) / 4.0, rng.randint(-3, 3) / 4.0) for _ in range(3)]
        want = sign(geometry._cross(*tri))
        for kx, ky in scales:
            scaled = [Point(math.ldexp(q.x, kx), math.ldexp(q.y, ky)) for q in tri]
            assert sign(geometry._cross(*scaled)) == want, (tri, kx, ky)


def _reference_push(chain, q, upper, cross):
    """push_upper / push_lower with every turn a call of `cross`."""
    if chain and chain[-1].x == q.x:
        if (q.y <= chain[-1].y) if upper else (q.y >= chain[-1].y):
            return
        chain.pop()
    while len(chain) >= 2:
        t = cross(chain[-2], chain[-1], q)
        if not (t >= 0.0 if upper else t <= 0.0):
            break
        chain.pop()
    chain.append(q)


def test_chain_steps_pop_as_cross_decides(monkeypatch):
    # push_upper / push_lower compute the float turn inline and call _cross
    # only outside its exact range; folds of near-collinear runs, clusters
    # 2^-600 across beside a unit point (turns below _TURN_FLOOR),
    # coordinates near 2^1000 (turns that overflow) and +-0 with x ties
    # must keep the chains that a _cross-per-turn fold keeps, to the bit
    rng = random.Random(25)

    def near_collinear():
        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
        pts = []
        for _ in range(rng.randint(3, 40)):
            x = rng.uniform(-4.0, 4.0)
            y = a * x + b
            pts.append(Point(x, rng.choice((y, math.nextafter(y, INF), math.nextafter(y, -INF)))))
        return pts

    def tiny():
        s = 2.0**-600
        return [Point(-1.0, 1.0)] + [Point(s * rng.uniform(0, 50), s * rng.uniform(-3, 3))
                                     for _ in range(rng.randint(4, 40))]

    def huge():
        s = 2.0**1000
        return [Point(s * rng.uniform(-1.0, 1.0), s * rng.uniform(-1.0, 1.0))
                for _ in range(rng.randint(3, 40))]

    def zeros():
        return [Point(rng.choice((-0.0, 0.0, 0.5, 1.0)), rng.choice((-0.0, 0.0, 0.5, -1.0)))
                for _ in range(rng.randint(2, 12))]

    cross = geometry._cross
    rescaled = Counter()
    for family in (near_collinear, tiny, huge, zeros):
        def counted_cross(*args):
            rescaled[family.__name__] += 1
            return cross(*args)

        monkeypatch.setattr(geometry, "_cross", counted_cross)
        for _ in range(200):
            pts = sorted(family(), key=lambda q: (q.x, q.y))
            for upper, push in ((True, geometry.push_upper), (False, geometry.push_lower)):
                got, want = [], []
                for q in pts:
                    push(got, q)
                    _reference_push(want, q, upper, cross)
                    assert [(v.x.hex(), v.y.hex()) for v in got] == \
                        [(v.x.hex(), v.y.hex()) for v in want], (family.__name__, pts)
    # the tiny and huge folds reach _cross's rescaled turns
    assert rescaled["tiny"] > 100 and rescaled["huge"] > 100, rescaled


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


def test_diamond_closure_near_the_float_maximum():
    # x + y overflows for these members, but their closures are
    # representable: the same corners as at 2^-1000 scale, scaled back
    m = MetricParams.make(INF, 2.0)
    h = closure_hull([Point(1.7e308, 1e308)], m)
    assert list(h.upper) == list(h.lower) == [Point(1.7e308, 1e308)] and h.corner_generators == ()
    pts = [Point(1e308, 0.5e308), Point(1.2e308, 0.6e308), Point(1.1e308, 0.3e308)]
    s = 2.0**-1000
    big, small = closure_hull(pts, m), closure_hull([Point(s * x, s * y) for x, y in pts], m)
    assert len(big.corner_generators) == 4
    for vs, ws in ((big.upper, small.upper), (big.lower, small.lower),
                   (big.corner_generators, small.corner_generators)):
        assert list(vs) == [Point(x / s, y / s) for x, y in ws]
    # an apex above the largest float is not
    with pytest.raises(NumericError, match="overflows the float range"):
        closure_hull([Point(1e308, 1e308), Point(-1e308, 1.5e308)], m)


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
    (seg,) = exposed_boundary_segments((Point(0.0, 1.0), Point(4.0, 5.0)), m, x_cap=INF)
    ref = SQ3 - 2.0
    assert abs(seg.slope - ref) < 1e-9
    assert abs(seg.y_at(0.0) - ref) < 1e-9


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
            (seg,) = exposed_boundary_segments((a, b), m, x_cap=INF)
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
        (seg,) = exposed_boundary_segments((a, b), m, x_cap=INF)
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


def _ordinate_slack(m, x, y):
    """Float uncertainty of the unit curve's ordinate near (x, y): the
    rounding of direct - highway over its y-derivative.  That derivative
    vanishes toward the asymptote; below 1e-8 it is itself mostly rounding
    and the float curve does not fix its ordinate (INF)."""
    d = lp_distance(Point(0.0, 1.0), Point(x, y), m.p)
    kappa = m.descent_cost - m.tan_alpha * m.inv_v
    fy = math.copysign((abs(y - 1.0) / d) ** (m.p - 1.0), y - 1.0) - kappa
    if abs(fy) < 1e-8:
        return INF
    return 64.0 * FLOAT_EPS * (d + (1.0 + y) * kappa + abs(x) * m.inv_v) / abs(fy)


@pytest.mark.parametrize("p", [1.05, 1.3, 2.0, 3.0, 7.0, 50.0])
@pytest.mark.parametrize("v", [1.01, 1.1, 2.0, 5.0, INF])
def test_unit_tangency_touches_the_curve_through_the_pivot(p, v):
    # pivots from 1e-6 to 1e8 left of the unit entry; the curve's ordinates
    # come from the bracketed solver, checked to 1e-9 relative plus their
    # own float uncertainty wherever that solver answers and the float
    # curve fixes the ordinate
    m = MetricParams.make(p, v)
    entry = -m.tan_alpha
    touched = 0
    for k in range(-6, 9):
        pivot = entry - 10.0**k
        xr, yr, s = geometry._unit_tangency(m, pivot)
        assert xr < pivot and yr >= 0.0 and s <= 0.0
        assert abs(yr - s * (xr - pivot)) <= 1e-12 * max(1.0, abs(xr), abs(yr))
        for f in (1.0, 1e-3, 0.1, 0.5, 0.9, 1.1, 2.0, 10.0):
            x = xr if f == 1.0 else entry + (xr - entry) * f
            try:
                y = metric._curve_generic(-x, 1.0, m)  # the left curve of (0, 1)
            except NumericError:
                continue
            if y is None:
                continue
            slack = 1e-9 * max(1.0, abs(x), abs(y)) + _ordinate_slack(m, x, y)
            if slack == INF:
                continue
            line = yr + s * (x - xr)
            if f == 1.0:
                assert abs(y - yr) <= slack, (k, x, y, yr)
                touched += 1
            else:
                assert y >= line - slack, (k, x, y, line)
    assert touched >= 5


@pytest.mark.parametrize("p", [1.05, 1.3, 2.0, 7.0, 50.0])
@pytest.mark.parametrize("v", [1.01, 2.0, INF])
def test_unit_tangency_next_to_the_entry_stays_at_the_entry(p, v):
    # a pivot a few ulps left of the entry: the tangent is the highway to
    # float resolution, or exactly when the solve cannot part the two
    m = MetricParams.make(p, v)
    entry = -m.tan_alpha
    pivot = entry
    for _ in range(3):
        pivot = math.nextafter(pivot, -INF)
        xr, yr, s = geometry._unit_tangency(m, pivot)
        assert xr <= entry and 0.0 <= yr <= 1e-12 and -1e-12 <= s <= 0.0
        assert abs(yr - s * (xr - pivot)) <= 1e-12


P2_SPEEDS = [1.0 + 1e-7, 1.01, 1.1, 2.0, 5.0, 1e3, INF]


@pytest.mark.parametrize("v", P2_SPEEDS)
def test_p2_unit_tangency_lies_on_the_parabola_through_the_pivot(v):
    # the closed form's float outputs, checked exactly: on the unit curve
    # x^2 + (y - 1)^2 = (kappa (1 + y) - x / v)^2 to 1e-12 relative, on a
    # line through the pivot (to 1e-12 relative plus the rounding of the
    # abscissae), falling to the left; pivots from an ulp to 1e150 left of
    # the entry
    m = MetricParams.make(2.0, v)
    entry = -m.tan_alpha
    s = Fraction(m.inv_v)
    kappa = Fraction(math.sqrt((1 - s) * (1 + s)))
    pivots = [math.nextafter(entry, -INF)]
    pivots += [entry - 10.0**k for k in range(-12, 151, 2) if entry - 10.0**k < entry]
    for pivot in pivots:
        xr, yr, sl = geometry._unit_tangency(m, pivot)
        assert sl <= 0.0
        x, y, slope = Fraction(xr), Fraction(yr), Fraction(sl)
        lhs = x * x + (y - 1) ** 2
        rhs = (kappa * (1 + y) - x * s) ** 2
        assert abs(lhs - rhs) <= Fraction(1e-12) * max(lhs, rhs), (pivot, xr, yr)
        line = slope * (x - Fraction(pivot))
        slack = Fraction(1e-12) * y + abs(slope) * Fraction(4.0 * FLOAT_EPS * max(-xr, -pivot))
        slack += Fraction(2.0**-1074)  # eta underflows at a subnormal pivot
        assert abs(line - y) <= slack, (pivot, yr, sl)


def test_p2_cos_alpha_is_within_an_ulp():
    # sqrt(1 - 1/v^2) at the float v, in 60-digit decimal; the product
    # (1 - s)(1 + s) with s = 1/v rounded was 329,647 ulps off at v = 1 + 1e-7
    speeds = [1.0 + 10.0**-k for k in range(1, 8)] + [2.0, 5.0, 1e3, 1e10, 1e100, 1e200, 1.7e308]
    with localcontext() as ctx:
        ctx.prec = 60
        for v in speeds:
            c = geometry._p2_cos_alpha(v)
            want = (1 - 1 / Decimal(v) ** 2).sqrt()
            assert abs(Decimal(c) - want) <= Decimal(math.ulp(c)), v
    assert geometry._p2_cos_alpha(INF) == 1.0


@pytest.mark.parametrize("v", P2_SPEEDS)
def test_p2_unit_tangency_beyond_float_range_is_a_numeric_error(v):
    m = MetricParams.make(2.0, v)
    for pivot in (-1e160, -1e300, -1.7e308):
        with pytest.raises(NumericError, match="tangency beyond float range"):
            geometry._unit_tangency(m, pivot)


def test_unit_tangency_touches_the_corner_of_a_near_l1_curve():
    # at p = 1 + 1e-7 alpha underflows and, to float precision, the unit
    # curve is the L1 one: the ray y = |x| / 6 (v = 1.5) from the entry
    # (0, 0) to the corner (-6, 1), then a vertical wall; pivots between
    # the corner's supporting lines touch the corner
    m = MetricParams.make(1.0 + 1e-7, 1.5)
    for pivot in (-0.5, -3.9, -5.9):
        xr, yr, s = geometry._unit_tangency(m, pivot)
        assert abs(xr + 6.0) <= 1e-9 and yr == 1.0
        assert abs(yr - s * (xr - pivot)) <= 1e-12


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
    # the wedge alone: the cap y > 3 over the same x-range lies above its line
    segs = exposed_boundary_segments((Point(2.0, 3.0), Point(2.0, 3.0)), m, x_cap=5.0)
    assert [(s.start, s.end) for s in segs] == [(Point(-10.0, 3.0), Point(2.0, 0.0))]
    clipped = exposed_boundary_segments(
        (Point(2.0, 3.0), Point(2.0, 3.0)), m, x_cap=0.0
    )
    assert clipped[0].end == Point(0.0, 0.5)
    assert exposed_boundary_segments((Point(2.0, 0.0), Point(2.0, 0.0)), m, 5.0) == []
    with pytest.raises(InvalidInputError):
        exposed_boundary_segments((Point(0.0, 1.0), Point(1.0, 2.0)), m, 5.0)


def test_exposure_box_corner_linf():
    # p = inf exposure is the builder's gap test against a prefix maximum of
    # x + y, with no query segments
    m = MetricParams.make(INF, 2.0)
    corner = (Point(2.0, 3.0), Point(2.0, 3.0))
    with pytest.raises(InvalidInputError):
        exposed_boundary_segments(corner, m, x_cap=10.0)


def test_exposure_convex_edge_matches_common_tangent():
    m = MetricParams.make(2.0, 2.0)
    a, b = Point(0.0, 1.0), Point(4.0, 5.0)
    start, end, _ = left_edge_tangent(a, b, m)
    ref = QuerySegment(start, end)
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
