"""Angles, distances, walking regions, curves and wavefronts."""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from highwayhull import metric
from highwayhull.metric import (
    INF,
    DiscriminatingCurve,
    InvalidInputError,
    MetricParams,
    Point,
    alpha,
    disc_curve_y,
    entry_points,
    highway_time,
    in_walking_region,
    lp_distance,
    polyline_time,
    reach_coefficient,
    reach_slack,
    shortest_path,
    time_distance,
    wavefront,
    y0_solver,
)

SQ3 = math.sqrt(3.0)
TOL = 1e-12
CURVE_TOL = 1e-9

P_ALL = (1.0, 1.3, 2.0, 3.0, 7.0, INF)
V_ALL = (1.1, 2.0, 5.0, 100.0, INF)
PARAMS = [MetricParams.make(p, v) for p in P_ALL for v in V_ALL]

params_st = st.sampled_from(PARAMS)
coord = st.floats(-100.0, 100.0)
point_st = st.builds(Point, coord, coord)


# -- incidence angle and derived constants ------------------------------------

def test_angle_special_cases():
    assert abs(alpha(2.0, 2.0) - math.pi / 6) < TOL
    assert alpha(INF, 1.5) == math.pi / 4
    assert alpha(1.0, 7.0) == 0.0
    assert alpha(3.0, INF) == 0.0


def test_angle_rejects_bad_parameters():
    for p, v in ((0.9, 2.0), (2.0, 1.0), (2.0, 0.5)):
        with pytest.raises(InvalidInputError):
            alpha(p, v)


def test_regime_is_decided_once_by_make():
    cases = {
        (1.0, 7.0): ("axis_box", True),
        (INF, 1.5): ("diamond_box", False),
        (3.0, INF): ("convex", True),
        (2.0, 2.0): ("convex", False),
        # alpha underflows to 0 although v is finite
        (1.0 + 1e-7, 2.0): ("convex", True),
    }
    for (p, v), (kind, vertical) in cases.items():
        m = MetricParams.make(p, v)
        assert (m.closure_kind, m.vertical_descent) == (kind, vertical), (p, v)
        assert m.inv_v == 1.0 / v
        assert alpha(p, v) == m.alpha


def test_derived_constants_euclidean_speed_two():
    m = MetricParams.make(2.0, 2.0)
    assert abs(m.tan_alpha - 1.0 / SQ3) < TOL
    assert abs(m.descent_cost - 2.0 / SQ3) < TOL
    assert abs(reach_coefficient(m) - SQ3) < TOL


def test_reach_slack_skips_only_pairs_the_predicate_rejects():
    # pairs at |dx| = k Y (1 +- delta) around the bare reach bound, same and
    # opposite side, at scales 1e-8..1e8 and offsets up to |x| ~ 1e8, each
    # pair scaled by a power of two into the unit frame (largest
    # |coordinate| in [1, 2)): every pair beyond the widened reach must fail
    # the float predicate, while the bare k Y bound is overstepped by
    # rounding at v -> 1
    rng = random.Random(11)
    skipped = bare_misses = 0
    for p in (1.0, 1.3, 2.0, 7.0, INF):
        for v in (1.0 + 1e-7, 1.0 + 1e-4, 1.1, 2.0, INF):
            m = MetricParams.make(p, v)
            k = reach_coefficient(m)
            kr, dr = reach_slack(m)
            for e in range(-8, 9):
                scale = 10.0**e
                for x0 in (0.0, scale, 1e8, -1e8):
                    for j in range(3, 13):
                        for sign in (1.0, -1.0):
                            ya = scale * rng.uniform(0.0, 1.0)
                            yb = scale * rng.uniform(0.001, 1.0) * rng.choice((1.0, 1.0, -1.0))
                            y = ya + abs(yb)
                            dx = rng.choice((-1.0, 1.0)) * k * y * (1.0 + sign * 10.0**-j)
                            a, b = Point(x0, ya), Point(x0 + dx, yb)
                            u = helpers.unit_scale((a, b))
                            a, b, y = Point(u * a.x, u * a.y), Point(u * b.x, u * b.y), u * y
                            walks = in_walking_region(a, b, m)
                            if abs(b.x - a.x) > kr * y + dr:
                                skipped += 1
                                assert not walks, (p, v, a, b)
                            elif abs(b.x - a.x) > k * y:
                                bare_misses += walks
    assert skipped > 5000 and bare_misses > 0


def test_tan_alpha_holds_full_precision_as_v_approaches_one():
    # t = v^(1/(1-p)) / (1 - v^(p/(1-p)))^(1/p) at the float p and v, in
    # 60-digit decimal; 1 - v^(p/(1-p)) cancels as v -> 1
    with localcontext() as ctx:
        ctx.prec = 60
        for p in (1.05, 1.3, 1.5, 2.0, 3.0, 7.0, 50.0):
            for v in (1.0 + 1e-7, 1.0 + 1e-4, 1.01, 1.1, 2.0):
                pd, vd = Decimal(p), Decimal(v)
                want = vd ** (1 / (1 - pd)) / (1 - vd ** (pd / (1 - pd))) ** (1 / pd)
                got = Decimal(MetricParams.make(p, v).tan_alpha)
                assert abs(got - want) <= Decimal(1e-15) * want, (p, v)


@given(params_st)
def test_tan_alpha_consistent_with_angle(m):
    if math.isinf(m.p):
        assert m.tan_alpha == 1.0
    else:
        assert abs(m.tan_alpha - math.tan(alpha(m.p, m.v))) < 1e-9 * (1 + m.tan_alpha)


# -- distances -----------------------------------------------------------------

def test_lp_distance_standard_exponents():
    a, b = Point(0.0, 0.0), Point(1.0, 2.0)
    assert lp_distance(a, b, 1.0) == 3.0
    assert abs(lp_distance(a, b, 2.0) - math.sqrt(5.0)) < TOL
    assert lp_distance(a, b, INF) == 2.0
    assert abs(lp_distance(a, b, 3.0) - 9.0 ** (1.0 / 3.0)) < TOL
    with pytest.raises(InvalidInputError):
        lp_distance(a, b, 0.5)


def test_highway_time_hand_checked_values():
    a, b = Point(0.0, 1.0), Point(10.0, 1.0)
    assert abs(highway_time(a, b, MetricParams.make(2.0, 2.0)) - (5.0 + SQ3)) < TOL
    assert abs(highway_time(a, b, MetricParams.make(1.0, 2.0)) - 7.0) < TOL
    assert abs(highway_time(a, b, MetricParams.make(INF, 2.0)) - 6.0) < TOL
    assert abs(highway_time(a, b, MetricParams.make(2.0, INF)) - 2.0) < TOL


def test_highway_time_undefined_when_entry_intervals_overlap():
    m = MetricParams.make(2.0, 2.0)
    assert highway_time(Point(0.0, 5.0), Point(1.0, 5.0), m) is None


@given(point_st, point_st, params_st)
def test_highway_time_symmetric(a, b, m):
    assert highway_time(a, b, m) == highway_time(b, a, m)


def test_entry_points_use_absolute_height():
    m = MetricParams.make(INF, 3.0)
    left, right = entry_points(Point(3.0, 2.0), m)
    assert left == Point(1.0, 0.0) and right == Point(5.0, 0.0)
    assert entry_points(Point(3.0, -2.0), m) == (left, right)


@given(point_st, point_st, params_st)
def test_time_distance_never_exceeds_walking(a, b, m):
    assert time_distance(a, b, m) <= lp_distance(a, b, m.p)


@given(point_st, point_st, params_st)
def test_time_distance_symmetry_exact(a, b, m):
    assert time_distance(a, b, m) == time_distance(b, a, m)


@given(point_st, point_st, point_st, params_st)
def test_time_distance_triangle_inequality(a, b, c, m):
    assert time_distance(a, b, m) <= (
        time_distance(a, c, m) + time_distance(c, b, m) + 1e-9
    )


# -- walking regions -----------------------------------------------------------

def test_region_membership_reference_cases():
    m = MetricParams.make(2.0, 2.0)
    # riding beats walking between distinct on-highway points
    assert not in_walking_region(Point(0.0, 0.0), Point(5.0, 0.0), m)
    assert in_walking_region(Point(3.0, 0.0), Point(3.0, 0.0), m)
    # overlapping entry intervals leave no along-highway route
    assert in_walking_region(Point(0.0, 5.0), Point(1.0, 5.0), m)


@given(point_st, point_st, params_st)
def test_region_membership_symmetric(q, u, m):
    assert in_walking_region(q, u, m) == in_walking_region(u, q, m)


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 1.0), params_st)
def test_entry_overlap_implies_membership(ya, yb, frac, m):
    # when the entry intervals touch, walking is never slower
    a = Point(0.0, ya)
    b = Point(frac * (ya + yb) * m.tan_alpha, yb)
    assert in_walking_region(a, b, m)


def test_region_boundary_orientation():
    m = MetricParams.make(2.0, 2.0)
    q = Point(0.0, 1.0)
    c = DiscriminatingCurve(q, "right", m)
    y = disc_curve_y(c, 2.0)
    assert in_walking_region(Point(2.0, y + 1e-6), q, m)
    assert not in_walking_region(Point(2.0, y - 1e-6), q, m)


def _box_predicate_pairs(rng, m):
    """(case, corner, arrival) pairs in the unit frame: box corners have
    |x| < 4, members |x| < 2."""
    def ulps(x, k):
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(INF, k))
        return x

    def unit():
        return Point(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0))

    def dyadic():  # exact ties between walking and riding
        return Point(rng.randint(-32, 32) / 8.0, rng.randint(-16, 16) / 8.0)

    for _ in range(400):
        yield "random", unit(), unit()
        yield "dyadic", dyadic(), dyadic()
        q = dyadic()
        # equal x, the corner above the arrival: the (x, |y|) swap
        yield "swapped", q, Point(q.x, rng.choice((0.0, -0.0, q.y / 2.0, rng.uniform(0.0, abs(q.y)))))
        yield "swapped", Point(q.x, -q.y), Point(q.x, q.y / 4.0)
        x0, x1 = rng.choice((0.0, -0.0, q.x)), rng.choice((0.0, -0.0, q.x + rng.randint(-8, 8) / 8.0))
        for y0 in (0.0, -0.0):
            yield "zero", Point(x0, y0), Point(x1, rng.choice((0.0, -0.0, q.y)))
            yield "zero", Point(x1, q.y), Point(x0, y0)
        yield "identical", q, Point(q.x, q.y)
        yield "identical", Point(0.0, -0.0), Point(-0.0, 0.0)
        # heights near 2^-60 at |x| near 4
        x = rng.choice((-1.0, 1.0)) * (4.0 - rng.randint(0, 64) * 2.0**-50)
        h = 2.0**-60
        yield "tiny", Point(x, h * rng.uniform(0.5, 2.0)), Point(x + rng.randint(-4, 4) * h,
                                                                  h * rng.uniform(-2.0, 2.0))
        yield "tiny", Point(x, h), Point(x + rng.choice((1.0, 2.0, 3.0)) * h, h)
        # a few ulps off the region boundary: at p = inf the gap-zero line
        # x = ax + ya + yb, at p = 1 the run dx = 2 min(ya, yb) / (1 - 1/v)
        a = unit()
        a = Point(a.x / 2.0, abs(a.y))
        yb = rng.choice((rng.uniform(0.0, 2.0), a.y, a.y * rng.uniform(0.5, 1.0))) * rng.choice((1.0, 2.0**-30))
        if m.closure_kind == "diamond_box":
            dx = a.y + yb
        else:
            dx = 2.0 * min(a.y, yb) / (1.0 - 1.0 / m.v)
        yield "boundary", a, Point(ulps(a.x + dx, rng.randint(-3, 3)), yb)


@pytest.mark.parametrize("p", [1.0, INF])
@pytest.mark.parametrize("v", helpers.V_GRID + (1.0 + 1e-7,))
def test_box_predicate_matches_in_walking_region(p, v):
    # the sweep's unchecked box predicate against the checked reference, on
    # both argument orders
    m = MetricParams.make(p, v)
    verdicts = {}
    for case, a, b in _box_predicate_pairs(random.Random(7), m):
        for q, u in ((a, b), (b, a)):
            want = in_walking_region(q, u, m)
            assert metric._box_in_walking_region(q, u, m) == want, (case, q, u)
            verdicts.setdefault(case, set()).add(want)
    assert verdicts["random"] == verdicts["dyadic"] == verdicts["zero"] == {True, False}
    assert verdicts["boundary"] == {True, False}
    assert verdicts["identical"] == {True}


# -- shortest paths --------------------------------------------------------------

def test_shortest_path_rides_highway_for_far_pair():
    m = MetricParams.make(2.0, 2.0)
    a, b = Point(0.0, 1.0), Point(10.0, 1.0)
    path = shortest_path(a, b, m)
    assert path[0] == a and path[-1] == b and len(path) == 4
    off = 1.0 / SQ3
    assert abs(path[1].x - off) < TOL and path[1].y == 0.0
    assert abs(path[2].x - (10.0 - off)) < TOL and path[2].y == 0.0
    assert abs(polyline_time(path, m) - (5.0 + SQ3)) < TOL


def test_shortest_path_walks_when_direct_wins():
    m = MetricParams.make(2.0, 2.0)
    assert shortest_path(Point(0.0, 5.0), Point(1.0, 5.0), m) == [
        Point(0.0, 5.0),
        Point(1.0, 5.0),
    ]


def test_polyline_time_rides_axis_segments():
    m = MetricParams.make(2.0, 2.0)
    assert polyline_time([Point(0.0, 0.0), Point(10.0, 0.0)], m) == 5.0


@given(point_st, point_st, params_st)
def test_path_traversal_time_matches_time_distance(a, b, m):
    path = shortest_path(a, b, m)
    assert abs(polyline_time(path, m) - time_distance(a, b, m)) < 1e-9


# -- wavefronts -------------------------------------------------------------------

def test_wavefront_shape_euclidean_speed_two():
    w = wavefront(Point(0.0, 0.0), 1.0, MetricParams.make(2.0, 2.0))
    assert abs(w.fan_right.x - 0.5) < TOL
    assert abs(w.fan_right.y - SQ3 / 2.0) < TOL
    assert w.highway_right == Point(2.0, 0.0)
    assert w.fan_left == Point(-w.fan_right.x, w.fan_right.y)
    assert w.radius == 1.0


def test_wavefront_l1_fan_sits_at_the_top():
    w = wavefront(Point(3.0, 0.0), 2.0, MetricParams.make(1.0, 2.0))
    assert w.fan_left == w.fan_right == Point(3.0, 2.0)
    assert (w.highway_left, w.highway_right) == (Point(-1.0, 0.0), Point(7.0, 0.0))


def test_wavefront_requires_source_on_highway():
    with pytest.raises(InvalidInputError):
        wavefront(Point(0.0, 1.0), 1.0, MetricParams.make(2.0, 2.0))


@pytest.mark.parametrize("t", [-1.0, -INF, INF, math.nan])
def test_wavefront_radius_must_be_finite_and_non_negative(t):
    with pytest.raises(InvalidInputError):
        wavefront(Point(0.0, 0.0), t, MetricParams.make(2.0, 2.0))


# -- discriminating curves --------------------------------------------------------

def _curve_abscissa(c, m, rng):
    """An abscissa strictly inside the curve's domain."""
    yq = abs(c.generator.y)
    off = yq * m.tan_alpha
    if m.p == 1.0:
        beta = 0.5 * (1.0 - m.inv_v)
        dx = rng.uniform(0.02, 0.95) * (yq / beta)
    else:
        dx = off + yq * rng.uniform(0.05, 4.0) + rng.uniform(0.01, 2.0)
    return c.generator.x + (dx if c.side == "right" else -dx)


def test_curve_points_satisfy_defining_equality():
    rng = random.Random(13)
    for m in PARAMS:
        for side in ("right", "left"):
            q = Point(rng.uniform(-5.0, 5.0), rng.uniform(0.3, 5.0))
            c = DiscriminatingCurve(q, side, m)
            for _ in range(8):
                x = _curve_abscissa(c, m, rng)
                y = disc_curve_y(c, x)
                assert y is not None and y >= 0.0
                pt = Point(x, y)
                hw = highway_time(q, pt, m)
                if hw is None:
                    # entry intervals touch up to rounding: zero-gap route
                    hw = (abs(q.y) + y) * m.descent_cost
                assert abs(lp_distance(q, pt, m.p) - hw) < CURVE_TOL * (1.0 + hw)


def test_curve_generic_solver_matches_closed_forms():
    rng = random.Random(17)
    for p in (1.0, 2.0, INF):
        for v in (1.1, 2.0, 5.0, 100.0, INF):
            m = MetricParams.make(p, v)
            q = Point(rng.uniform(-3.0, 3.0), rng.uniform(0.4, 4.0))
            c = DiscriminatingCurve(q, "right", m)
            for _ in range(25):
                x = _curve_abscissa(c, m, rng)
                auto = disc_curve_y(c, x)
                generic = metric._curve_generic(x - q.x, q.y, m)
                assert abs(auto - generic) < CURVE_TOL


def test_curve_sides_are_mirror_images():
    rng = random.Random(19)
    for m in PARAMS[:12]:
        q = Point(1.5, 2.0)
        right = DiscriminatingCurve(q, "right", m)
        left = DiscriminatingCurve(q, "left", m)
        for _ in range(6):
            x = _curve_abscissa(right, m, rng)
            dx = x - q.x
            assert disc_curve_y(right, q.x + dx) == disc_curve_y(left, q.x - dx)


def test_curve_rejects_wrong_side_abscissa():
    m = MetricParams.make(2.0, 2.0)
    c = DiscriminatingCurve(Point(0.0, 1.0), "right", m)
    with pytest.raises(InvalidInputError):
        disc_curve_y(c, -0.5)
    with pytest.raises(InvalidInputError):
        DiscriminatingCurve(Point(0.0, 1.0), "up", m)


@pytest.mark.parametrize("p", P_ALL)
def test_critical_height_is_half_the_gap(p):
    # with free highway travel the equal-height boundary tie sits at eps/2
    for eps in (0.5, 1.0, 2.0, 3.7):
        assert abs(y0_solver(p, eps) - eps / 2.0) < 1e-9


@pytest.mark.parametrize("p", P_ALL)
def test_critical_height_sits_on_the_boundary(p):
    eps = 1.3
    y0 = y0_solver(p, eps)
    m = MetricParams.make(p, INF)
    c = DiscriminatingCurve(Point(0.0, y0), "right", m)
    assert abs(disc_curve_y(c, eps) - y0) < 1e-9
