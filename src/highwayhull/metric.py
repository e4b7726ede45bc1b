"""Scalar geometry of Lp travel with a speed-v highway on the x-axis.

Walking speed is 1 everywhere in the plane; the x-axis additionally carries a
lane of speed v > 1.  Travel time between two points is the cheaper of walking
straight and walking to the axis, riding it, and walking off.  Everything in
this module is a pure function of immutable inputs.

Conventions: the metric exponent p lies in [1, inf] and the speed v in
(1, inf]; both infinities are math.inf.  MetricParams.make fixes the regime
(box closure, vertical descent or general convex) once and every consumer
reads its fields; where an infinity needs no branch of its own, IEEE
arithmetic covers it (gap / inf == 0.0).  Discriminating curves are
computed in the upper half-plane; generator height enters through |y|,
callers working below the axis mirror.

Box frame: a closure under p = 1 is an axis-parallel box and one under
p = inf a box with sides of slope +-1.  In the frame (s, t) of box_coords,
(x, y) for p = 1 and (x + y, y - x) for p = inf, both are axis-parallel
boxes [s0, s1] x [t0, t1], and box_point maps a frame point back; every
box closure (the sweep's clusters, closure_hull, pair_closure) is built
from these two maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from scipy.optimize import brentq

SOLVER_XTOL = 1e-12
SOLVER_MAXITER = 200
_MAX_DOUBLINGS = 200
FLOAT_EPS = 2.0**-52

INF = math.inf


class InvalidInputError(ValueError):
    """Parameters or coordinates outside the model's domain."""


class NumericError(ArithmeticError):
    """An iterative solve failed to bracket or converge."""


class Point(NamedTuple):
    x: float
    y: float


def _require_finite(pt: Point) -> None:
    if not (math.isfinite(pt.x) and math.isfinite(pt.y)):
        raise InvalidInputError(f"non-finite point {pt!r}")


def alpha(p: float, v: float) -> float:
    """Incidence angle of shortest paths entering the highway, in radians."""
    return MetricParams.make(p, v).alpha


@dataclass(frozen=True)
class MetricParams:
    """Exponent p and highway speed v with every regime decision made once.

    closure_kind is the shape of a one-sided cluster closure: "axis_box"
    (p = 1), "diamond_box" (p = inf) or "convex".  vertical_descent holds
    when tan_alpha == 0, i.e. p = 1, v = inf, or alpha underflowing as
    p -> 1+; shortest paths then reach the highway straight down.
    """

    p: float
    v: float
    alpha: float
    tan_alpha: float
    descent_cost: float
    inv_v: float
    closure_kind: str
    vertical_descent: bool

    @classmethod
    def make(cls, p: float, v: float) -> "MetricParams":
        if not (p >= 1.0):
            raise InvalidInputError(f"p must be >= 1, got {p}")
        if not (v > 1.0):
            raise InvalidInputError(f"v must be > 1, got {v}")
        if math.isinf(p):
            kind, a, t, c = "diamond_box", math.pi / 4, 1.0, 1.0
        elif p == 1.0:
            kind, a, t, c = "axis_box", 0.0, 0.0, 1.0
        elif math.isinf(v):
            kind, a, t, c = "convex", 0.0, 0.0, 1.0
        else:
            kind = "convex"
            num = v ** (1.0 / (1.0 - p))
            den = math.sqrt(v ** (2.0 / (1.0 - p)) + (1.0 - v ** (p / (1.0 - p))) ** (2.0 / p))
            a = math.asin(num / den)
            t = num / (1.0 - v ** (p / (1.0 - p))) ** (1.0 / p)
            c = (1.0 + t**p) ** (1.0 / p)
        return cls(p=p, v=v, alpha=a, tan_alpha=t, descent_cost=c, inv_v=1.0 / v,
                   closure_kind=kind, vertical_descent=t == 0.0)


def reach_coefficient(m: MetricParams) -> float:
    """K with: a, b in one walking region implies |ax - bx| <= K (|ay| + |by|).

    Linear-margin lemma: with Y = |ay| + |by|, direct >= |dx| and highway =
    Y c + (|dx| - Y tan(alpha)) / v give

        direct - highway >= (1 - 1/v) (|dx| - K Y),

    exactly, whenever the highway route exists (a negative gap needs
    |dx| < Y tan(alpha) <= K Y).  Used only for pruning, never for
    membership decisions.
    """
    return (m.descent_cost - m.tan_alpha / m.v) / (1.0 - 1.0 / m.v)


def cross_side_window(m: MetricParams) -> tuple[float, float]:
    """(kx, dcoef): opposite-side points a, b (ay >= 0 > by) that the float
    in_walking_region links satisfy |ax - bx| <= kx Y + dcoef X, where
    Y = |ay| + |by| and X bounds |ax| and |bx|.

    Cone lemma: with r = |dx| / Y, direct - highway = Y f(r) for r >= t,
    f(r) = lp(r, 1) - c - (r - t) / v (t = tan(alpha), c = lp(t, 1)).  f is
    convex with f(t) = f'(t) = 0, alpha being where the walking slope meets
    1/v, so opposite-side pairs link only inside the cone r <= t.

    Rounding guard: floats tie pairs a little beyond the cone.  kx is the
    r in [t, K] found by bisection where the float f clears 2^-40 (c + r);
    beyond it convexity gives f(r) >= s0 (r - t) with the chord slope
    s0 = f(kx) / (kx - t), which outgrows the predicate's rounding, relative
    (~eps Y (c + r)) and absolute (~eps X, from the highway gap's
    abscissae), once |dx| > kx Y + 32 eps X / s0.  When no r <= K clears the
    threshold (p = inf, where t = K; large p with v -> 1, e.g. p = 1e6 at
    v = 1 + 1e-7) the window falls back to (K, 0), the reach bound itself.
    """
    k = reach_coefficient(m)
    t, c = m.tan_alpha, m.descent_cost

    def f(r: float) -> float:
        return lp_distance(Point(0.0, 0.0), Point(r, 1.0), m.p) - c - (r - t) * m.inv_v

    def clear(r: float) -> bool:
        return f(r) > 2.0**-40 * (c + r)

    if not (k > t and clear(k)):
        return k, 0.0
    lo, hi = t, k
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if clear(mid):
            hi = mid
        else:
            lo = mid
    s0 = f(hi) / (hi - t)
    return hi, 32.0 * FLOAT_EPS / s0


def lp_distance(a: Point, b: Point, p: float) -> float:
    if not (p >= 1.0):
        raise InvalidInputError(f"p must be >= 1, got {p}")
    _require_finite(a)
    _require_finite(b)
    dx = abs(a.x - b.x)
    dy = abs(a.y - b.y)
    if math.isinf(p):
        return max(dx, dy)
    if p == 1.0:
        return dx + dy
    if p == 2.0:
        return math.hypot(dx, dy)
    if dx == 0.0 or dy == 0.0:
        return dx + dy
    # factor out the larger term so the pow never overflows
    hi, lo = (dx, dy) if dx >= dy else (dy, dx)
    return hi * (1.0 + (lo / hi) ** p) ** (1.0 / p)


def entry_points(q: Point, m: MetricParams) -> tuple[Point, Point]:
    """Left and right highway entry points of q (coincide when alpha = 0)."""
    off = abs(q.y) * m.tan_alpha
    return Point(q.x - off, 0.0), Point(q.x + off, 0.0)


def highway_time(a: Point, b: Point, m: MetricParams) -> Optional[float]:
    """Time of the best path that rides the highway from a to b.

    None when the right entry of the leftward point lies beyond the left
    entry of the rightward one: no along-highway traversal exists.
    """
    _require_finite(a)
    _require_finite(b)
    if (a.x, abs(a.y)) > (b.x, abs(b.y)):
        a, b = b, a
    gap = (b.x - abs(b.y) * m.tan_alpha) - (a.x + abs(a.y) * m.tan_alpha)
    if gap < 0.0:
        return None
    return (abs(a.y) + abs(b.y)) * m.descent_cost + gap / m.v


def _direct_time(a: Point, b: Point, m: MetricParams) -> float:
    # a straight path lying on the highway moves at speed v
    if a.y == 0.0 and b.y == 0.0:
        return abs(a.x - b.x) / m.v
    return lp_distance(a, b, m.p)


def time_distance(a: Point, b: Point, m: MetricParams) -> float:
    hw = highway_time(a, b, m)
    direct = lp_distance(a, b, m.p)
    return direct if hw is None else min(direct, hw)


def in_walking_region(q: Point, u: Point, m: MetricParams) -> bool:
    """True iff walking straight is no slower than any highway route, ties in.

    Walking means moving at unit speed, so two distinct points on the
    highway are not in each other's region: riding beats walking there.
    """
    hw = highway_time(q, u, m)
    if hw is None:
        return True
    return lp_distance(q, u, m.p) <= hw


def shortest_path(a: Point, b: Point, m: MetricParams) -> list[Point]:
    """A representative shortest time-path as a polyline."""
    hw = highway_time(a, b, m)
    if hw is None or lp_distance(a, b, m.p) <= hw:
        return [a] if a == b else [a, b]
    if (a.x, abs(a.y)) > (b.x, abs(b.y)):
        a, b = b, a
    enter = entry_points(a, m)[1]
    leave = entry_points(b, m)[0]
    path = [a, enter, leave, b]
    return [pt for i, pt in enumerate(path) if i == 0 or pt != path[i - 1]]


def polyline_time(path: list[Point], m: MetricParams) -> float:
    """Traversal time of a polyline; segments lying on the axis ride at v."""
    total = 0.0
    for a, b in zip(path, path[1:]):
        total += _direct_time(a, b, m)
    return total


# -- pairwise closures --------------------------------------------------------

@dataclass(frozen=True)
class PairClosure:
    kind: str  # segment | rectangle | diamond
    corners: tuple[Point, ...]


def box_coords(q: Point, kind: str) -> tuple[float, float]:
    """Frame coordinates (s, t) of q in which a closure of kind "axis_box"
    (p = 1) or "diamond_box" (p = inf) is an axis-parallel box."""
    if kind == "axis_box":
        return q.x, q.y
    return q.x + q.y, q.y - q.x


def box_point(s: float, t: float, kind: str) -> Point:
    """Inverse of box_coords."""
    if kind == "axis_box":
        return Point(s, t)
    return Point((s - t) / 2.0, (s + t) / 2.0)


def pair_closure(a: Point, b: Point, p: float) -> PairClosure:
    """Smallest metric-convex set containing a and b (highway unused).

    Boxes (p in {1, inf}) list their corners counter-clockwise from the one
    with the least frame coordinates.
    """
    _require_finite(a)
    _require_finite(b)
    if not (p >= 1.0):
        raise InvalidInputError(f"p must be >= 1, got {p}")
    if p == 1.0 or math.isinf(p):
        kind = "axis_box" if p == 1.0 else "diamond_box"
        (sa, ta), (sb, tb) = box_coords(a, kind), box_coords(b, kind)
        s0, s1 = min(sa, sb), max(sa, sb)
        t0, t1 = min(ta, tb), max(ta, tb)
        corners = [box_point(s, t, kind) for s, t in ((s0, t0), (s1, t0), (s1, t1), (s0, t1))]
        return PairClosure("rectangle" if p == 1.0 else "diamond", _dedupe_cycle(corners))
    corners = [a] if a == b else [a, b]
    return PairClosure("segment", tuple(corners))


def _dedupe_cycle(pts: list[Point]) -> tuple[Point, ...]:
    out: list[Point] = []
    for pt in pts:
        if not out or pt != out[-1]:
            out.append(pt)
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out)


# -- wavefronts ---------------------------------------------------------------

@dataclass(frozen=True)
class WavefrontShape:
    fan_left: Point
    fan_right: Point
    highway_left: Point
    highway_right: Point
    radius: float


def wavefront(q: Point, t: float, m: MetricParams) -> WavefrontShape:
    """Shape of the time-t wavefront from a point on the highway.

    The upper boundary is the p-circle arc between fan_left and fan_right
    plus the tangent segments down to the highway endpoints (+-v t, 0).  For
    v = inf the tangent segments degenerate to the horizontal line y = t,
    recorded as infinite highway abscissae.
    """
    if q.y != 0.0:
        raise InvalidInputError("wavefront source must lie on the highway")
    if t < 0.0:
        raise InvalidInputError("negative radius")
    if m.closure_kind == "diamond_box":
        fx = t
    elif m.vertical_descent:
        fx = 0.0  # the tangent from (v t, 0) touches the p-circle at its top
    else:
        fx = t * m.v ** (1.0 / (1.0 - m.p))
    fy = _p_circle_y(fx, t, m.p)
    hx = INF if math.isinf(m.v) else m.v * t  # inf * 0 would be nan
    return WavefrontShape(
        fan_left=Point(q.x - fx, fy),
        fan_right=Point(q.x + fx, fy),
        highway_left=Point(q.x - hx, 0.0),
        highway_right=Point(q.x + hx, 0.0),
        radius=t,
    )


def _p_circle_y(x: float, t: float, p: float) -> float:
    if math.isinf(p):
        return t
    if t == 0.0:
        return 0.0
    r = abs(x) / t
    return t * (max(0.0, 1.0 - r**p)) ** (1.0 / p)


# -- discriminating curves ----------------------------------------------------

@dataclass(frozen=True)
class DiscriminatingCurve:
    """Boundary of a generator's walking region on one side, y as f(x).

    On the curve the direct travel time equals the highway travel time; above
    it (toward the generator) direct wins.  Defined for x beyond the entry
    offset; for p = 1 the curve ends at the vertical wall of the L1 region.
    """

    generator: Point
    side: str  # left | right
    params: MetricParams

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise InvalidInputError(f"side must be left or right, got {self.side!r}")
        _require_finite(self.generator)


def disc_curve_y(c: DiscriminatingCurve, x: float, method: str = "auto") -> Optional[float]:
    """Ordinate of the curve at abscissa x; None inside the entry offset.

    method="auto" uses closed forms for p in {1, 2, inf}; method="generic"
    always solves the defining equality by bracketed root finding.
    """
    if method not in ("auto", "generic"):
        raise InvalidInputError(f"unknown method {method!r}")
    m = c.params
    xq, yq = c.generator.x, abs(c.generator.y)
    dx = x - xq if c.side == "right" else xq - x
    if dx < 0.0:
        raise InvalidInputError("abscissa on the wrong side of the generator")
    if method == "auto":
        if m.closure_kind == "axis_box":
            return _curve_p1(dx, yq, m)
        if m.closure_kind == "diamond_box":
            return _curve_pinf(dx, yq)
        if m.p == 2.0:
            return _curve_p2(dx, yq, m)
    return _curve_generic(dx, yq, m)


def _curve_p1(dx: float, yq: float, m: MetricParams) -> Optional[float]:
    beta = (1.0 - m.inv_v) / 2.0
    wall = yq / beta
    if dx > wall:
        return None
    return beta * dx


def _curve_pinf(dx: float, yq: float) -> Optional[float]:
    if dx < yq:
        return None
    return dx - yq


def _curve_p2(dx: float, yq: float, m: MetricParams) -> Optional[float]:
    if m.vertical_descent:
        if yq == 0.0:
            return 0.0 if dx == 0.0 else None
        return dx * dx / (4.0 * yq)
    if yq == 0.0 and dx == 0.0:
        return 0.0
    off = yq * m.tan_alpha
    if dx < off:
        return None
    sa, ca = math.sin(m.alpha), math.cos(m.alpha)
    a2 = sa * sa
    b2 = -2.0 * (yq * (1.0 + ca * ca) + dx * sa * ca)
    c2 = dx * dx + yq * yq - (yq * ca + dx * sa) ** 2
    disc = max(0.0, b2 * b2 - 4.0 * a2 * c2)
    # smaller root in the cancellation-safe form (product of roots = c2/a2)
    return 2.0 * c2 / (-b2 + math.sqrt(disc))


def _region_gap(dx: float, yq: float, y: float, m: MetricParams) -> float:
    return dx - (yq + y) * m.tan_alpha


def _curve_equality(dx: float, yq: float, y: float, m: MetricParams) -> float:
    """direct minus highway for probe (dx, y) against generator (0, yq)."""
    direct = lp_distance(Point(0.0, yq), Point(dx, y), m.p)
    hw = (yq + y) * m.descent_cost + _region_gap(dx, yq, y, m) * m.inv_v
    return direct - hw


def _curve_generic(dx: float, yq: float, m: MetricParams) -> Optional[float]:
    t = m.tan_alpha
    off = yq * t
    if dx < off:
        return None
    if dx == off:
        return 0.0
    if yq == 0.0:
        # degenerate generator on the axis: the boundary is the ascent ray
        # (tangency, not a sign change), or a vertical ray when alpha = 0
        return None if m.vertical_descent else dx / t

    def g(y: float) -> float:
        return _curve_equality(dx, yq, y, m)

    if not m.vertical_descent:
        yhi = (dx - off) / t  # height where the along-highway gap closes
        if g(0.0) <= 0.0:
            return 0.0
        ghi = g(yhi)
        if ghi >= 0.0:
            # tangent or roundoff-degenerate at the gap-zero height (exact
            # for p = inf, whose curve is the gap-zero line itself)
            return yhi
        return float(brentq(g, 0.0, yhi, xtol=SOLVER_XTOL, maxiter=SOLVER_MAXITER))

    # vertical descent: either p = 1 (kinked linear equality) or p > 1 with
    # v = inf or alpha underflowed to 0
    if m.closure_kind == "axis_box":
        gq = g(yq)
        if gq > 0.0:
            return None  # beyond the vertical wall of the L1 region
        if gq == 0.0:
            return yq  # exactly at the wall: lowest boundary point
        if g(0.0) <= 0.0:
            return 0.0
        return float(brentq(g, 0.0, yq, xtol=SOLVER_XTOL, maxiter=SOLVER_MAXITER))
    # g decreases strictly to -2 yq when v = inf; a mean-value bound on
    # (y + yq)^p - (y - yq)^p >= dx^p gives a guaranteed upper bracket.  As
    # p -> 1+ the bound's exponent 1 / (p - 1) overflows, and float ** raises
    # instead of returning inf.
    try:
        yhi = yq + (dx**m.p / (2.0 * yq * m.p)) ** (1.0 / (m.p - 1.0))
    except OverflowError:
        yhi = INF
    if not math.isfinite(yhi):
        yhi = max(1.0, 2.0 * yq, dx)
    for _ in range(_MAX_DOUBLINGS):
        if g(yhi) < 0.0:
            break
        yhi *= 2.0
    else:
        raise NumericError(
            "failed to bracket the curve ordinate: dx=%r yq=%r p=%r v=%r" % (dx, yq, m.p, m.v)
        )
    if g(0.0) <= 0.0:
        return 0.0
    return float(brentq(g, 0.0, yhi, xtol=SOLVER_XTOL, maxiter=SOLVER_MAXITER))


def disc_curve_slope(c: DiscriminatingCurve, x: float) -> float:
    """dy/dx of the curve at abscissa x, from the defining equality.

    Implicit differentiation of direct(x, y) = highway(x, y) is exact for
    every p; the tests cross-check it against finite differences of
    disc_curve_y.
    """
    m = c.params
    xq, yq = c.generator.x, abs(c.generator.y)
    dx = x - xq if c.side == "right" else xq - x
    sgn = 1.0 if c.side == "right" else -1.0
    if dx < 0.0:
        raise InvalidInputError("abscissa on the wrong side of the generator")
    if m.closure_kind == "diamond_box":
        if dx < yq:
            raise InvalidInputError("abscissa inside the entry offset")
        return sgn
    if m.closure_kind == "axis_box":
        beta = (1.0 - m.inv_v) / 2.0
        if dx >= yq / beta:
            raise InvalidInputError("abscissa at or beyond the L1 wall")
        return sgn * beta
    if yq == 0.0:
        if m.vertical_descent:
            if dx == 0.0:
                return INF
            raise InvalidInputError("abscissa outside the degenerate vertical ray")
        return sgn / m.tan_alpha
    y = disc_curve_y(c, x)
    if y is None:
        raise InvalidInputError("abscissa inside the entry offset")
    return sgn * _implicit_slope(dx, y, yq, m)


def _implicit_slope(dx: float, y: float, yq: float, m: MetricParams) -> float:
    """Unsigned curve slope -Fx/Fy at known offset dx and ordinate y (1<p<inf)."""
    d = lp_distance(Point(0.0, yq), Point(dx, y), m.p)
    if d == 0.0:
        return INF
    fx = _lp_partial(dx, d, m.p) - m.inv_v
    fy = math.copysign(_lp_partial(abs(y - yq), d, m.p), y - yq) - (
        m.descent_cost - m.tan_alpha * m.inv_v
    )
    if fy == 0.0:
        return INF
    return -fx / fy


def _lp_partial(u: float, d: float, p: float) -> float:
    # d/du of (u^p + w^p)^(1/p) at distance d, u >= 0
    if u == 0.0:
        return 0.0
    return (u / d) ** (p - 1.0)


# -- lower-bound instance height ----------------------------------------------

def y0_solver(p: float, eps: float) -> float:
    """Height where two points with x-gap eps sit exactly on each other's
    walking-region boundary under v = inf."""
    if not eps > 0.0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    m = MetricParams.make(p, INF)

    def g(y: float) -> float:
        c = DiscriminatingCurve(Point(0.0, y), "right", m)
        try:
            val = disc_curve_y(c, eps)
        except NumericError:
            return 1.0  # ordinate beyond float range: y is far too small
        if val is None:
            return 1.0  # region does not reach eps yet: y is too small
        return val - y

    lo = eps * 1e-6
    hi = eps
    if g(hi) >= 0.0:
        raise NumericError("failed to bracket the gap height")
    return float(brentq(g, lo, hi, xtol=SOLVER_XTOL * max(1.0, eps), maxiter=SOLVER_MAXITER))
