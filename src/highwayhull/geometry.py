"""Cluster closure geometry: hull chains, metric closures, common tangents,
and decomposition of newly exposed region boundaries into query segments.

Tangents rest on a scaling identity: the defining equality of a left
discriminating curve is 1-homogeneous in (horizontal offset, generator
height, ordinate), so the curve of (xq, yq) is the curve of (0, 1) scaled
by |yq| about (xq, 0).  Both tangency conditions of a common tangent
therefore pull back to one condition on the unit curve: the tangent line
there must pass through the pivot (-dx/dy, 0).  In polar form about the
generator the unit curve is explicit, a focus-directrix curve whose point,
normal and tangent depend on the direction alone, so each tangent is one
root-find over a compact range of directions, with no inner curve solve;
at p = 2 the curve is a parabola and the tangent a closed form (see
_unit_tangency).

All curve work happens in the upper half-plane (generator heights are
taken as |y|); callers handling the lower side mirror their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from scipy.optimize import brentq

from .metric import (
    INF,
    InvalidInputError,
    MetricParams,
    NumericError,
    Point,
    box_coords,
    box_point,
)

# the tangency search runs over a logit of the angle in [-span, span]:
# angles to the ends of an arc half are resolved down to e^-span of it
_LOGIT_SPAN = 700.0
# finite stand-in for log(0) in the tangency search, beyond any log ratio
_LOG_SENTINEL = 1e4
# below this a turn's sign may come from subnormal products
_TURN_FLOOR = 2.0**-960


def _cross(o: Point, a: Point, b: Point) -> float:
    """Turn of o -> a -> b, positive to the left, with its sign at unit scale.

    A turn below _TURN_FLOOR, or a non-finite one (a difference or product
    overflowed), is recomputed with the abscissae and the ordinates each
    scaled by a power of two to unit size: that scales the turn and keeps
    its sign, and there a product underflows only if the triple's own
    coordinates span the float exponent range.
    """
    t = (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
    if _TURN_FLOOR <= abs(t) < INF:
        return t
    ex = -math.frexp(max(abs(o.x), abs(a.x), abs(b.x)))[1]
    ey = -math.frexp(max(abs(o.y), abs(a.y), abs(b.y)))[1]
    o, a, b = (Point(math.ldexp(v.x, ex), math.ldexp(v.y, ey)) for v in (o, a, b))
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class Chain:
    """x-sorted vertex chain; upper chains are concave, lower chains convex,
    with every turn tested by the scale-safe `_cross`."""

    vertices: Tuple[Point, ...]
    kind: str = "upper"

    def __post_init__(self) -> None:
        if self.kind not in ("upper", "lower"):
            raise InvalidInputError("chain kind must be 'upper' or 'lower'")
        vs = self.vertices
        if not vs:
            raise InvalidInputError("empty chain")
        for i in range(1, len(vs)):
            if not vs[i - 1].x < vs[i].x:
                raise InvalidInputError("chain abscissae must strictly increase")
        for i in range(1, len(vs) - 1):
            turn = _cross(vs[i - 1], vs[i], vs[i + 1])
            if self.kind == "upper" and turn >= 0.0:
                raise InvalidInputError("upper chain slopes must strictly decrease")
            if self.kind == "lower" and turn <= 0.0:
                raise InvalidInputError("lower chain slopes must strictly increase")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


@dataclass(frozen=True)
class ClosureHull:
    """Metric closure of a cluster: convex hull, axis box, or diamond box."""

    kind: str
    upper: Chain
    lower: Chain
    corner_generators: Tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("convex", "axis_box", "diamond_box"):
            raise InvalidInputError("unknown closure kind")


@dataclass(frozen=True)
class QuerySegment:
    """Finite-slope segment; queries test points strictly above its line
    with x strictly inside (start.x, end.x).  A zero-length segment (equal
    endpoints) is allowed as the degenerate tangent of identical curves.
    """

    start: Point
    end: Point

    def __post_init__(self) -> None:
        if self.start == self.end:
            return
        if not self.start.x < self.end.x:
            raise InvalidInputError("query segment endpoints must increase in x")

    @property
    def slope(self) -> float:
        if self.start == self.end:
            return 0.0
        return (self.end.y - self.start.y) / (self.end.x - self.start.x)

    def y_at(self, x: float) -> float:
        return self.start.y + self.slope * (x - self.start.x)


def _check_sorted(points: Sequence[Point]) -> None:
    for i in range(1, len(points)):
        if points[i - 1].x > points[i].x or (
            points[i - 1].x == points[i].x and points[i - 1].y > points[i].y
        ):
            raise InvalidInputError("points must be sorted by x, ties by y")


def push_upper(chain: List[Point], q: Point) -> bool:
    """Monotone-chain step: append q (x >= the last abscissa) to an upper
    chain, popping vertices it leaves on or below; False when q ties the last
    abscissa without rising above it and is not appended.

    Each turn is `_cross`'s float turn, computed inline with the same
    expression; `_cross` is called only where that value leaves its exact
    range (|turn| < _TURN_FLOOR or not finite), so the pops are `_cross`'s
    to the bit.  A NaN turn stops the pops, as a comparison with it fails."""
    qx, qy = q
    if chain and chain[-1].x == qx:
        if qy <= chain[-1].y:
            return False
        chain.pop()
    while len(chain) >= 2:
        o, a = chain[-2], chain[-1]
        t = (a.x - o.x) * (qy - o.y) - (a.y - o.y) * (qx - o.x)
        if not _TURN_FLOOR <= abs(t) < INF:
            t = _cross(o, a, q)
        if not t >= 0.0:
            break
        chain.pop()
    chain.append(q)
    return True


def push_lower(chain: List[Point], q: Point) -> None:
    """Mirror of push_upper for a lower chain, popping on turns <= 0; an x
    tie keeps the lower point."""
    qx, qy = q
    if chain and chain[-1].x == qx:
        if qy >= chain[-1].y:
            return
        chain.pop()
    while len(chain) >= 2:
        o, a = chain[-2], chain[-1]
        t = (a.x - o.x) * (qy - o.y) - (a.y - o.y) * (qx - o.x)
        if not _TURN_FLOOR <= abs(t) < INF:
            t = _cross(o, a, q)
        if not t <= 0.0:
            break
        chain.pop()
    chain.append(q)


def upper_hull(points: Sequence[Point]) -> Chain:
    """Upper convex chain of x-sorted points; collinear interiors dropped."""
    if not points:
        raise InvalidInputError("empty point list")
    _check_sorted(points)
    h: List[Point] = []
    for pt in points:
        push_upper(h, pt)
    return Chain(tuple(h), "upper")


def lower_hull(points: Sequence[Point]) -> Chain:
    """Lower convex chain of x-sorted points; collinear interiors dropped."""
    if not points:
        raise InvalidInputError("empty point list")
    _check_sorted(points)
    h: List[Point] = []
    for pt in points:
        push_lower(h, pt)
    return Chain(tuple(h), "lower")


def _box_corners(pts: Sequence[Point], kind: str) -> set:
    """Corners of the box closure of `pts`, formed in the frame of box_coords."""
    ss, ts = zip(*(box_coords(pt, kind) for pt in pts))
    return {box_point(s, t, kind) for s in (min(ss), max(ss)) for t in (min(ts), max(ts))}


def _finite(pts) -> bool:
    return all(math.isfinite(x) and math.isfinite(y) for x, y in pts)


def closure_hull(members: Sequence[Point], m: MetricParams) -> ClosureHull:
    """Closure shape of a one-sided member set under the metric m."""
    if not members:
        raise InvalidInputError("closure of an empty member set")
    ys = [pt.y for pt in members]
    if min(ys) < 0.0 < max(ys):
        raise InvalidInputError("members must lie on one side of the highway")
    member_set = set(members)
    pts = sorted(member_set)
    kind = m.closure_kind
    if kind == "convex":
        return ClosureHull(kind, upper_hull(pts), lower_hull(pts), ())
    corners = _box_corners(pts, kind)
    if not _finite(corners):
        # near the float maximum the frame sums overflow: build the corners
        # an eighth of the scale down, exact except in subnormal coordinates
        corners = {Point(8.0 * x, 8.0 * y)
                   for x, y in _box_corners([Point(x / 8.0, y / 8.0) for x, y in pts], kind)}
        if not _finite(corners):
            raise NumericError(
                "the box closure at p=%r, v=%r overflows the float range" % (m.p, m.v))
    corners = sorted(corners)
    virtual = tuple(c for c in corners if c not in member_set)
    return ClosureHull(kind, upper_hull(corners), lower_hull(corners), virtual)


# -- common tangents ---------------------------------------------------------


def _pow_step(x: float, xe: float, y: float, dxy: float, e: float) -> float:
    """y**e - xe for x, y >= 0 and xe = x**e, from the offset dxy = y - x,
    without cancellation when y is near x.  x == 0 stands for a share that
    underflowed while its power xe did not."""
    if x == 0.0:
        return y**e - xe
    r = dxy / x
    if r > -0.5:
        return xe * math.expm1(e * math.log1p(r))
    return y**e - xe


def _young_gap(x: float, xe: float, y: float, dxy: float, p: float) -> float:
    """Slack x/q + y/p - xe y**(1/p) >= 0 of Young's inequality (1/p + 1/q
    = 1, xe = x**(1/q)), from the offset dxy = y - x; zero iff x == y."""
    if x != 0.0:
        r = dxy / x
        if abs(r) < 0.5:
            return x * (r / p - math.expm1(math.log1p(r) / p))
    return x * (1.0 - 1.0 / p) + y / p - xe * y ** (1.0 / p)


def _p2_cos_alpha(v: float) -> float:
    """cos(alpha) = sqrt((1 - 1/v) (1 + 1/v)) at p = 2.  1 - 1/v is taken
    as -expm1(-log v), which does not carry the rounding of 1/v as v -> 1;
    1 at v = inf."""
    return math.sqrt(-math.expm1(-math.log(v)) * (1.0 + 1.0 / v))


def _unit_tangency(m: MetricParams, pivot_x: float) -> Tuple[float, float, float]:
    """(abscissa, ordinate, slope) of the point on the left curve of (0, 1)
    whose tangent line passes through (pivot_x, 0); pivot strictly left of
    the entry point.

    p = 2, closed form.  The dual norm is the 2-norm, so |w| = 1 and w =
    (-s, c) with s = sin(alpha) = 1/v, c = cos(alpha) = kappa: the polar
    form below, r (1 - w.u/|u|) = 2c, is a parabola with its focus at the
    generator and its axis along w.  The highway touches it at the entry
    (-t, 0), and the tangent through a pivot at offset d = pivot_x + t < 0
    touches it at

        (-t + d (2 - d s c), (c d)^2),  slope c^2 d / (1 - d s c),

    with no root solve (v = inf: the parabola x^2 = 4y and the point
    (2d, d^2) of slope d).  The squares are products, which overflow to
    inf rather than raise, and a non-finite result raises NumericError.

    Polar form (every other p).  With G = (0, 1), kappa = c - t/v and a
    direction u from G, the curve point is G + r u with r = 2 kappa /
    (|u|_p - w.u), w = (-1/v, kappa): the equality direct = highway is
    linear in r.  By the definition of alpha, w lies on the unit sphere of
    the dual norm (q = p/(p-1)) and is the gradient of |.|_p at u* =
    (-t, 1), so the denominator is a Bregman gap of the p-norm:
    1-homogeneous in u, zero at the asymptote u* and 2 kappa at the entry
    direction (-t, -1), where r = 1 reaches the entry (-t, 0).  The normal
    at G + r u is n = g(u) - w, g the gradient of |.|_p, a function of u
    alone; by Euler's identity u.n is the same gap, so the tangent at u
    meets the axis at X(u) = (2 kappa + n_y) / n_x, which falls
    monotonically from -t at the entry to -inf at the asymptote.  The solve is one brentq for
    X(u) = pivot_x over the direction.

    Conditioning.  A far pivot puts the root next to the asymptote, where n
    and the gap are differences of nearly equal O(1) terms; a pivot near
    the entry does the same to n_x.  A direction is therefore held by its
    p-th power share nu = |u_x|^p / |u|_p^p and the offset nu - nu_e from
    the share nu_e of (-t, +-1), formed from the angle to that end
    direction.  n comes from expm1/log1p power steps and the gap from two
    Young slacks, both free of cancellation, with w = (-nu_e^(1/q),
    (1 - nu_e)^(1/q)) taken from t, so the gap is exactly zero at u* and no
    float ** of 1/(p-1) is formed.  When t underflows (p -> 1+), w_x keeps
    its value 1/v.  The search runs over each half of the arc, below and
    above the leftward direction (-1, 0), in a logit of the angle, so the
    angle to either end of the half is resolved relatively down to e^-700
    of it.  A sign change closer than that to the leftward direction is a
    corner of the curve (p -> 1+), and the corner's supporting line through
    the pivot is returned; one closer than that to the entry collapses the
    tangent onto the highway; one closer than that to the asymptote is a
    tangency beyond float range and raises NumericError.
    """
    t, p = m.tan_alpha, m.p
    entry = -t
    if pivot_x >= entry:
        raise InvalidInputError("pivot must lie strictly left of the unit entry")
    if p == 2.0:
        s = m.inv_v
        c = _p2_cos_alpha(m.v)
        d = pivot_x - entry
        cd = c * d
        xr = entry + d * (2.0 - cd * s)
        eta = cd * cd
        sig = c * cd / (1.0 - cd * s)
        if not (math.isfinite(xr) and math.isfinite(eta) and math.isfinite(sig)):
            raise NumericError(
                "tangency beyond float range: pivot=%r p=%r v=%r" % (pivot_x, m.p, m.v)
            )
        return xr, eta, sig
    e = 1.0 - 1.0 / p
    far = -pivot_x
    # p-th power shares of (-t, +-1) and of its complement; w = (-wx, wy)
    if t <= 1.0:
        tp = t**p
        ne, ce = tp / (1.0 + tp), 1.0 / (1.0 + tp)
    else:
        tp = t**-p
        ne, ce = 1.0 / (1.0 + tp), tp / (1.0 + tp)
    # t underflows as p -> 1+ while wx = (t / c)^(p - 1) stays 1/v
    wx, wy = (ne**e if ne > 0.0 else m.inv_v), ce**e
    gam = math.atan2(1.0, t)
    hyp = math.hypot(1.0, t)

    def state(z: float) -> Tuple[float, float, float, float, float]:
        # psi: angle to the half's end; beta: angle to the leftward direction
        psi = gam / (1.0 + math.exp(-z))
        beta = gam / (1.0 + math.exp(z))
        a = (t * math.cos(psi) + math.sin(psi)) / hyp  # cos(beta), from psi
        b = math.sin(beta)
        if a >= b:
            rho = (b / a) ** p
            nu, cnu = 1.0 / (1.0 + rho), rho / (1.0 + rho)
        else:
            rho = (a / b) ** p
            nu, cnu = rho / (1.0 + rho), 1.0 / (1.0 + rho)
        x = t * b / a  # (t b / a)^p = 1 - (nu - ne) / (nu ce)
        if x <= 0.5:
            lead = 1.0 - x**p
        else:
            lead = -math.expm1(p * math.log1p(-hyp * math.sin(psi) / a))
        m1 = nu * ce * lead
        gx = _pow_step(ne, wx, nu, m1, e)  # -n_x >= 0
        gy = -_pow_step(ce, wy, cnu, -m1, e)  # kappa - |g_y| >= 0
        return nu, cnu, m1, gx, gy

    def axis_gap(z: float, upper: bool) -> float:
        # log(|X(u)| / |pivot|): negative while the tangent meets the axis
        # right of the pivot
        _, _, _, gx, gy = state(z)
        num = 2.0 * wy - gy if upper else gy
        if num == 0.0:
            return -_LOG_SENTINEL
        den = far * gx
        if den == 0.0:
            return _LOG_SENTINEL
        g = math.log(num) - math.log(den)
        if g != g:
            raise NumericError(
                "tangency clearance is NaN: pivot=%r p=%r v=%r" % (pivot_x, m.p, m.v)
            )
        return g

    span = _LOGIT_SPAN
    if axis_gap(span, True) < 0.0:
        upper = True
        if axis_gap(-span, True) <= 0.0:
            raise NumericError(
                "tangency beyond float range: pivot=%r p=%r v=%r" % (pivot_x, m.p, m.v)
            )
    elif axis_gap(span, False) > 0.0:
        upper = False
        if axis_gap(-span, False) >= 0.0:
            # tangency within float resolution of the entry: the highway
            return entry, 0.0, 0.0
    else:
        # the sign changes at the leftward corner: its supporting line
        xr = -2.0 * wy / (1.0 - wx)
        return xr, 1.0, 1.0 / (xr - pivot_x)
    try:
        z = float(brentq(axis_gap, -span, span, args=(upper,), xtol=1e-14, maxiter=200))
    except RuntimeError:
        raise NumericError(
            "tangency solve did not converge: pivot=%r p=%r v=%r" % (pivot_x, m.p, m.v)
        )
    nu, cnu, m1, gx, gy = state(z)
    # (|u|_p - w.u) / |u|_p for u = (-|u_x|, -|u_y|) and (-|u_x|, |u_y|):
    # `near` (two Young slacks) vanishes at the half's end direction, and
    # the ordinate 1 +- r |u_y| of the curve point is the ratio of the two
    near = _young_gap(ne, wx, nu, m1, p) + _young_gap(ce, wy, cnu, -m1, p)
    away = 1.0 - wx * nu ** (1.0 / p) + wy * cnu ** (1.0 / p)
    gap, rest, ny = (near, away, gy) if upper else (away, near, 2.0 * wy - gy)
    xr = -2.0 * wy * nu ** (1.0 / p) / gap if gap > 0.0 else -INF
    eta = rest / gap if gap > 0.0 else INF
    sig = -gx / ny if ny > 0.0 else -INF
    if not (math.isfinite(xr) and math.isfinite(eta) and math.isfinite(sig)):
        raise NumericError(
            "tangency beyond float range: pivot=%r p=%r v=%r" % (pivot_x, m.p, m.v)
        )
    return xr, eta, sig


def left_edge_tangent(
    a: Point, b: Point, m: MetricParams
) -> Optional[Tuple[Point, Point, float]]:
    """Common tangent of the left curves of a positive-slope edge (a, b),
    a lower-left, b upper-right.  Returns (upper tangency, lower tangency,
    slope) in the upper half-plane, or None when the upper curve's region
    nests the lower's and no tangent exists."""
    ay, by = abs(a.y), abs(b.y)
    dx, dy = b.x - a.x, by - ay
    if dx <= 0.0 or dy <= 0.0:
        raise InvalidInputError("edge must rise to the right")
    if dx <= dy * m.tan_alpha:
        return None
    xr, eta, sig = _unit_tangency(m, -dx / dy)
    start = Point(b.x + by * xr, by * eta)
    end = Point(a.x + ay * xr, ay * eta)
    return start, end, sig


def right_edge_tangent(
    hi: Point, lo: Point, m: MetricParams
) -> Optional[Tuple[Point, Point, float]]:
    """Mirror construction for the right curves of a negative-slope edge
    (hi upper-left, lo lower-right).  Returns (lower tangency, upper
    tangency, slope) or None when nested."""
    res = left_edge_tangent(Point(-lo.x, lo.y), Point(-hi.x, hi.y), m)
    if res is None:
        return None
    s, e, sig = res
    return Point(-e.x, e.y), Point(-s.x, s.y), -sig


# -- exposure of new boundary pieces -----------------------------------------


def exposed_boundary_segments(
    edge: Tuple[Point, Point],
    m: MetricParams,
    x_cap: float,
) -> List[QuerySegment]:
    """Query segments covering the newly exposed left-boundary piece of an
    edge (1 < p < inf) or governing box corner (p = 1; pass the corner as a
    degenerate edge), clipped to x <= x_cap.

    p = inf has no segments: the builder decides an apex's exposure by the
    float gap of `in_walking_region` against a prefix maximum of x + y, and
    a diamond corner raises InvalidInputError here.
    """
    a, b = edge
    if m.closure_kind == "diamond_box":
        raise InvalidInputError("p=inf exposure has no query segments")
    if m.closure_kind == "axis_box":
        if a != b:
            raise InvalidInputError("box metrics expose corners; pass (corner, corner)")
        cx, cy = a.x, abs(a.y)
        beta = 0.5 * (1.0 - m.inv_v)
        if cy == 0.0:
            return []
        wall = cx - cy / beta
        hi = min(cx, x_cap)
        if hi <= wall:
            return []
        # the line runs below y = cy on (wall, hi), so this one query also
        # covers every point above the corner's height there
        return [QuerySegment(Point(wall, cy), Point(hi, beta * (cx - hi)))]
    if a == b:
        return []
    if a.x > b.x:
        a, b = b, a
    ay, by = abs(a.y), abs(b.y)
    if a.x == b.x or by <= ay:
        return []
    res = left_edge_tangent(Point(a.x, ay), Point(b.x, by), m)
    if res is None:
        return []
    start, end, sig = res
    if start.x >= x_cap or start.x >= end.x:
        return []
    if end.x > x_cap:
        end = Point(x_cap, start.y + sig * (x_cap - start.x))
    return [QuerySegment(start, end)]
