"""Cluster closure geometry: hull chains, metric closures, common tangents,
and decomposition of newly exposed region boundaries into query segments.

Tangents rest on a scaling identity: the defining equality of a left
discriminating curve is 1-homogeneous in (horizontal offset, generator
height, ordinate), so the curve of (xq, yq) is the curve of (0, 1) scaled
by |yq| about (xq, 0).  Both tangency conditions of a common tangent
therefore pull back to one condition on the unit curve: the tangent line
there must pass through the pivot (-dx/dy, 0).  The signed clearance of
that line at the pivot is the same quantity as the tangent's clearance to
the second curve, so a single bracketed root-find replaces the nested
two-curve bisection while meeting the same residual contract.

All curve work happens in the upper half-plane (generator heights are
taken as |y|); callers handling the lower side mirror their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from scipy.optimize import brentq

from .metric import (
    DiscriminatingCurve,
    InvalidInputError,
    MetricParams,
    NumericError,
    Point,
    _implicit_slope,
    box_coords,
    box_point,
    disc_curve_y,
)

TANGENT_XTOL = 1e-13
_ENTRY_STEP = 1e-9
_MAX_EXPANSIONS = 120


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


@dataclass(frozen=True)
class Chain:
    """x-sorted vertex chain; upper chains are concave, lower chains convex."""

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
    abscissa without rising above it and is not appended."""
    if chain and chain[-1].x == q.x:
        if q.y <= chain[-1].y:
            return False
        chain.pop()
    while len(chain) >= 2 and _cross(chain[-2], chain[-1], q) >= 0.0:
        chain.pop()
    chain.append(q)
    return True


def push_lower(chain: List[Point], q: Point) -> None:
    """Mirror of push_upper for a lower chain; an x tie keeps the lower point."""
    if chain and chain[-1].x == q.x:
        if q.y >= chain[-1].y:
            return
        chain.pop()
    while len(chain) >= 2 and _cross(chain[-2], chain[-1], q) <= 0.0:
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
    ss, ts = zip(*(box_coords(pt, kind) for pt in pts))
    corners = sorted({box_point(s, t, kind) for s in (min(ss), max(ss)) for t in (min(ts), max(ts))})
    virtual = tuple(c for c in corners if c not in member_set)
    return ClosureHull(kind, upper_hull(corners), lower_hull(corners), virtual)


# -- common tangents ---------------------------------------------------------


def _unit_tangency(m: MetricParams, pivot_x: float) -> Tuple[float, float, float]:
    """(abscissa, ordinate, slope) of the point on the left curve of (0, 1)
    whose tangent line passes through (pivot_x, 0); pivot strictly left of
    the entry point."""
    entry = -m.tan_alpha
    if pivot_x >= entry:
        raise InvalidInputError("pivot must lie strictly left of the unit entry")
    unit = DiscriminatingCurve(Point(0.0, 1.0), "left", m)

    def clearance(x: float) -> float:
        y = disc_curve_y(unit, x)
        if y is None:
            raise NumericError("unit curve undefined inside its own domain")
        s = -_implicit_slope(-x, y, 1.0, m)
        return y - s * (x - pivot_x)

    step = _ENTRY_STEP * max(1.0, abs(entry), abs(pivot_x))
    hi = entry - step
    if clearance(hi) <= 0.0:
        # tangency collapses onto the entry point; the tangent is the highway
        return entry, 0.0, 0.0
    lo = hi
    for _ in range(_MAX_EXPANSIONS):
        step *= 2.0
        lo = entry - step
        try:
            c = clearance(lo)
        except NumericError:
            raise NumericError(
                "tangency bracket failed: pivot=%r p=%r v=%r at x=%r"
                % (pivot_x, m.p, m.v, lo)
            )
        if c <= 0.0:
            break
        hi = lo
    else:
        raise NumericError(
            "tangency clearance kept its sign: pivot=%r p=%r v=%r" % (pivot_x, m.p, m.v)
        )
    xr = float(brentq(clearance, lo, hi, xtol=TANGENT_XTOL, maxiter=200))
    eta = disc_curve_y(unit, xr)
    if eta is None:
        raise NumericError("tangency ordinate undefined at the root")
    sig = -_implicit_slope(-xr, eta, 1.0, m)
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


def common_tangent(cL: DiscriminatingCurve, cR: DiscriminatingCurve) -> QuerySegment:
    """Common tangent segment of the left curves of a positive-slope edge.

    Endpoints are the tangency points (upper first).  Horizontal edges
    degenerate to the highway segment joining the two entry points, and
    identical generators to a zero-length segment at the shared entry.
    """
    if cL.side != "left" or cR.side != "left":
        raise InvalidInputError("common tangents are defined for left curves")
    m = cL.params
    if (m.p, m.v) != (cR.params.p, cR.params.v):
        raise InvalidInputError("curves must share metric parameters")
    if m.closure_kind != "convex":
        raise InvalidInputError("common tangents require 1 < p < inf")
    q1, q2 = cL.generator, cR.generator
    y1, y2 = abs(q1.y), abs(q2.y)
    if (q1.x, y1) == (q2.x, y2):
        e = Point(q1.x - y1 * m.tan_alpha, 0.0)
        return QuerySegment(e, e)
    if not q1.x < q2.x:
        raise InvalidInputError("left curve generator must lie left of the right one")
    if y1 == y2:
        return QuerySegment(
            Point(q1.x - y1 * m.tan_alpha, 0.0), Point(q2.x - y2 * m.tan_alpha, 0.0)
        )
    if y1 > y2:
        raise InvalidInputError("edge must rise to the right")
    res = left_edge_tangent(Point(q1.x, y1), Point(q2.x, y2), m)
    if res is None:
        raise InvalidInputError("nested walking regions admit no common tangent")
    start, end, _ = res
    if not start.x < end.x:
        raise NumericError(
            "tangent segment collapsed: %r %r p=%r v=%r" % (q1, q2, m.p, m.v)
        )
    return QuerySegment(start, end)


# -- exposure of new boundary pieces -----------------------------------------


def exposed_boundary_segments(
    edge: Tuple[Point, Point],
    m: MetricParams,
    x_cap: float,
    x_floor: Optional[float] = None,
) -> List[QuerySegment]:
    """Query segments covering the newly exposed left-boundary piece of an
    edge (1 < p < inf) or governing box corner (p in {1, inf}; pass the
    corner as a degenerate edge), clipped to x <= x_cap.

    For p = inf the boundary line is unbounded to the upper left, so the
    caller must supply x_floor, a lower abscissa bound covering every
    stored point.
    """
    a, b = edge
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
        wedge = QuerySegment(Point(wall, cy), Point(hi, beta * (cx - hi)))
        cap = QuerySegment(Point(wall, cy), Point(hi, cy))
        return [wedge, cap]
    if m.closure_kind == "diamond_box":
        if a != b:
            raise InvalidInputError("box metrics expose corners; pass (corner, corner)")
        if x_floor is None:
            raise InvalidInputError("p=inf exposure needs an explicit x_floor")
        cx, cy = a.x, abs(a.y)
        hi = min(cx, x_cap)
        if hi <= x_floor:
            return []
        base = cx - cy
        return [QuerySegment(Point(x_floor, base - x_floor), Point(hi, base - hi))]
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
