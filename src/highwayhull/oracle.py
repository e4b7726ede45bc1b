"""Brute-force reference clustering.

Deliberately simple: union-find over every point pair, then a fixed-point
loop that recomputes each cluster's closure hulls and absorbs any outside
point lying in the walking region of a boundary edge (both chains) or a
virtual box corner.  Edge-region membership is decided by a 200-step
ternary search on each convex piece of the objective, with endpoints
always included.  Nothing here shares code with the incremental builder
beyond the metric predicates and the closure-hull constructor, so the two
routes can disagree and be compared.

The pair stage is quadratic and the fixpoint can rescan every point per
edge, so inputs are refused above a size budget unless explicitly
overridden; an optional deadline turns long runs into a measurable
refusal instead of an open-ended burn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import ClosureHull, closure_hull
from .metric import (
    INF,
    InvalidInputError,
    MetricParams,
    Point,
    coordinates,
    highway_time,
    in_walking_region,
    lp_distance,
    reach_coefficient,
)

SIZE_LIMIT = 10_000
TERNARY_STEPS = 200


class OracleBudgetError(RuntimeError):
    """Raised when a deadline-bounded run exceeds its time budget."""

    def __init__(self, elapsed: float):
        super().__init__("oracle run exceeded its deadline after %.3f s" % elapsed)
        self.elapsed = elapsed


@dataclass
class OraclePartition:
    partition: List[List[int]]
    iterations: int
    min_margin: float


def _edge_gap_min(u: Point, a: Point, b: Point, m: MetricParams) -> Tuple[float, float]:
    """Minimum over the edge of the highway separation gap, and the edge
    parameter where it is attained.  Both gap components are linear in the
    parameter, so the minimum of their pointwise max sits at an endpoint
    or at the crossing."""
    t = m.tan_alpha
    ur, ul = u.x + abs(u.y) * t, u.x - abs(u.y) * t

    def gap(s: float) -> float:
        px = a.x + s * (b.x - a.x)
        py = a.y + s * (b.y - a.y)
        return max(px - abs(py) * t - ur, ul - (px + abs(py) * t))

    best_s = 0.0
    best = gap(0.0)
    g1 = gap(1.0)
    if g1 < best:
        best, best_s = g1, 1.0
    g1a = a.x - abs(a.y) * t - ur
    g1b = b.x - abs(b.y) * t - ur
    g2a = ul - (a.x + abs(a.y) * t)
    g2b = ul - (b.x + abs(b.y) * t)
    d1, d2 = g1b - g1a, g2b - g2a
    if d1 != d2:
        s = (g2a - g1a) / (d1 - d2)
        if 0.0 < s < 1.0:
            gs = gap(s)
            if gs < best:
                best, best_s = gs, s
    return best, best_s


def point_in_edge_region(u: Point, e: Tuple[Point, Point], m: MetricParams) -> bool:
    """True iff u is in the walking region of some point on segment e."""
    hit, _ = _edge_region_margin(u, e, m)
    return hit


def _edge_region_margin(
    u: Point, e: Tuple[Point, Point], m: MetricParams
) -> Tuple[bool, float]:
    a, b = e

    def f(s: float) -> float:
        p = Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
        hw = highway_time(p, u, m)
        if hw is None:
            return -INF
        return lp_distance(p, u, m.p) - hw

    gap_min, gap_s = _edge_gap_min(u, a, b, m)
    if gap_min < 0.0:
        # in-region by the overlap convention; the decision is a tie only
        # if walking would lose once the intervals separated
        px = a.x + gap_s * (b.x - a.x)
        py = a.y + gap_s * (b.y - a.y)
        direct = lp_distance(Point(px, py), u, m.p)
        ride0 = (abs(py) + abs(u.y)) * m.descent_cost
        margin = INF if direct <= ride0 else abs(gap_min)
        return True, margin

    if a == b:
        v = f(0.0)
        return v <= 0.0, abs(v)

    if m.vertical_descent and (
        (u.y >= 0.0 and a.y <= 0.0 and b.y <= 0.0)
        or (u.y <= 0.0 and a.y >= 0.0 and b.y >= 0.0)
    ):
        # vertical descent with the edge on the far side: walking ties riding
        # exactly at abscissa alignment, so membership reduces to an x-span
        # test and the flip distance is measured along x, not in time units
        lo_x, hi_x = min(a.x, b.x), max(a.x, b.x)
        if lo_x <= u.x <= hi_x:
            return True, min(u.x - lo_x, hi_x - u.x)
        val = min(f(0.0), f(1.0))
        if val <= 0.0:
            # rounding already ties the nearer endpoint; the same endpoint
            # evaluation decides on every route, so this cannot flip
            return True, INF
        return False, max(lo_x - u.x, u.x - hi_x)

    pieces = [(0.0, 1.0)]
    if b.x != a.x:
        s0 = (u.x - a.x) / (b.x - a.x)
        if 0.0 < s0 < 1.0:
            pieces = [(0.0, s0), (s0, 1.0)]
    best = INF
    for lo, hi in pieces:
        v = min(f(lo), f(hi))
        if v < best:
            best = v
        for _ in range(TERNARY_STEPS):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if f(m1) <= f(m2):
                hi = m2
            else:
                lo = m1
        v = f(0.5 * (lo + hi))
        if v < best:
            best = v
    return best <= 0.0, abs(best)


def _boundary(h: ClosureHull) -> Tuple[List[Point], List[Tuple[Point, Point]]]:
    gens: List[Point] = list(h.corner_generators)
    edges: List[Tuple[Point, Point]] = []
    for ch in (h.upper, h.lower):
        vs = ch.vertices
        edges.extend((vs[i], vs[i + 1]) for i in range(len(vs) - 1))
    return gens, edges


def cluster(
    points: Sequence[Point],
    m: MetricParams,
    size_limit: int = SIZE_LIMIT,
    deadline: Optional[float] = None,
) -> OraclePartition:
    """Partition `points` by exhaustive search.

    `size_limit` refuses oversized inputs (override consciously for scaling
    experiments); `deadline` (seconds) aborts with OracleBudgetError so a
    run can certify "slower than X" without completing.
    """
    pts = list(map(Point, *coordinates(points)))
    n = len(pts)
    if n > size_limit:
        raise InvalidInputError(
            "oracle refuses %d points (limit %d); pass size_limit to override"
            % (n, size_limit)
        )
    t0 = time.perf_counter()

    def check_deadline() -> None:
        if deadline is not None and time.perf_counter() - t0 > deadline:
            raise OracleBudgetError(time.perf_counter() - t0)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    min_margin = INF
    k = reach_coefficient(m)

    for i in range(n):
        if i % 256 == 0:
            check_deadline()
        pi = pts[i]
        for j in range(i + 1, n):
            pj = pts[j]
            if pi == pj:
                union(i, j)
                continue
            dx, y = abs(pi.x - pj.x), abs(pi.y) + abs(pj.y)
            if dx > k * y:
                # the linear-margin lemma of reach_coefficient bounds
                # direct - highway below by this
                margin = (1.0 - 1.0 / m.v) * (dx - k * y)
                if margin < min_margin:
                    min_margin = margin
                continue
            hw = highway_time(pi, pj, m)
            if hw is None:
                # the entries overlap: walking loses only once the gap is
                # positive and direct exceeds the zero-gap ride
                ride0 = y * m.descent_cost
                margin = max(abs(dx - y * m.tan_alpha), ride0 - lp_distance(pi, pj, m.p))
                if margin < min_margin:
                    min_margin = margin
                union(i, j)
                continue
            direct = lp_distance(pi, pj, m.p)
            aligned_family = m.vertical_descent and (
                (pi.y >= 0.0 and pj.y <= 0.0) or (pi.y <= 0.0 and pj.y >= 0.0)
            )
            # with a vertical descent a far-side pair ties only at abscissa
            # alignment; its float gap measures |dx| resolution, not decision
            # fragility, which the edge probes track in x units instead
            if not aligned_family and abs(direct - hw) < min_margin:
                min_margin = abs(direct - hw)
            if direct <= hw:
                union(i, j)

    iterations = 0
    while True:
        iterations += 1
        check_deadline()
        comps = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(i)
        changed = False
        for root, members in comps.items():
            above = [pts[i] for i in members if pts[i].y >= 0.0]
            below = [pts[i] for i in members if pts[i].y < 0.0]
            gens: List[Point] = []
            edges: List[Tuple[Point, Point]] = []
            for side in (above, below):
                if side:
                    g, e = _boundary(closure_hull(side, m))
                    gens.extend(g)
                    edges.extend(e)
            if not gens and not edges:
                continue
            emax_y = max(
                (max(abs(a.y), abs(b.y)) for a, b in edges), default=0.0
            )
            gmax_y = max((abs(g.y) for g in gens), default=0.0)
            exl = min((min(a.x, b.x) for a, b in edges), default=INF)
            exr = max((max(a.x, b.x) for a, b in edges), default=-INF)
            gxl = min((g.x for g in gens), default=INF)
            gxr = max((g.x for g in gens), default=-INF)
            for u_i in range(n):
                if find(u_i) == root:
                    continue
                u = pts[u_i]
                hit = False
                if gens:
                    reach = k * (gmax_y + abs(u.y))
                    if gxl - reach <= u.x <= gxr + reach:
                        for g in gens:
                            if abs(g.x - u.x) > k * (abs(g.y) + abs(u.y)):
                                continue
                            if in_walking_region(g, u, m):
                                hit = True
                                break
                if not hit and edges:
                    reach = k * (emax_y + abs(u.y))
                    if exl - reach <= u.x <= exr + reach:
                        for a, b in edges:
                            if (
                                u.x - max(a.x, b.x) > k * (max(abs(a.y), abs(b.y)) + abs(u.y))
                                or min(a.x, b.x) - u.x
                                > k * (max(abs(a.y), abs(b.y)) + abs(u.y))
                            ):
                                continue
                            inside, margin = _edge_region_margin(u, (a, b), m)
                            if margin < min_margin:
                                min_margin = margin
                            if inside:
                                hit = True
                                break
                if hit:
                    union(root, u_i)
                    changed = True
            check_deadline()
        if not changed:
            break

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    partition = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    return OraclePartition(partition=partition, iterations=iterations, min_margin=min_margin)
