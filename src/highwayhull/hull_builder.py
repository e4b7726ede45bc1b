"""End-to-end time-convex hull construction.

Points are deduplicated, split by side of the highway (y == 0 counts as
above), and each side is clustered by one left-to-right sweep: an arrival
either lands in the right walking region of a live cluster, merging the
whole suffix from that cluster on, or starts a new cluster.  After each
merge the newly created boundary (positive-slope bridge edges, or the
moved box corner for p in {1, inf}) can expose region not covered by any
older boundary, so those pieces are queried against the static point set
with the subpath hull structure and every hit merges the rightmost pair
of clusters; the loop runs until no exposure hits.

Sides are then joined: two clusters merge when some member pair walks, or
when a member of one lies in the walking region of a closure edge or
virtual corner of the other.  Stage one tests opposite-side member pairs
only inside the entry cone |dx| <= kx (|ay| + |by|) + D of
`metric.cross_side_window`, scanning the below members band by band of
|y|.  Growth of merged closures can expose more points, so the join then
iterates to a fixed point: components are swept in x-span order with the
reach slack, edge-region tests are cut to the reach box of
`reach_coefficient`'s linear-margin lemma, and each round rebuilds and
retests only the components the previous round changed.  A side holding
a single swept cluster keeps that cluster's incrementally built hull.

Footprints and bridges come last: a cluster's footprint spans the highway
interval its internal shortest paths ride, and bridges fill the highway
gaps between consecutive clusters.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from scipy.optimize import minimize_scalar

from . import subpath_hull
from .frontier import EnvelopeEntry, Frontier
from .geometry import (
    Chain,
    ClosureHull,
    closure_hull,
    exposed_boundary_segments,
    push_lower,
    push_upper,
)
from .metric import (
    FLOAT_EPS,
    INF,
    InvalidInputError,
    MetricParams,
    Point,
    box_coords,
    box_point,
    cross_side_window,
    entry_points,
    highway_time,
    in_walking_region,
    lp_distance,
    reach_coefficient,
)

EPS_REGION = 1e-12

# a side's cluster: member points in original coordinates, dedup ids
Group = Tuple[List[Point], List[int]]


@dataclass
class Cluster:
    """One cluster of the partition.

    Mixed-side clusters carry one closure per side; `closure` exposes the
    above-side hull (or the only one) for the common one-sided case.
    """

    member_indices: List[int]
    closure_above: Optional[ClosureHull]
    closure_below: Optional[ClosureHull]
    footprint: Optional[Tuple[float, float]] = None

    @property
    def closure(self) -> ClosureHull:
        c = self.closure_above if self.closure_above is not None else self.closure_below
        assert c is not None
        return c


@dataclass
class TimeConvexHull:
    params: MetricParams
    clusters: List[Cluster]
    bridges: List[Tuple[float, float]] = field(default_factory=list)


class _Live(EnvelopeEntry):
    """Mutable per-side cluster state during the sweep (side coordinates:
    y >= 0, below-side points pre-mirrored)."""

    __slots__ = ("members", "member_ids", "lower", "box", "corner")

    def __init__(self):
        super().__init__()
        self.members: List[Point] = []
        self.member_ids: List[int] = []
        self.lower: List[Point] = []
        # box metrics: extremes [s0, s1, t0, t1] in the frame of
        # metric.box_coords, and the corner whose moves expose region
        self.box: Optional[List[float]] = None
        self.corner: Optional[Point] = None


class _SideBuilder:
    """Sweeps one side's deduplicated points (y >= 0, x-sorted)."""

    def __init__(self, pts: List[Point], ids: List[int], m: MetricParams):
        self.pts = pts
        self.ids = ids
        self.m = m
        self.frontier = Frontier(m)
        self.tree = None
        self.x_floor = (min(p.x for p in pts) - 1.0) if pts else 0.0
        self.kind = m.closure_kind
        # the exposing corner: the box's upper left for p = 1, the apex for p = inf
        self.apex_exposes = self.kind == "diamond_box"

    # -- cluster state maintenance -------------------------------------

    def _new_cluster(self, q: Point, qid: int) -> _Live:
        c = _Live()
        c.members = [q]
        c.member_ids = [qid]
        c.left_x = c.right_x = q.x
        c.ymax = q.y
        if self.kind == "convex":
            c.chain = [q]
            c.lower = [q]
            c.t_idx = 0
        else:
            s, t = box_coords(q, self.kind)
            c.box = [s, s, t, t]
            c.right_corner = q
            c.corner = box_point(s, t, self.kind)
        return c

    def _grow_box(self, c: _Live, s0: float, s1: float, t0: float, t1: float, events: List) -> None:
        """Widen c's box to cover [s0, s1] x [t0, t1]; queue the exposing
        corner if it moved."""
        b = c.box
        assert b is not None
        b[0] = min(b[0], s0)
        b[1] = max(b[1], s1)
        b[2] = min(b[2], t0)
        b[3] = max(b[3], t1)
        kind = self.kind
        c.right_corner = top = box_point(b[1], b[3], kind)
        c.right_x = box_point(b[1], b[2], kind).x
        c.ymax = top.y
        corner = top if self.apex_exposes else box_point(b[0], b[3], kind)
        if corner != c.corner:
            c.corner = corner
            events.append((corner, corner))

    def _append_point(self, c: _Live, q: Point, qid: int, events: List) -> None:
        c.members.append(q)
        c.member_ids.append(qid)
        c.left_x = min(c.left_x, q.x)
        if c.box is not None:
            s, t = box_coords(q, self.kind)
            self._grow_box(c, s, s, t, t, events)
            return
        appended = push_upper(c.chain, q)
        push_lower(c.lower, q)
        if appended:
            t_alive = c.t_idx < len(c.chain) - 1
            if not t_alive or q.y >= c.chain[c.t_idx].y:
                c.t_idx = len(c.chain) - 1
            if len(c.chain) >= 2:
                a, b = c.chain[-2], c.chain[-1]
                if b.y > a.y:
                    events.append((a, b))
        c.right_x = max(c.right_x, q.x)
        c.ymax = max(c.ymax, q.y)

    def _merge(self, left: _Live, right: _Live, events: List) -> _Live:
        """Absorb `right` (strictly to the right) into `left`."""
        left.members.extend(right.members)
        left.member_ids.extend(right.member_ids)
        left.left_x = min(left.left_x, right.left_x)
        if left.box is not None:
            assert right.box is not None
            self._grow_box(left, *right.box, events)
            return left
        left.right_x = max(left.right_x, right.right_x)
        left.ymax = max(left.ymax, right.ymax)
        old_right_x = left.chain[-1].x
        for v in right.chain:
            push_upper(left.chain, v)
        for v in right.lower:
            push_lower(left.lower, v)
        # bridge edge joins the survivors of the two original chains
        s = bisect_right([p.x for p in left.chain], old_right_x)
        if 0 < s < len(left.chain):
            a, b = left.chain[s - 1], left.chain[s]
            if b.y > a.y:
                events.append((a, b))
        # rightmost highest vertex of the merged chain
        best_i = 0
        best_y = -INF
        for i, v in enumerate(left.chain):
            if v.y >= best_y:
                best_y, best_i = v.y, i
        left.t_idx = best_i
        left.tangents.update(right.tangents)
        return left

    # -- sweep ----------------------------------------------------------

    def run(self) -> List[_Live]:
        for q, qid in zip(self.pts, self.ids):
            self._arrive(q, qid)
        return self.frontier.live

    def _arrive(self, q: Point, qid: int) -> None:
        live = self.frontier.live
        j = self.frontier.locate(q)
        events: List = []
        if j is None:
            self.frontier.append(self._new_cluster(q, qid))
        else:
            c = live[j]
            for r in live[j + 1 :]:
                self._merge(c, r, events)
            self._append_point(c, q, qid, events)
            self.frontier.update(c, len(live) - j)
        self._drain(events)

    def _drain(self, events: List) -> None:
        live = self.frontier.live
        while events:
            if len(live) < 2:
                events.clear()
                return
            e = events[-1]
            segs = exposed_boundary_segments(
                e, self.m, x_cap=live[-1].left_x, x_floor=self.x_floor
            )
            hit = False
            if segs:
                if self.tree is None:
                    self.tree = subpath_hull.build(self.pts)
                hit = any(self.tree.any_point_above(s) for s in segs)
            if not hit:
                events.pop()
                continue
            left = live[-2]
            self._merge(left, live[-1], events)
            self.frontier.update(left, 2)


def _side_closure(c: _Live, m: MetricParams, mirror: bool) -> ClosureHull:
    """Closure hull from the live chains / box extremes (side coordinates);
    `mirror` maps the result back below the highway."""
    if c.box is not None:
        pts = c.members
        if mirror:
            pts = [Point(p.x, -p.y) for p in pts]
        return closure_hull(pts, m)
    up = c.chain
    lo = c.lower
    if not mirror:
        return ClosureHull(
            kind="convex",
            upper=Chain(tuple(up), "upper"),
            lower=Chain(tuple(lo), "lower"),
            corner_generators=(),
        )
    return ClosureHull(
        kind="convex",
        upper=Chain(tuple(Point(p.x, -p.y) for p in lo), "upper"),
        lower=Chain(tuple(Point(p.x, -p.y) for p in up), "lower"),
        corner_generators=(),
    )


def _boundary_generators(h: ClosureHull) -> List[Point]:
    seen = {}
    for v in h.upper.vertices:
        seen[(v.x, v.y)] = v
    for v in h.lower.vertices:
        seen[(v.x, v.y)] = v
    for v in h.corner_generators:
        seen[(v.x, v.y)] = v
    return list(seen.values())


def _boundary_edges(h: ClosureHull) -> List[Tuple[Point, Point]]:
    out = []
    for ch in (h.upper, h.lower):
        vs = ch.vertices
        out.extend((vs[i], vs[i + 1]) for i in range(len(vs) - 1))
    return out


def _gap_undefined_on_edge(u: Point, a: Point, b: Point, m: MetricParams) -> bool:
    """True if some edge point's entry interval overlaps u's (walk trivially
    beats a doubled-back ride, so such a pair is in-region by convention)."""
    t = m.tan_alpha
    ul, ur = u.x - abs(u.y) * t, u.x + abs(u.y) * t

    def gap_at(p: Point) -> float:
        return max(p.x - abs(p.y) * t - ur, ul - (p.x + abs(p.y) * t))

    # per-coordinate linear in the edge parameter, so the max is convex;
    # negative anywhere iff negative at an endpoint or at the crossing kink
    if gap_at(a) <= 0.0 or gap_at(b) <= 0.0:
        return True
    g1a = a.x - abs(a.y) * t - ur
    g1b = b.x - abs(b.y) * t - ur
    g2a = ul - (a.x + abs(a.y) * t)
    g2b = ul - (b.x + abs(b.y) * t)
    d1, d2 = g1b - g1a, g2b - g2a
    if d1 == d2:
        return False
    s = (g2a - g1a) / (d1 - d2)
    if 0.0 < s < 1.0:
        mid = Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
        if gap_at(mid) <= 0.0:
            return True
    return False


def _point_in_edge_region(u: Point, a: Point, b: Point, m: MetricParams) -> bool:
    """True iff u lies in the walking region of some point of segment ab."""
    if in_walking_region(a, u, m) or in_walking_region(b, u, m):
        return True
    if a == b:
        return False
    if m.vertical_descent and (
        (u.y >= 0.0 and a.y <= 0.0 and b.y <= 0.0)
        or (u.y <= 0.0 and a.y >= 0.0 and b.y >= 0.0)
    ):
        # vertical descent with the edge on the far side: in-region exactly
        # when some edge point aligns with u in x (the endpoint checks above
        # already caught any rounding tie just past the span)
        return min(a.x, b.x) <= u.x <= max(a.x, b.x)
    if _gap_undefined_on_edge(u, a, b, m):
        return True

    def f(s: float) -> float:
        p = Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
        hw = highway_time(p, u, m)
        if hw is None:
            return -INF
        return lp_distance(p, u, m.p) - hw

    # |dx| kinks the highway term; each side of the kink is convex
    pieces = [(0.0, 1.0)]
    if b.x != a.x:
        s0 = (u.x - a.x) / (b.x - a.x)
        if 0.0 < s0 < 1.0:
            pieces = [(0.0, s0), (s0, 1.0)]
    for lo, hi in pieces:
        if f(lo) <= EPS_REGION or f(hi) <= EPS_REGION:
            return True
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        if res.fun <= EPS_REGION:
            return True
    return False


def _edge_reach(m: MetricParams, k: float, x_abs: float) -> Tuple[float, float]:
    """(kr, dr) such that u with u.x outside [min(ax, bx) - R, max(ax, bx) + R],
    R = kr (|uy| + max(|ay|, |by|)) + dr, is in the walking region of no
    point of edge ab, as `_point_in_edge_region` decides in floats; x_abs
    bounds every |x|.

    By the linear-margin lemma of `reach_coefficient` every edge point has
    direct - highway >= (1 - 1/v) (|dx| - k Y); the slack beyond k Y covers
    EPS_REGION twice plus the float error of the differences (relative to
    the heights, absolute from the abscissae of the highway gap).  A bare
    relative slack k Y (1 + 1e-9) is not enough: at v -> 1 with |x| ~ 1e8,
    rounding links points up to 1e-4 k Y past k Y.
    """
    w = 1.0 - m.inv_v
    kr = k * (1.0 + 1e-9) + 64.0 * FLOAT_EPS * (k + m.descent_cost) / w
    dr = (2.0 * EPS_REGION + 64.0 * FLOAT_EPS * x_abs) / w
    return kr, dr


@dataclass
class _Component:
    """Boundary of one cross-side component: generators, edges with their
    x-span and height, and the generators' x-span and height."""

    gens: List[Point]
    edges: List[Tuple[Point, Point, float, float, float]]
    lo: float
    hi: float
    ymax: float


def _component(pts_a: List[Point], pts_b: List[Point], m: MetricParams) -> _Component:
    gens: List[Point] = []
    edges: List[Tuple[Point, Point, float, float, float]] = []
    for pts in (pts_a, pts_b):
        if not pts:
            continue
        h = closure_hull(pts, m)
        gens.extend(_boundary_generators(h))
        for a, b in _boundary_edges(h):
            edges.append((a, b, min(a.x, b.x), max(a.x, b.x), max(abs(a.y), abs(b.y))))
    xs = [p.x for p in gens]
    return _Component(gens, edges, min(xs), max(xs), max(abs(p.y) for p in gens))


def _clusters_linked(
    ca: _Component, cb: _Component, m: MetricParams, k: float, kr: float, dr: float
) -> bool:
    for p in ca.gens:
        for q in cb.gens:
            if abs(p.x - q.x) <= k * (abs(p.y) + abs(q.y)) and in_walking_region(p, q, m):
                return True
    for edges, gens in ((ca.edges, cb.gens), (cb.edges, ca.gens)):
        for a, b, x0, x1, ye in edges:
            for u in gens:
                r = kr * (abs(u.y) + ye) + dr
                if x0 - r <= u.x <= x1 + r and _point_in_edge_region(u, a, b, m):
                    return True
    return False


class _UnionFind:
    """Union-find over group indices with a live component count."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx
            self.count -= 1

    def groups(self) -> List[List[int]]:
        """Members of each component in increasing order, components by
        their smallest member."""
        out: Dict[int, List[int]] = {}
        for i in range(len(self.parent)):
            out.setdefault(self.find(i), []).append(i)
        return list(out.values())


def _x_abs(groups: Sequence[Group]) -> float:
    return max(abs(p.x) for pts, _ in groups for p in pts)


def _link_member_pairs(groups: Sequence[Group], n_above: int, uf: _UnionFind, m: MetricParams) -> None:
    """Stage 1: union groups 0..n_above-1 (above) with the rest (below)
    through member pairs that walk.

    By the cone lemma of `metric.cross_side_window` such a pair has
    |dx| <= kx Y + D, so each above member scans the below members band by
    band (bands of |y| doubling, those under 2^-30 of the tallest merged),
    within that window at the band's top height.  The reach filter
    |dx| <= k Y and the range of a scan against the tallest below member
    stay as well: at v -> 1 rounding links pairs beyond k Y, and the join
    has never tested those.
    """
    k = reach_coefficient(m)
    kx, dcoef = cross_side_window(m)
    d = dcoef * _x_abs(groups)
    find = uf.find
    by_band: Dict[int, List[Tuple[float, float, int]]] = {}
    ymax_b = max(-p.y for pts, _ in groups[n_above:] for p in pts)
    e_floor = math.frexp(ymax_b)[1] - 30
    for gi in range(n_above, len(groups)):
        for p in groups[gi][0]:
            by_band.setdefault(max(math.frexp(-p.y)[1], e_floor), []).append((p.x, p.y, gi))
    bands = []
    for flat in by_band.values():
        flat.sort()
        bands.append(([t[0] for t in flat], flat, max(-t[1] for t in flat)))
    for gi in range(n_above):
        for p in groups[gi][0]:
            if uf.count == 1:
                return
            reach = k * (p.y + ymax_b)
            lo_x, hi_x = p.x - reach, p.x + reach
            for xs_b, flat_b, yhi in bands:
                w = kx * (p.y + yhi) + d
                lo = bisect_left(xs_b, max(lo_x, p.x - w))
                hi = bisect_right(xs_b, min(hi_x, p.x + w))
                for t in range(lo, hi):
                    bx, by, gj = flat_b[t]
                    dx = abs(p.x - bx)
                    if dx > k * (p.y + abs(by)) or dx > kx * (p.y + abs(by)) + d:
                        continue
                    if find(gi) != find(gj) and in_walking_region(p, Point(bx, by), m):
                        uf.union(gi, gj)
                        if uf.count == 1:
                            return


def _grow_to_fixpoint(groups: Sequence[Group], uf: _UnionFind, m: MetricParams) -> None:
    """Union components until no closure generator, edge or virtual corner
    of one captures a boundary generator of another (either side).

    Components are swept by the low end of their x-span with the reach
    slack; only components changed in the previous round are rebuilt, and
    only pairs with a changed side are retested.  Unions do not depend on
    the order pairs are tested in, so every round ends with the partition
    that testing every pair would give.
    """
    k = reach_coefficient(m)
    kr, dr = _edge_reach(m, k, _x_abs(groups))
    find = uf.find
    comps: Dict[int, _Component] = {}
    fresh: Optional[set] = None  # roots rebuilt this round; None: all
    while uf.count > 1:
        members: Dict[int, List[int]] = {}
        for i in range(len(groups)):
            members.setdefault(find(i), []).append(i)
        comps = {r: comps[r] for r in members if fresh is not None and r not in fresh}
        for r, gis in members.items():
            if r not in comps:
                pts = [p for gi in gis for p in groups[gi][0]]
                comps[r] = _component(
                    [p for p in pts if p.y >= 0.0], [p for p in pts if p.y < 0.0], m
                )
        order = sorted(comps, key=lambda r: comps[r].lo)
        los = [comps[r].lo for r in order]
        ym_all = max(c.ymax for c in comps.values())
        touched = []
        for a, ri in enumerate(order):
            ci = comps[ri]
            fresh_i = fresh is None or ri in fresh
            reach = k * (ci.ymax + ym_all)
            # widened past rounding; the exact slack test below decides
            end = bisect_right(los, ci.hi + reach + 1e-12 * (abs(ci.hi) + reach), a + 1)
            for b in range(a + 1, end):
                rj = order[b]
                if not (fresh_i or rj in fresh):
                    continue
                cj = comps[rj]
                slack = k * (ci.ymax + cj.ymax)
                if cj.lo - ci.hi > slack or ci.lo - cj.hi > slack:
                    continue
                if find(ri) != find(rj) and _clusters_linked(ci, cj, m, k, kr, dr):
                    uf.union(ri, rj)
                    touched.append(ri)
        if not touched:
            break
        fresh = {find(r) for r in touched}


def cross_side_merge(
    above_groups: Sequence[Group], below_groups: Sequence[Group], m: MetricParams
) -> List[List[int]]:
    """Union per-side clusters into mixed components.

    Each group is (member points in original coordinates, dedup ids); the
    result lists each component's group indices (above groups first, then
    below ones) in increasing order, components by their smallest index.
    Stage one unions via cross-side member pairs; the fixpoint stage then
    grows components whose merged closures expose further members.
    """
    groups = list(above_groups) + list(below_groups)
    uf = _UnionFind(len(groups))
    _link_member_pairs(groups, len(above_groups), uf, m)
    _grow_to_fixpoint(groups, uf, m)
    return uf.groups()


def _cluster_footprint(boundary: List[Point], m: MetricParams) -> Optional[Tuple[float, float]]:
    lo = INF
    hi = -INF
    n = len(boundary)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = boundary[i], boundary[j]
            if a.x > b.x or (a.x == b.x and abs(a.y) > abs(b.y)):
                continue
            hw = highway_time(a, b, m)
            if hw is None or hw >= lp_distance(a, b, m.p):
                continue
            lo = min(lo, entry_points(a, m)[1].x)
            hi = max(hi, entry_points(b, m)[0].x)
    if lo > hi:
        return None
    return (lo, hi)


def footprints_and_bridges(tch: TimeConvexHull) -> TimeConvexHull:
    """Fill footprints and the highway bridges between consecutive clusters."""
    m = tch.params
    anchors: List[Tuple[float, float]] = []
    for cl in tch.clusters:
        boundary: List[Point] = []
        for h in (cl.closure_above, cl.closure_below):
            if h is not None:
                boundary.extend(_boundary_generators(h))
        cl.footprint = _cluster_footprint(boundary, m)
        left_touch = min(entry_points(g, m)[0].x for g in boundary)
        right_touch = max(entry_points(g, m)[1].x for g in boundary)
        if cl.footprint is not None:
            anchors.append((cl.footprint[0], cl.footprint[1]))
        else:
            anchors.append((left_touch, right_touch))
    bridges = []
    for i in range(len(tch.clusters) - 1):
        a = anchors[i][1]
        b = anchors[i + 1][0]
        if b > a:
            bridges.append((a, b))
    tch.bridges = bridges
    return tch


def build(points: Sequence[Point], m: MetricParams) -> TimeConvexHull:
    """Cluster `points` under metric `m` and assemble the full hull."""
    pts = [Point(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise InvalidInputError("need at least one point")
    for p in pts:
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise InvalidInputError("coordinates must be finite")

    # collapse duplicates; dedup id -> original indices
    index_of: Dict[Tuple[float, float], int] = {}
    dedup: List[Point] = []
    orig: List[List[int]] = []
    for i, p in enumerate(pts):
        key = (p.x, p.y)
        di = index_of.get(key)
        if di is None:
            index_of[key] = len(dedup)
            dedup.append(p)
            orig.append([i])
        else:
            orig[di].append(i)

    above = sorted(
        (i for i, p in enumerate(dedup) if p.y >= 0.0),
        key=lambda i: (dedup[i].x, dedup[i].y),
    )
    below = sorted(
        (i for i, p in enumerate(dedup) if p.y < 0.0),
        key=lambda i: (dedup[i].x, -dedup[i].y),
    )

    # per-side sweeps; `lives` holds the above clusters, then the below ones
    sides = [
        _SideBuilder([Point(dedup[i].x, -dedup[i].y) if mirror else dedup[i] for i in ids],
                     list(ids), m).run()
        for ids, mirror in ((above, False), (below, True))
    ]
    lives = sides[0] + sides[1]
    n_above = len(sides[0])

    if 0 < n_above < len(lives):
        comps = cross_side_merge(
            [([dedup[i] for i in c.member_ids], c.member_ids) for c in lives[:n_above]],
            [([dedup[i] for i in c.member_ids], c.member_ids) for c in lives[n_above:]],
            m,
        )
    else:
        comps = [[i] for i in range(len(lives))]

    # a side holding exactly one live cluster reuses its incrementally built
    # hull; a side gathered from several is rebuilt from its members
    clusters: List[Cluster] = []
    for comp in comps:
        hulls: List[Optional[ClosureHull]] = []
        for mirror, side in ((False, [i for i in comp if i < n_above]),
                             (True, [i for i in comp if i >= n_above])):
            if len(side) == 1:
                hulls.append(_side_closure(lives[side[0]], m, mirror))
            elif side:
                hulls.append(closure_hull([dedup[i] for gi in side for i in lives[gi].member_ids], m))
            else:
                hulls.append(None)
        members = sorted(i for gi in comp for di in lives[gi].member_ids for i in orig[di])
        clusters.append(Cluster(members, hulls[0], hulls[1]))

    clusters.sort(key=lambda cl: min(pts[i].x for i in cl.member_indices))
    tch = TimeConvexHull(params=m, clusters=clusters)
    return footprints_and_bridges(tch)
