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
virtual corner of the other.  Growth of merged closures can expose more
points, so the cross-side stage iterates to a fixed point.

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
    INF,
    InvalidInputError,
    MetricParams,
    Point,
    entry_points,
    highway_time,
    in_walking_region,
    lp_distance,
    reach_coefficient,
)

EPS_REGION = 1e-12


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

    __slots__ = ("members", "member_ids", "lower", "box")

    def __init__(self):
        super().__init__()
        self.members: List[Point] = []
        self.member_ids: List[int] = []
        self.lower: List[Point] = []
        # box extremes (p=1): [x0, x1, y0, y1]; (p=inf): rotated [u0, u1, w0, w1]
        self.box: Optional[List[float]] = None


class _SideBuilder:
    """Sweeps one side's deduplicated points (y >= 0, x-sorted)."""

    def __init__(self, pts: List[Point], ids: List[int], m: MetricParams):
        self.pts = pts
        self.ids = ids
        self.m = m
        self.frontier = Frontier(m)
        self.live: List[_Live] = []
        self.tree = None
        self.x_floor = (min(p.x for p in pts) - 1.0) if pts else 0.0

    # -- cluster state maintenance -------------------------------------

    def _new_cluster(self, q: Point, qid: int) -> _Live:
        c = _Live()
        c.members = [q]
        c.member_ids = [qid]
        c.left_x = c.right_x = q.x
        c.ymax = q.y
        if self.m.closure_kind == "axis_box":
            c.box = [q.x, q.x, q.y, q.y]
            c.right_corner = Point(q.x, q.y)
        elif self.m.closure_kind == "diamond_box":
            u, w = q.x + q.y, q.y - q.x
            c.box = [u, u, w, w]
            c.right_corner = Point(q.x, q.y)
        else:
            c.chain = [q]
            c.lower = [q]
            c.t_idx = 0
        return c

    def _left_corner(self, c: _Live) -> Point:
        assert c.box is not None
        if self.m.closure_kind == "axis_box":
            return Point(c.box[0], c.box[3])
        u1, w1 = c.box[1], c.box[3]
        return Point((u1 - w1) / 2.0, (u1 + w1) / 2.0)

    def _set_box_corners(self, c: _Live) -> None:
        assert c.box is not None
        if self.m.closure_kind == "axis_box":
            c.right_corner = Point(c.box[1], c.box[3])
            c.right_x = c.box[1]
            c.ymax = c.box[3]
        else:
            # governing generator is the diamond apex; reach is measured
            # from the diamond's right corner
            u1, w0, w1 = c.box[1], c.box[2], c.box[3]
            c.right_corner = Point((u1 - w1) / 2.0, (u1 + w1) / 2.0)
            c.right_x = (u1 - w0) / 2.0
            c.ymax = (u1 + w1) / 2.0

    def _absorb_box(self, c: _Live, q: Point) -> None:
        assert c.box is not None
        if self.m.closure_kind == "axis_box":
            b = c.box
            b[0] = min(b[0], q.x)
            b[1] = max(b[1], q.x)
            b[2] = min(b[2], q.y)
            b[3] = max(b[3], q.y)
        else:
            u, w = q.x + q.y, q.y - q.x
            b = c.box
            b[0] = min(b[0], u)
            b[1] = max(b[1], u)
            b[2] = min(b[2], w)
            b[3] = max(b[3], w)
        self._set_box_corners(c)

    def _append_point(self, c: _Live, q: Point, qid: int, events: List) -> None:
        c.members.append(q)
        c.member_ids.append(qid)
        c.left_x = min(c.left_x, q.x)
        if c.box is not None:
            old = self._left_corner(c)
            self._absorb_box(c, q)
            new = self._left_corner(c)
            if new != old:
                events.append((new, new))
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
        left.right_x = max(left.right_x, right.right_x)
        left.ymax = max(left.ymax, right.ymax)
        left.left_x = min(left.left_x, right.left_x)
        if left.box is not None:
            assert right.box is not None
            old = self._left_corner(left)
            b, rb = left.box, right.box
            b[0] = min(b[0], rb[0])
            b[1] = max(b[1], rb[1])
            b[2] = min(b[2], rb[2])
            b[3] = max(b[3], rb[3])
            self._set_box_corners(left)
            new = self._left_corner(left)
            if new != old:
                events.append((new, new))
            return left
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
        return self.live

    def _arrive(self, q: Point, qid: int) -> None:
        j = self.frontier.locate(q)
        events: List = []
        if j is None:
            c = self._new_cluster(q, qid)
            self.live.append(c)
            self.frontier.append(c)
        else:
            c = self.live[j]
            for r in self.live[j + 1 :]:
                self._merge(c, r, events)
            replaced = len(self.live) - j
            del self.live[j + 1 :]
            self._append_point(c, q, qid, events)
            self.frontier.update(c, replaced)
        self._drain(events)

    def _drain(self, events: List) -> None:
        while events:
            if len(self.live) < 2:
                events.clear()
                return
            e = events[-1]
            c = self.live[-1]
            segs = exposed_boundary_segments(
                e, self.m, x_cap=c.left_x, x_floor=self.x_floor
            )
            hit = False
            if segs:
                if self.tree is None:
                    self.tree = subpath_hull.build(self.pts)
                hit = any(self.tree.any_point_above(s) for s in segs)
            if not hit:
                events.pop()
                continue
            left, right = self.live[-2], self.live[-1]
            self._merge(left, right, events)
            self.live.pop()
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


def _clusters_linked(
    ga: List[Point],
    ea: List[Tuple[Point, Point]],
    gb: List[Point],
    eb: List[Tuple[Point, Point]],
    m: MetricParams,
) -> bool:
    k = reach_coefficient(m)
    for p in ga:
        for q in gb:
            if abs(p.x - q.x) <= k * (abs(p.y) + abs(q.y)) and in_walking_region(p, q, m):
                return True
    for a, b in ea:
        for q in gb:
            if _point_in_edge_region(q, a, b, m):
                return True
    for a, b in eb:
        for p in ga:
            if _point_in_edge_region(p, a, b, m):
                return True
    return False


def cross_side_merge(
    above_groups: Sequence[Tuple[List[Point], List[int]]],
    below_groups: Sequence[Tuple[List[Point], List[int]]],
    m: MetricParams,
) -> List[Tuple[List[Point], List[int]]]:
    """Union per-side clusters into mixed components.

    Each group is (member points in original coordinates, dedup ids).
    Stage one unions via cross-side member pairs; the fixpoint stage then
    grows components whose merged closures expose further members.
    """
    groups = list(above_groups) + list(below_groups)
    n = len(groups)
    parent = list(range(n))
    n_components = n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        nonlocal n_components
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        n_components -= 1
        return True

    k = reach_coefficient(m)
    n_above = len(above_groups)

    # stage 1: cross-side member pairs, pruned by the reach bound
    flat_b: List[Tuple[float, float, int]] = []
    for gi in range(n_above, n):
        for p in groups[gi][0]:
            flat_b.append((p.x, p.y, gi))
    flat_b.sort()
    xs_b = [t[0] for t in flat_b]
    ymax_b = max((abs(t[1]) for t in flat_b), default=0.0)
    for gi in range(n_above):
        if n_components == 1:
            break
        for p in groups[gi][0]:
            reach = k * (p.y + ymax_b)
            lo = bisect_left(xs_b, p.x - reach)
            hi = bisect_right(xs_b, p.x + reach)
            for t in range(lo, hi):
                bx, by, gj = flat_b[t]
                if find(gi) == find(gj):
                    continue
                if abs(p.x - bx) > k * (p.y + abs(by)):
                    continue
                if in_walking_region(p, Point(bx, by), m):
                    union(gi, gj)
                    if n_components == 1:
                        break
            if n_components == 1:
                break

    # fixpoint: closure edges and virtual corners of merged components can
    # capture members of other components (same or opposite side)
    while True:
        comps: Dict[int, List[int]] = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(i)
        if len(comps) <= 1:
            break
        roots = list(comps)
        gens: Dict[int, List[Point]] = {}
        edges: Dict[int, List[Tuple[Point, Point]]] = {}
        spans: Dict[int, Tuple[float, float, float]] = {}
        for r in roots:
            pts_a = [p for gi in comps[r] for p in groups[gi][0] if p.y >= 0.0]
            pts_b = [p for gi in comps[r] for p in groups[gi][0] if p.y < 0.0]
            g: List[Point] = []
            e: List[Tuple[Point, Point]] = []
            for pts in (pts_a, pts_b):
                if not pts:
                    continue
                h = closure_hull(pts, m)
                g.extend(_boundary_generators(h))
                e.extend(_boundary_edges(h))
            gens[r] = g
            edges[r] = e
            xs = [p.x for p in g]
            spans[r] = (min(xs), max(xs), max(abs(p.y) for p in g))
        changed = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                ri, rj = roots[i], roots[j]
                if find(ri) == find(rj):
                    continue
                lo_i, hi_i, ym_i = spans[ri]
                lo_j, hi_j, ym_j = spans[rj]
                slack = k * (ym_i + ym_j)
                if lo_j - hi_i > slack or lo_i - hi_j > slack:
                    continue
                if _clusters_linked(gens[ri], edges[ri], gens[rj], edges[rj], m):
                    union(ri, rj)
                    changed = True
        if not changed:
            break

    merged: Dict[int, Tuple[List[Point], List[int]]] = {}
    for i in range(n):
        r = find(i)
        if r not in merged:
            merged[r] = ([], [])
        merged[r][0].extend(groups[i][0])
        merged[r][1].extend(groups[i][1])
    return list(merged.values())


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

    side_results: List[List[Tuple[List[Point], List[int], Optional[_Live]]]] = []
    for ids, mirror in ((above, False), (below, True)):
        if not ids:
            side_results.append([])
            continue
        spts = [dedup[i] if not mirror else Point(dedup[i].x, -dedup[i].y) for i in ids]
        sb = _SideBuilder(spts, list(ids), m)
        lives = sb.run()
        out = []
        for c in lives:
            mem = [dedup[i] for i in c.member_ids]
            out.append((mem, list(c.member_ids), c))
        side_results.append(out)

    above_groups = [(mem, mids) for mem, mids, _ in side_results[0]]
    below_groups = [(mem, mids) for mem, mids, _ in side_results[1]]

    if above_groups and below_groups:
        merged = cross_side_merge(above_groups, below_groups, m)
    else:
        merged = [(mem, mids) for mem, mids in above_groups + below_groups]

    # map single-side, single-origin groups back to their live chains so the
    # common case reuses the incrementally built hulls
    single_live: Dict[frozenset, _Live] = {}
    for side_idx in (0, 1):
        for mem, mids, c in side_results[side_idx]:
            single_live[frozenset(mids)] = c

    clusters: List[Cluster] = []
    for mem, mids in merged:
        key = frozenset(mids)
        pts_a = [p for p in mem if p.y >= 0.0]
        pts_b = [p for p in mem if p.y < 0.0]
        c_live = single_live.get(key)
        if c_live is not None and (not pts_a or not pts_b):
            hull_side = _side_closure(c_live, m, mirror=bool(pts_b))
            ca = hull_side if pts_a else None
            cb = hull_side if pts_b else None
        else:
            ca = closure_hull(pts_a, m) if pts_a else None
            cb = closure_hull(pts_b, m) if pts_b else None
        members = sorted(i for di in mids for i in orig[di])
        clusters.append(Cluster(members, ca, cb))

    clusters.sort(key=lambda cl: min(pts[i].x for i in cl.member_indices))
    tch = TimeConvexHull(params=m, clusters=clusters)
    return footprints_and_bridges(tch)
