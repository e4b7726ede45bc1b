"""End-to-end time-convex hull construction.

Everything runs in one numeric frame.  `build` validates the input once
and scales it by the power of two 2^-e that puts the largest |coordinate|
in [1, 2); the result is scaled back by 2^e.  Travel time is
1-homogeneous, and a power-of-two scaling is exact in floats, so the
answer is the same at every scale.  No decision compares with an
absolute tolerance: the predicates compare floats directly, the
edge-region minimizer's error is relative to the edge, and the footprint
tree's margin is relative to the pair.  The reach slack of `reach_slack`
is absolute in the frame, where every member has |x| < 2, but it only
widens a cut, so a cluster far smaller than the frame costs more tests,
never another verdict.  The one limit: a nonzero coordinate more than
about 2^1021 below the largest becomes subnormal in the frame and loses
bits, and points that collapse there are reported as duplicates.  A result that does not fit
in floats (a p = inf apex above the largest float) raises NumericError
instead of scaling back to inf.

The input is put in one stable order by (below, x, side y): below means
y < 0 (y == 0 counts as above), and side y is -y below the highway and y
elsewhere, so a -0.0 keeps its sign.  Three stable sorts make it, by side
y, by x and by below, since floats and bools compare faster than tuples.
Copies are adjacent, first copy first, and each distinct point keeps its
first copy's floats; a point and its mirror image across the highway have
equal side coordinates and stay two points, cut apart at the side
boundary.  Each side's distinct points are one slice of that order, in the
x, y order its sweep takes them.  Each side is clustered by one
left-to-right sweep: an arrival either lands in the right walking region
of a live cluster, merging the whole suffix from that cluster on, or
starts a new cluster.  After each merge the newly created boundary
(positive-slope bridge edges, or the moved box corner for p in {1, inf})
can expose region not covered by any older boundary.  For p < inf those
pieces are queried against the static point set with the subpath hull
structure.  At p = inf a moved apex A exposes an older point q exactly
when the float gap of in_walking_region(A, q), fl(A.x - A.y) -
fl(q.x + q.y), is negative, and fl(q.x + q.y) is q's frame coordinate s,
so one comparison of A.x - A.y with the older clusters' prefix maximum of
s (kept by the frontier) decides it, with no segment and no tree.  Every
hit merges the rightmost pair of clusters, and the loop runs until no
exposure hits.  Both merges join adjacent runs, so every swept cluster is
a run of its side's sorted points: the sweep keeps only its start, and its
input members are one slice of the sorted input.  A convex cluster keeps
its live upper chain, right_x and ymax: an arrival pushes onto the chain
and raises the two by compare-and-assign.  Under the box metrics a
cluster is its four extremes in the frame of `metric.box_coords`: an
arrival computes its frame coordinates once, growth is compare-and-assign,
and the right corner, right_x, ymax and exposing corner are read off the
extremes, with a Point made only for the right corner and for an exposing
corner that moved.  The frontier decides a box cluster by its right corner
alone, with the unchecked `metric._box_in_walking_region`.

Each swept cluster's closure is built once, right after the sweeps, from
its sweep state, as a bare outline in the unit frame (its chain vertices
and virtual corners): a convex closure from its live upper chain and a
lower chain folded over its run, and a box closure from the four extremes
the sweep keeps, with no pass over its members (an axis box's chains read
off its corners, a diamond's folded over them).
A box closure is `closure_hull` of the run to the bit.  Tied extremes can
only be zeros of opposite sign, and `closure_hull` keeps the first member
in real (x, y) order: above the highway that is the sweep's first, in side
order; below, the mirrored axis box takes a zero x from the lowest point
with x == 0, and the mirrored diamond extremes are +0.0.  The chains are
what `push_upper` / `push_lower` make, and those establish Chain's
invariants with the turns of `_cross`, which its check tests (the float
turn inline, `_cross` itself where that leaves its exact range), so the
unit frame does not check them: the join and the footprints read the
outlines, and each output cluster is made once, at the caller's scale,
with its closures built from its outlines scaled exactly by 2^e, each
distinct vertex once, through the checking Chain and ClosureHull
constructors, the only ones that make a Chain or a ClosureHull.

Sides are then joined, starting from those outlines.  Two
components merge when a boundary generator of one walks to a generator
of the other, or lies in the walking region of a closure edge of the
other.  Each generator pair is decided once; every edge endpoint is a
generator, so the edge test then covers the rest of the edge, and each
(point, edge) verdict is kept for the whole join.  That test
on the closures alone finds every member pair that walks: by the cone
lemma (`_point_in_edge_region`) an opposite-side pair walks only when the
pair's highway entry intervals meet, the intervals are affine on a
one-sided closure, so their union is spanned by its boundary, and the
edge test decides meeting entries exactly.  Growth of merged closures can
expose more points, so the join iterates to a fixed point: components are
swept by the low end of their x-span and paired only within the bare
reach K Y of `reach_coefficient` (rounding oversteps it as v -> 1); the
rounding-widened reach box of `reach_slack` cuts just the link test's
pair and edge-region tests; and each round retests only the components
the previous round changed.  A changed
component builds each side once: a side one part supplies keeps that
part's outline (so a side of one swept cluster keeps the sweep's), and a
side gathered from several is the outline of `closure_hull` of its
members.  The join hands back each component with its outlines, and
`build` wraps them into clusters.  An edge-region test is decided
exactly, in every regime, when some edge point's highway entries overlap
the point's (in) or the edge lies wholly on the far side with the entries
apart (out, by the cone lemma); only same-side and highway-crossing edges
are left to a bounded minimizer.

Footprints and bridges come last, from `footprints_and_bridges`, which
`build` calls once, through its module binding, over each output
cluster's boundary generators (`_generators` of its outlines, made once
per output cluster): a cluster's footprint spans the highway interval its
internal shortest paths ride, and bridges fill the highway gaps between
consecutive clusters.  The footprint's low end is found by one sweep over
the boundary generators in ascending right highway entry, stopping at the
first riding pair; a pair whose entries overlap cannot ride, so every
pair the sweep skips is decided without a predicate call.
A generator with more candidate partners than a few asks a block tree
over the generators in (x, |y|) order, which skips whole blocks of pairs
that walk: by that entry cut, or by a convex bound at the block's corners
with a margin relative to the pair.  The high end is the same sweep on
the generators mirrored by x -> -x, negated.  So a cluster where nothing
rides costs about one predicate call per generator, not one per pair.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import ne
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
    MetricParams,
    NumericError,
    Point,
    _highway_time,
    _lp,
    box_coords,
    box_point,
    coordinates,
    in_walking_region,
    reach_coefficient,
    reach_slack,
)

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
    y >= 0, below-side points pre-mirrored).  The cluster is a run of the
    side's sorted points: those from `start` up to the next live cluster's
    start, or to the end of the side.  Its closure is built from this state
    alone: `chain` for a convex closure, `box` for a box closure, whose
    tied extremes keep the run's first member in side order."""

    __slots__ = ("start", "corner")

    def __init__(self, start: int):
        super().__init__()
        self.start = start
        # box metrics: the corner whose moves expose region
        self.corner: Optional[Point] = None


class _SideBuilder:
    """Sweeps one side's distinct points (y >= 0, sorted by x, then y).

    An arrival merges a suffix of the live clusters and an exposure hit
    merges the last two, so every live cluster stays a run of `pts` and
    the clusters' runs tile it in order."""

    def __init__(self, pts: List[Point], m: MetricParams):
        self.pts = pts
        self.m = m
        self.frontier = Frontier(m)
        self.tree = None
        self.kind = m.closure_kind
        # the exposing corner: the box's upper left for p = 1, the apex for p = inf.
        # The p = inf drain is redundant in exact arithmetic: same-side points
        # walk iff their entry intervals meet, and the apex's, [-t1, s1], is
        # the union of its members', so a point it exposes met a member's
        # when that member arrived.  It stays for the apex's rounding: after
        # a singleton, a point whose x - y lies within ulps of the
        # singleton's x + y can be exposed by the apex alone, and without the
        # drain such partitions leave the oracle's far more often than not.
        # The drain tests an apex A as in_walking_region(A, q) does for the
        # older q with the largest s = fl(q.x + q.y): a negative float gap.
        self.apex_exposes = self.kind == "diamond_box"

    # -- cluster state maintenance -------------------------------------

    def _new_cluster(self, q: Point, start: int) -> _Live:
        c = _Live(start)
        c.right_x = q.x
        c.ymax = q.y
        c.chain = [q]
        return c

    def _grow_box(self, c: _Live, s0: float, s1: float, t0: float, t1: float, events: List) -> None:
        """Widen c's box to cover [s0, s1] x [t0, t1], ties keeping the old
        extreme as min and max do; queue the exposing corner if it moved.
        The right corner, right_x and ymax are the box_point values of
        (s1, t1) and (s1, t0), in frame scalars."""
        b = c.box
        if s0 < b[0]:
            b[0] = s0
        if s1 > b[1]:
            b[1] = s1
        if t0 < b[2]:
            b[2] = t0
        if t1 > b[3]:
            b[3] = t1
        s0, s1, t0, t1 = b
        if self.apex_exposes:
            c.right_corner = top = Point((s1 - t1) / 2.0, (s1 + t1) / 2.0)
            c.right_x = (s1 - t0) / 2.0
            c.ymax = top.y
            if top != c.corner:
                c.corner = top
                events.append((top, top))
            return
        c.right_corner = Point(s1, t1)
        c.right_x = s1
        c.ymax = t1
        corner = c.corner
        if s0 != corner.x or t1 != corner.y:
            c.corner = corner = Point(s0, t1)
            events.append((corner, corner))

    def _merge(self, left: _Live, right: _Live, events: List) -> _Live:
        """Absorb `right`, the run just after `left`'s, into `left`."""
        if left.box is not None:
            self._grow_box(left, *right.box, events)
            return left
        left.right_x = max(left.right_x, right.right_x)
        left.ymax = max(left.ymax, right.ymax)
        old_right_x = left.chain[-1].x
        for v in right.chain:
            push_upper(left.chain, v)
        # bridge edge joins the survivors of the two original chains
        s = bisect_right(left.chain, old_right_x, key=lambda p: p.x)
        if 0 < s < len(left.chain):
            a, b = left.chain[s - 1], left.chain[s]
            if b.y > a.y:
                events.append((a, b))
        return left

    # -- sweep ----------------------------------------------------------

    def run(self) -> List[_Live]:
        arrive = self._arrive if self.kind == "convex" else self._arrive_box
        for i, q in enumerate(self.pts):
            arrive(q, i)
        return self.frontier.live

    def _arrive(self, q: Point, i: int) -> None:
        live = self.frontier.live
        j = self.frontier.locate(q)
        if j is None:
            self.frontier.append(self._new_cluster(q, i))
            return
        events: List = []
        c = live[j]
        for r in live[j + 1 :]:
            self._merge(c, r, events)
        # q joins the upper chain; a rising last edge is new boundary
        ch = c.chain
        if push_upper(ch, q) and len(ch) >= 2 and q.y > ch[-2].y:
            events.append((ch[-2], q))
        if q.x > c.right_x:
            c.right_x = q.x
        if q.y > c.ymax:
            c.ymax = q.y
        self.frontier.update(c, len(live) - j)
        if events:
            self._drain(events)

    def _arrive_box(self, q: Point, i: int) -> None:
        """`_arrive` under the box metrics: q's frame coordinates are
        computed once, and a new cluster's right corner is q itself."""
        live = self.frontier.live
        j = self.frontier.locate(q)
        s, t = box_coords(q, self.kind)
        if j is None:
            c = _Live(i)
            c.right_x = q.x
            c.ymax = q.y
            c.box = [s, s, t, t]
            c.right_corner = q
            c.corner = box_point(s, t, self.kind)
            self.frontier.append(c)
            return
        events: List = []
        c = live[j]
        for r in live[j + 1 :]:
            self._grow_box(c, *r.box, events)
        self._grow_box(c, s, s, t, t, events)
        self.frontier.update(c, len(live) - j)
        if events:
            self._drain(events)

    def _drain(self, events: List) -> None:
        live = self.frontier.live
        while events:
            if len(live) < 2:
                events.clear()
                return
            e = events[-1]
            if self.apex_exposes:
                hit = live[-2].pmax_s > e[0].x - e[0].y
            else:
                # capped at the last cluster's left end, its run's first point
                segs = exposed_boundary_segments(e, self.m, x_cap=self.pts[live[-1].start].x)
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


# a closure's outline in the unit frame: its upper and lower chain vertices
# and its virtual corners
_Outline = Tuple[Tuple[Point, ...], Tuple[Point, ...], Tuple[Point, ...]]


def _side_closure(c: _Live, pts: Sequence[Point], s: int, t: int, mirror: bool,
                  kind: str) -> _Outline:
    """Convex closure outline of one swept cluster, the run pts[s:t] of
    sorted side points: its live upper chain and a lower chain folded over
    the run; `mirror` maps the result back below the highway, where the
    two chains trade places."""
    upper, lower = c.chain, []
    for p in pts[s:t]:
        push_lower(lower, p)
    if mirror:
        upper, lower = [Point(x, -y) for x, y in lower], [Point(x, -y) for x, y in upper]
    return (tuple(upper), tuple(lower), ())


def _box_closure(c: _Live, pts: Sequence[Point], s: int, t: int, mirror: bool,
                 kind: str) -> _Outline:
    """Box closure outline of one swept cluster, the run pts[s:t] of sorted
    side points, from the sweep's extremes: `closure_hull` of the run's
    members to the bit, in time logarithmic in the run's length.

    Tied extremes keep the first member in real (x, y) order there, and
    the sweep's the first in side order; ties that differ are zeros of
    opposite sign.  Above the highway the two orders agree.  Below, the
    mirrored axis box takes a zero x from the run's last point with x == 0
    (the lowest of them), and the mirrored diamond frame is (-t, -s) with
    each zero made +0.0, since fl(x + y) and fl(y - x) are never -0.0 for
    y < 0.  Virtual corners are the corners no member equals.

    An axis box's chains are read off its corners, as `upper_hull` /
    `lower_hull` fold them: the upper chain is its top corner at each
    distinct x and the lower chain the bottom one, as the fold resolves x
    ties.  A diamond's chains are folded over its at most four sorted
    corners, whose turns rounding can make zero."""
    s0, s1, t0, t1 = c.box
    if mirror:
        if kind == "axis_box":
            t0, t1 = -t1, -t0
            if s0 == 0.0:
                s0 = pts[bisect_right(pts, 0.0, s, t, key=lambda p: p.x) - 1].x
            if s1 == 0.0:
                s1 = pts[t - 1].x
        else:
            s0, s1, t0, t1 = 0.0 - t1, 0.0 - t0, 0.0 - s1, 0.0 - s0
    if kind == "axis_box":
        ys = (t0,) if t0 == t1 else (t0, t1)
        corners = [Point(x, y) for x in ((s0,) if s0 == s1 else (s0, s1)) for y in ys]
        upper, lower = tuple(corners[len(ys) - 1::len(ys)]), tuple(corners[::len(ys)])
    else:
        corners = sorted({box_point(a, b, kind) for a in (s0, s1) for b in (t0, t1)})
        upper, lower = [], []
        for q in corners:
            push_upper(upper, q)
            push_lower(lower, q)
        upper, lower = tuple(upper), tuple(lower)
    virtual = []
    for q in corners:
        key = (q.x, -q.y) if mirror else q
        i = bisect_left(pts, key, s, t)
        if not (i < t and pts[i] == key):
            virtual.append(q)
    return (upper, lower, tuple(virtual))


def _generators(upper: Sequence[Point], lower: Sequence[Point],
                corners: Sequence[Point]) -> List[Point]:
    """The distinct chain vertices and virtual corners of a closure, each
    at its first occurrence.  Equal vertices of one outline are the same
    floats, zero signs included: a vertex two chains share comes from one
    member list or one corner set."""
    return list(dict.fromkeys(chain(upper, lower, corners)))


def _entries_meet(u: Point, a: Point, b: Point, t: float) -> bool:
    """True iff the highway entry interval [L, R], L and R = x -+ |y| t, of
    some point of segment ab meets u's.

    Exact: along the edge L is concave and R convex (|y| is convex, also
    across the highway), so the endpoints carry min L and max R; and an
    interval moving from left of u's to right of it meets u's on the way.
    """
    return (min(a.x - abs(a.y) * t, b.x - abs(b.y) * t) <= u.x + abs(u.y) * t
            and max(a.x + abs(a.y) * t, b.x + abs(b.y) * t) >= u.x - abs(u.y) * t)


def _point_in_edge_region(u: Point, a: Point, b: Point, m: MetricParams) -> bool:
    """True iff u lies in the walking region of some point of segment ab,
    given that it lies in neither endpoint's: the endpoints are generators,
    which the caller decides with `in_walking_region` first.

    Two exact rules hold in every regime.  If some edge point's entries
    meet u's, u is in (walking trivially beats a doubled-back ride).
    Otherwise an edge wholly on the far side of the highway is out, by the
    cone lemma: for opposite-side points with Y = |ay| + |by| and
    r = |dx| / Y >= t (t = tan(alpha), c = lp(t, 1)),

        direct - highway = Y f(r),  f(r) = lp(r, 1) - c - (r - t) / v,

    and f is convex with f(t) = f'(t) = 0, alpha being where the walking
    slope meets 1/v, so f(r) > 0 for r > t: opposite-side points walk
    exactly when their entry intervals [x - |y| t, x + |y| t] meet.
    Same-side and highway-crossing edges left over go to one bounded
    minimizer of f = direct - highway over the edge parameter s in [0, 1],
    and u is in when f <= 0.0 at an end or at the minimizer's answer.  No
    |dx| kink of the highway term lies inside [0, 1]: one needs u.x
    strictly inside the edge's x-span, and then the entries meet, in floats
    too, since the left end has L <= its x < u.x <= R(u) and the right end
    R >= its x > u.x >= L(u).  There is no tolerance on f.  `xatol` =
    1e-12 acts on s, which has no scale, so the minimizer places the edge
    point to within about 1e-12 |ab|, and f, Lipschitz in the point with a
    constant of the metric (2 + c + (1 + t) / v), errs by about that
    constant times 1e-12 |ab|: an error relative to the edge, at every
    scale.  An
    absolute tolerance was not: 1e-12 in the unit frame accepted every
    same-side edge of clusters 2^-560 across beside a unit point.
    """
    if _entries_meet(u, a, b, m.tan_alpha):
        return True
    if (u.y >= 0.0 and a.y <= 0.0 and b.y <= 0.0) or (u.y <= 0.0 and a.y >= 0.0 and b.y >= 0.0):
        return False

    def f(s: float) -> float:
        p = Point(a.x + s * (b.x - a.x), a.y + s * (b.y - a.y))
        hw = _highway_time(p, u, m)
        if hw is None:
            # u is in here; -inf would make the bounded method compute with NaN
            return 0.0
        return _lp(abs(p.x - u.x), abs(p.y - u.y), m.p) - hw

    if f(0.0) <= 0.0 or f(1.0) <= 0.0:
        return True
    return minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                           options={"xatol": 1e-12}).fun <= 0.0


@dataclass
class _Component:
    """One cross-side component: its group indices and outline per side
    (above, then below; None for an empty side), and the boundary the link
    test reads: generators, edges with their x-span and height, and the
    generators' x-span and height."""

    sides: Tuple[List[int], List[int]]
    outlines: Tuple[Optional[_Outline], Optional[_Outline]]
    gens: List[Point]
    edges: List[Tuple[Point, Point, float, float, float]]
    lo: float
    hi: float
    ymax: float


def _component(sides: Tuple[List[int], List[int]],
               outlines: Tuple[Optional[_Outline], Optional[_Outline]]) -> _Component:
    """The component of `sides` with their `outlines`; the edges are those
    of both chains, none when a side's members share one x."""
    gens: List[Point] = []
    edges: List[Tuple[Point, Point, float, float, float]] = []
    for f in outlines:
        if f is None:
            continue
        gens.extend(_generators(*f))
        for a, b in chain(zip(f[0], f[0][1:]), zip(f[1], f[1][1:])):
            edges.append((a, b, min(a.x, b.x), max(a.x, b.x), max(abs(a.y), abs(b.y))))
    xs = [p.x for p in gens]
    return _Component(sides, outlines, gens, edges, min(xs), max(xs), max(abs(p.y) for p in gens))


def _joined(parts: List[_Component], groups: Sequence[List[Point]], m: MetricParams) -> _Component:
    """The union of `parts`.  A side that one part supplies keeps that
    part's outline; a side gathered from several is the outline of
    `closure_hull` of its members."""
    sides: List[List[int]] = []
    outlines: List[Optional[_Outline]] = []
    for s in (0, 1):
        given = [c for c in parts if c.sides[s]]
        sides.append(sorted(gi for c in given for gi in c.sides[s]))
        if len(given) == 1:
            outlines.append(given[0].outlines[s])
        elif given:
            h = closure_hull([p for gi in sides[s] for p in groups[gi]], m)
            outlines.append((h.upper.vertices, h.lower.vertices, h.corner_generators))
        else:
            outlines.append(None)
    return _component((sides[0], sides[1]), (outlines[0], outlines[1]))


def _clusters_linked(
    ca: _Component, cb: _Component, m: MetricParams, kr: float, dr: float,
    verdicts: Dict[Tuple[Point, Point, Point], bool],
) -> bool:
    """True iff a boundary generator of one component walks to one of the
    other, or lies in the walking region of a closure edge of the other.

    Each generator pair is decided once, inside its own `reach_slack` box
    (no pair outside it walks as floats decide it).  Every edge endpoint
    is a generator, so `_point_in_edge_region` then covers only the rest
    of the edge.  Its verdicts are kept in `verdicts` by (u, a, b), so a
    triple met again in a later round is not decided again; the verdict
    ignores the sign of a zero, as the key's equality does."""
    for u in ca.gens:
        for w in cb.gens:
            if abs(u.x - w.x) <= kr * (abs(u.y) + abs(w.y)) + dr and in_walking_region(u, w, m):
                return True
    for edges, gens in ((ca.edges, cb.gens), (cb.edges, ca.gens)):
        for a, b, x0, x1, ye in edges:
            for u in gens:
                r = kr * (abs(u.y) + ye) + dr
                if x0 - r <= u.x <= x1 + r:
                    key = (u, a, b)
                    hit = verdicts.get(key)
                    if hit is None:
                        hit = verdicts[key] = _point_in_edge_region(u, a, b, m)
                    if hit:
                        return True
    return False


class _UnionFind:
    """Union-find over component indices."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(y)] = self.find(x)


def cross_side_merge(
    groups: Sequence[List[Point]], outlines: Sequence[_Outline], n_above: int, m: MetricParams
) -> List[Tuple[List[int], Optional[_Outline], Optional[_Outline]]]:
    """Union one-sided clusters into mixed components.

    `groups[i]` is a swept cluster's member points in the unit frame of
    `build` and `outlines[i]` its closure's outline, (upper chain vertices,
    lower chain vertices, virtual corners); groups below index `n_above`
    lie above the highway, the rest below.  Returns each component as its
    group indices in increasing order with its above and below outlines
    (None for an empty side), components by their smallest index.

    Components merge until no generator of one walks to a generator of
    another or lies in the walking region of its closure edges (either
    side).  Components are swept by the low end of their x-span, and a
    pair is tested only when its x-gap is within the bare reach
    K (ymax_i + ymax_j) of `reach_coefficient`, which rounding oversteps as
    v -> 1; the rounding-widened `reach_slack` box cuts only the pair and
    edge-region tests inside `_clusters_linked`.  Each round joins the
    components it linked, builds each changed side once, and retests only
    pairs with a component joined in the previous round.  Unions do not
    depend on the order pairs are tested in, so every round ends with the
    partition that testing every pair would give.
    """
    k = reach_coefficient(m)
    kr, dr = reach_slack(m)
    comps = [_component(([gi], []), (f, None)) if gi < n_above else _component(([], [gi]), (None, f))
             for gi, f in enumerate(outlines)]
    fresh = [True] * len(comps)
    verdicts: Dict[Tuple[Point, Point, Point], bool] = {}
    while len(comps) > 1:
        order = sorted(range(len(comps)), key=lambda i: comps[i].lo)
        los = [comps[i].lo for i in order]
        ym_all = max(c.ymax for c in comps)
        uf = _UnionFind(len(comps))
        linked = False
        for a, i in enumerate(order):
            ci = comps[i]
            reach = k * (ci.ymax + ym_all)
            # widened past rounding; the exact slack test below decides
            end = bisect_right(los, ci.hi + reach + 1e-12 * (abs(ci.hi) + reach), a + 1)
            for j in order[a + 1 : end]:
                if not (fresh[i] or fresh[j]):
                    continue
                cj = comps[j]
                if cj.lo - ci.hi > k * (ci.ymax + cj.ymax):
                    continue
                if uf.find(i) != uf.find(j) and _clusters_linked(ci, cj, m, kr, dr, verdicts):
                    uf.union(i, j)
                    linked = True
        if not linked:
            break
        parts: Dict[int, List[_Component]] = {}
        for i, c in enumerate(comps):
            parts.setdefault(uf.find(i), []).append(c)
        comps = [ps[0] if len(ps) == 1 else _joined(ps, groups, m) for ps in parts.values()]
        fresh = [len(ps) > 1 for ps in parts.values()]
    return [(c.sides[0] + c.sides[1], *c.outlines) for c in comps]


def _entries(gens: List[Point], m: MetricParams) -> Tuple[List[float], List[float]]:
    """Left and right highway entries L = x - |y| tan(alpha) and
    R = x + |y| tan(alpha) of each generator, as `entry_points` and
    `highway_time` compute them."""
    t = m.tan_alpha
    return [g.x - abs(g.y) * t for g in gens], [g.x + abs(g.y) * t for g in gens]


# a footprint over more generators than this queries a pair-block tree;
# a block of at most this many is scanned pair by pair
_PAIR_LEAF = 4
# the certified bound's margin, relative to the magnitudes of the pair, and
# its floor, for the absolute error of roundings to subnormal results
_PAIR_MARGIN = 2.0**-40
_PAIR_FLOOR = 2.0**-1060


class _PairBlocks:
    """Block tree over one cluster's boundary generators in key order,
    key = (x, |y|), that tells whether a generator rides with some
    generator of its key suffix.  Each node keeps its block's (x, |y|)
    bounding box, its least and largest side sign (+1 above, -1 below, 0
    on the highway) and its max L, computed from the block on first need,
    as `subpath_hull.HullTree` builds its node hulls.

    Lemma.  Take a and b on one side of the highway with key(a) <= key(b),
    so bx >= ax, and with t = tan(alpha) and c = lp(t, 1) let

        F(a, b) = lp(bx - ax, | |ay| - |by| |) - (|ay| + |by|) c
                  - ((bx - |by| t) - (ax + |ay| t)) / v.

    F is a norm of an affine map minus an affine function, so it is convex
    in b (and in a): its maximum over a box of (bx, |by|) is at one of the
    box's four corners.  F <= 0 means the pair walks; when the gap
    L(b) - R(a) is negative the predicate walks anyway, so F <= 0 implies
    walking in every case.  On one side |ay - by| = | |ay| - |by| |, so F is
    exactly what `_highway_time` and `_lp` compute for the pair.  A zero y
    fits either side, so a query point on the highway fits every node.

    A query from a skips a node whose every pair has a negative gap,
    max L < R(a).  That is the sweep's own cut, the same float comparison,
    so it is exact.  It also skips a node whose points all lie on a's side
    when the float F at each of the node's corners is <= -margin.
    Otherwise it descends, far block first; a block of at most
    `_PAIR_LEAF` generators is scanned with `rides` behind the cut.  So a
    skipped pair walks as `in_walking_region` decides it, and every other
    pair is decided by that predicate.

    Margin.  Let u = 2^-53, X the largest |x| and Y the largest |y| of the
    query point and the node's box, and W = X + Y (1 + t + c).  Every
    operand of F is at most 2X + Y (the distance), X + Y t (an entry) or
    2 Y c (the descent), each of its dozen roundings errs by u of its
    result, and `_lp` by at most 6u of its value.  So the float F at a
    corner and the predicate's float direct - highway at any pair of the
    node are each within 26 u W of the exact F.  By convexity a pair in the
    box has exact F <= (the corners' largest float F) + 26 u W, and its
    predicate walks when that is <= -26 u W: a margin of 52 u W suffices.
    `_PAIR_MARGIN` W = 2^13 u W covers it with room to spare, at every
    scale, since it is relative; `_PAIR_FLOOR` covers the absolute error,
    under 2^-1069, of roundings to subnormal results.
    """

    def __init__(self, gens: List[Point], keys: List[Tuple[float, float]],
                 lefts: List[float], rights: List[float], rides, m: MetricParams):
        self.keys, self.lefts, self.rights, self.rides, self.m = keys, lefts, rights, rides, m
        self.signs = [(g.y > 0.0) - (g.y < 0.0) for g in gens]
        self.order = sorted(range(len(gens)), key=keys.__getitem__)
        self.sorted_keys = [keys[i] for i in self.order]
        self._nodes: Dict[int, Tuple[float, ...]] = {}

    def _box(self, lo: int, hi: int) -> Tuple[float, ...]:
        """(x min, x max, |y| min, |y| max, least sign, largest sign, max L)
        of the block lo:hi of the key order."""
        block = self.order[lo:hi]
        hs = [k[1] for k in self.sorted_keys[lo:hi]]
        signs = list(map(self.signs.__getitem__, block))
        return (self.sorted_keys[lo][0], self.sorted_keys[hi - 1][0], min(hs), max(hs),
                min(signs), max(signs), max(map(self.lefts.__getitem__, block)))

    def any_ride(self, q: int) -> bool:
        """True iff q rides with a b with key(q) <= key(b), q the pair's
        first member; equal keys count."""
        order, lefts, rides, nodes = self.order, self.lefts, self.rides, self._nodes
        qs = bisect_left(self.sorted_keys, self.keys[q])
        cut = self.rights[q]
        sign = self.signs[q]
        stack = [(1, 0, len(order))]
        while stack:
            node, lo, hi = stack.pop()
            s = max(lo, qs)
            leaf = hi - lo <= _PAIR_LEAF
            if s == lo or leaf:
                if s == lo:
                    box = nodes.get(node)
                    if box is None:
                        box = nodes[node] = self._box(lo, hi)
                else:
                    box = self._box(s, hi)
                xmin, xmax, hmin, hmax, smin, smax, lmax = box
                if lmax < cut:
                    continue
                if sign * smin >= 0 and sign * smax >= 0 and self._walks(q, xmin, xmax, hmin, hmax):
                    continue
            if leaf:
                for j in order[s:hi]:
                    if lefts[j] >= cut and rides(q, j):
                        return True
                continue
            mid = (lo + hi) // 2
            # the far block, popped first, holds the pairs likelier to ride
            if qs < mid:
                stack.append((2 * node, lo, mid))
            stack.append((2 * node + 1, mid, hi))
        return False

    def _walks(self, q: int, xmin: float, xmax: float, hmin: float, hmax: float) -> bool:
        """True iff the float F of q's pair with each corner of the box
        [xmin, xmax] x [hmin, hmax] is <= -margin: then every pair of q
        with a same-side point of the box walks."""
        m = self.m
        t, c, v, p = m.tan_alpha, m.descent_cost, m.v, m.p
        qx, qh = self.keys[q]
        w = max(abs(qx), abs(xmin), abs(xmax)) + max(qh, hmax) * (1.0 + t + c)
        bound = -(_PAIR_MARGIN * w + _PAIR_FLOOR)
        # the corner farthest from q first
        for x in (xmax, xmin):
            for h in (hmin, hmax):
                f = _lp(abs(x - qx), abs(h - qh), p) - (
                    (qh + h) * c + ((x - h * t) - (qx + qh * t)) / v)
                if not f <= bound:
                    return False
        return True


def _low_end(gens: List[Point], keys: List[Tuple[float, float]], lefts: List[float],
             rights: List[float], by_r: List[int], by_l: List[int],
             m: MetricParams) -> Optional[float]:
    """min R(a) over the riding pairs (a, b) of `gens` with key(a) <=
    key(b), by `keys`; None when no pair rides.  `by_r` is the generators
    in ascending R and `by_l` in descending L, both stable sorts.

    Output-sensitive sweep: the answer is the R of the first a in `by_r`
    with a riding partner b.  Only partners with L(b) >= R(a) can ride:
    `highway_time` computes the gap as the same float L(b) - R(a) and
    returns None (walking) when it is negative.  So a's candidates are a
    prefix of `by_l`.  At most `_PAIR_LEAF` of them are scanned pair by
    pair, with no bisect when the cluster fits in one leaf.  More are
    asked of the `_PairBlocks` tree, built on first need, after the
    likeliest, the first: the tree looks for a riding partner in the key
    suffix from a, skipping whole blocks of pairs that walk by the cut or
    by its certified convex bound.  Every pair not skipped is decided by
    the predicate itself, on `gens`."""
    n = len(gens)

    def rides(i: int, j: int) -> bool:
        return i != j and keys[i] <= keys[j] and not in_walking_region(gens[i], gens[j], m)

    tree: Optional[_PairBlocks] = None

    def ridden(i: int) -> bool:
        nonlocal tree
        k = bisect_right(by_l, -rights[i], key=lambda j: -lefts[j]) if n > _PAIR_LEAF else n
        if k <= _PAIR_LEAF:
            return any(rides(i, j) for j in by_l[:k] if lefts[j] >= rights[i])
        if rides(i, by_l[0]):
            return True
        if tree is None:
            tree = _PairBlocks(gens, keys, lefts, rights, rides, m)
        return tree.any_ride(i)

    return next((rights[i] for i in by_r if ridden(i)), None)


def _cluster_footprint(
    gens: List[Point], lefts: List[float], rights: List[float], m: MetricParams
) -> Optional[Tuple[float, float]]:
    """Highway interval ridden by the cluster's internal shortest paths:
    (min R(a), max L(b)) over the riding pairs of boundary generators, a
    pair (a, b) with key(a) <= key(b), key = (x, |y|), that does not walk
    (`in_walking_region` false); None when no pair rides.

    The low end is the sweep of `_low_end`.  The high end is minus the low
    end of the generators mirrored by x -> -x.  The mirror's entries are
    L' = -R and R' = -L, negated exactly, and its keys (-x, |y|) reverse
    every pair of distinct x.  A pair of equal x never rides: its gap,
    -(|ay| + |by|) t rounded, is never positive, and at a zero gap the ride
    costs (|ay| + |by|) c >= |dy|, the walk.
    So the mirror's riding pairs are the riding pairs reversed, and its min
    R' is -max L.  Its orders by R' and by descending L' are the stable
    `by_l` and `by_r`, element for element, and it keeps the generators
    themselves, since `in_walking_region` gives the same float with its
    arguments swapped.  The result is the pair loop's to the bit; where the
    loop's max kept the first of a -0.0 / 0.0 tie (both zeros among the L),
    that tie is resolved in its (a, b) order.

    Predicate calls on perfbench's 512-point cells (seed 1): 2 on the arc
    and 12 on the cup at p = 2, v = 2, where pairs ride early; 361 on the
    cup at p = 1.3, v = 1.1, where nothing rides, against 51,400 for the
    pair scan, which called it on every pair with a non-negative gap.
    """
    n = len(gens)
    if n < 2:
        return None
    keys = [(g.x, abs(g.y)) for g in gens]
    by_r = sorted(range(n), key=rights.__getitem__)
    by_l = sorted(range(n), key=lefts.__getitem__, reverse=True)
    lo = _low_end(gens, keys, lefts, rights, by_r, by_l, m)
    if lo is None:
        return None
    hi = -_low_end(gens, [(-x, h) for x, h in keys], [-r for r in rights],
                   [-x for x in lefts], by_l, by_r, m)
    if hi == 0.0 and len({math.copysign(1.0, x) for x in lefts if x == 0.0}) == 2:
        i, j = min((i, j) for j in range(n) if lefts[j] == 0.0 for i in range(n)
                   if i != j and rights[i] <= 0.0 and keys[i] <= keys[j]
                   and not in_walking_region(gens[i], gens[j], m))
        hi = lefts[j]
    return (lo, hi)


def footprints_and_bridges(
    boundaries: Sequence[List[Point]], m: MetricParams
) -> Tuple[List[Optional[Tuple[float, float]]], List[Tuple[float, float]]]:
    """Each cluster's footprint, None where no pair rides, and the highway
    bridges between consecutive clusters, given each cluster's boundary
    generators in cluster order (`_generators` of its closures, above side
    first).  A bridge spans a positive gap between one cluster's anchor and
    the next one's: its footprint, or else its generators' entry span."""
    footprints: List[Optional[Tuple[float, float]]] = []
    anchors: List[Tuple[float, float]] = []
    for boundary in boundaries:
        lefts, rights = _entries(boundary, m)
        fp = _cluster_footprint(boundary, lefts, rights, m)
        footprints.append(fp)
        anchors.append((min(lefts), max(rights)) if fp is None else fp)
    bridges = [(a, b) for (_, a), (b, _) in zip(anchors, anchors[1:]) if b > a]
    return footprints, bridges


def _require_scalable(outlines: Sequence[Optional[_Outline]],
                      footprints: Sequence[Optional[Tuple[float, float]]],
                      bridges: Sequence[Tuple[float, float]], e: int, m: MetricParams) -> None:
    """NumericError unless every hull vertex and virtual corner of the
    unit-frame `outlines`, and every unit-frame footprint and bridge, stays
    finite when scaled by 2^e."""
    vals = [c for f in outlines if f is not None for vs in f for pt in vs for c in pt]
    vals += [c for fp in footprints if fp is not None for c in fp]
    vals += [c for b in bridges for c in b]
    top = max(map(abs, vals))
    if math.isinf(top * 2.0**e):
        raise NumericError(
            "the hull at p=%r, v=%r overflows the float range: a unit-frame value %r "
            "scaled back by 2^%d" % (m.p, m.v, top, e))


def build(points: Sequence[Point], m: MetricParams) -> TimeConvexHull:
    """Cluster `points` under metric `m` and assemble the full hull.

    The input is validated here, once, and scaled by 2^-e into the unit
    frame (largest |coordinate| in [1, 2)); dedup, the sweeps, the join and
    `footprints_and_bridges` run there, and the hull vertices, virtual
    corners, footprints and bridges are scaled back by 2^e, where each
    Cluster is made once, its closures built and checked once.  Exact, up
    to the subnormal limit of the module docstring.  One stable order of
    the input serves the dedup, both sweeps and every cluster's members,
    each a slice of it.

    The cyclic garbage collector is paused while it runs, and restored as
    it was.  A build makes O(n) long-lived objects (a sweep state, an
    outline, an output closure and a cluster per cluster), which trigger
    full collections over the whole heap, and almost no reference cycles:
    about 20 objects per tangent solve of `geometry._unit_tangency`,
    collected after the build.  On a 32,768-point strip of 8,054 box
    clusters the collections took a fifth of the build.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build(points, m)
    finally:
        if enabled:
            gc.enable()


def _build(points: Sequence[Point], m: MetricParams) -> TimeConvexHull:
    """`build` with the collector paused."""
    xs, ys = coordinates(points)
    e = math.frexp(max(max(map(abs, xs)), max(map(abs, ys))))[1] - 1
    n = len(xs)

    # one stable order of the input in the unit frame, by (below, x, side y),
    # from stable sorts by side y, by x and by below, whose keys are floats
    # and bools: faster than one sort by tuples
    ux = list(map(math.ldexp, xs, repeat(-e)))
    uy = list(map(math.ldexp, ys, repeat(-e)))
    del xs, ys
    sy = [-y if y < 0.0 else y for y in uy]
    below = [y < 0.0 for y in uy]
    order = sorted(range(n), key=sy.__getitem__)
    order.sort(key=ux.__getitem__)
    order.sort(key=below.__getitem__)
    n_split = below.count(False)
    side = [Point(ux[i], sy[i]) for i in order]
    del ux, uy, sy, below
    # copies are adjacent with the first copy first: distinct point d is
    # order[cuts[d]:cuts[d + 1]], its side coordinates its first copy's.  A
    # cut at the side boundary keeps a point apart from its mirror image.
    cuts = [0, *compress(range(1, n), map(ne, side, islice(side, 1, None))), n]
    if 0 < n_split < n and side[n_split] == side[n_split - 1]:
        insort(cuts, n_split)
    pts = list(map(side.__getitem__, cuts[:-1]))
    n_up = bisect_left(cuts, n_split)
    del side

    # per-side sweeps; swept cluster gi, above ones first, is the run
    # runs[gi] of distinct points
    sides = [_SideBuilder(pts[:n_up], m).run(), _SideBuilder(pts[n_up:], m).run()]
    n_above = len(sides[0])
    starts = [c.start for c in sides[0]] + [n_up + c.start for c in sides[1]] + [len(pts)]
    runs = list(zip(starts, starts[1:]))
    # one unit-frame closure outline per swept cluster, from its sweep state
    kind = m.closure_kind
    closure = _side_closure if kind == "convex" else _box_closure
    outlines = [closure(c, pts, s, t, s >= n_up, kind)
                for c, (s, t) in zip(sides[0] + sides[1], runs)]

    if 0 < n_above < len(runs):
        # the join reads each run's points in the unit frame; a side of one
        # swept cluster keeps its closure, a side of several is built anew
        comps = cross_side_merge(
            [pts[s:t] if s < n_up else [Point(x, -y) for x, y in pts[s:t]] for s, t in runs],
            outlines, n_above, m)
        # clusters in order of their leftmost member, each run's first point
        comps.sort(key=lambda comp: min(pts[runs[gi][0]].x for gi in comp[0]))
    else:
        # one side's runs are in that order already
        comps = [([gi], f, None) if gi < n_above else ([gi], None, f)
                 for gi, f in enumerate(outlines)]

    members = [order[cuts[s]:cuts[t]] for s, t in runs]
    del sides, outlines, pts, order, cuts
    footprints, bridges = footprints_and_bridges(
        [[g for f in fs if f is not None for g in _generators(*f)] for _, *fs in comps], m)
    # back to the caller's frame.  Frame values stay within 4 (1 +
    # tan(alpha)): members within 2, box corners within 4, and the highway
    # entries x +- |y| tan(alpha) of both.  Every value is checked only
    # where four times that bound, scaled, reaches 2^1024.
    s = 2.0**e
    if not s * 8.0 * (1.0 + m.tan_alpha) < 2.0**1023:
        _require_scalable([f for _, *fs in comps for f in fs], footprints, bridges, e, m)

    def scaled_closure(f: Optional[_Outline]) -> Optional[ClosureHull]:
        """The outline scaled exactly, through the checking constructors.
        Each distinct vertex is scaled once, the lower chain and the virtual
        corners reusing what the chains before them scaled: equal vertices
        of one outline are the same floats (see `_generators`)."""
        if f is None:
            return None
        up, lo, virtual = f
        upper = tuple([Point(s * x, s * y) for x, y in up])
        scaled = dict(zip(up, upper))
        get = scaled.get
        lower = tuple([get(v) or Point(s * v.x, s * v.y) for v in lo])
        corners = ()
        if virtual:
            scaled.update(zip(lo, lower))
            corners = tuple([get(v) or Point(s * v.x, s * v.y) for v in virtual])
        return ClosureHull(kind, Chain(upper, "upper"), Chain(lower, "lower"), corners)

    clusters = [Cluster(sorted(chain.from_iterable(map(members.__getitem__, gis))),
                        scaled_closure(above), scaled_closure(below),
                        None if fp is None else (s * fp[0], s * fp[1]))
                for (gis, above, below), fp in zip(comps, footprints)]
    return TimeConvexHull(m, clusters, [(s * a, s * b) for a, b in bridges])
