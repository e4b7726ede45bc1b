"""Arrival-time point location against live cluster right boundaries.

This is the permitted simpler variant of the envelope structure: live
clusters sit in one left-to-right list and each arrival scans it right to
left.  The scan stops once the reach bound q.x - right_x > K*(ymax + q.y)
proves that no cluster at or left of the current one can contain the
arrival (K is the metric's reach coefficient and ymax a prefix maximum),
which keeps the scan short on anything but adversarial inputs.  Each
entry keeps its prefix maxima, set when it is appended: `pmax_y` of
ymax, and for a box entry `pmax_s` of its frame extreme s1, which the
builder's p = inf exposure test reads.  The break
is the bare K*Y bound, which rounding oversteps at v -> 1 (a pair just
beyond it can still walk in floats), so there it can end the scan before
a cluster the float predicate would accept.

Membership against one cluster is decided by predicates on its governing
generators.  The box metrics are covered by a single corner (the right box
corner for p=1, the diamond apex for p=inf), and `locate` runs one loop of
its own for them: the K*Y break, then a skip without the corner test when
q.x - right_x > kr*(ymax + q.y) + dr, the rounding-widened reach of
`metric.reach_slack` (a corner that far away fails the float predicate
too, so skipping it never changes an answer), then one call of
`metric._box_in_walking_region`, the unchecked box form of
`in_walking_region` with the same verdict.  That slack is a constant of the
unit frame of `hull_builder.build`, so arrivals and clusters are in that
frame, and they are validated there once.  Convex closures are covered by
the top..rightmost subchain of the upper hull, each vertex decided by the
checked `in_walking_region`, plus, for each negative-slope edge there, the
tangent bulge band of the edge's walking region.  `locate` decides a
convex entry inline, in its second loop: a walk left from the chain's right
end while it rises, testing each vertex, then the tangent bands from the
top it stopped at.  Tangents are computed lazily and cached per edge, in
one dict of the frontier.  Both loops call their predicates and
`right_edge_tangent` through this module's bindings, looked up at each
call, so a wrapper set on a binding (a tracer's, a test's counter) sees
every call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .geometry import right_edge_tangent
from .metric import (
    INF,
    MetricParams,
    Point,
    _box_in_walking_region,
    in_walking_region,
    reach_coefficient,
    reach_slack,
)

_MISSING = object()


class ContractViolationError(RuntimeError):
    """Raised when arrivals are fed out of x order."""


class EnvelopeEntry:
    """Right-boundary view of one live cluster.

    The builder owns and mutates these (single writer); the frontier only
    reads them during locate.  For convex closures `chain` is the live
    upper hull; for box closures `right_corner` is the single governing
    generator, which the frontier's box loop tests, and `chain` is unused.
    Locate reads only the right end, so an entry carries no left end: the
    builder's clusters are runs of the x-sorted arrivals, and a run's first
    point is its left end.  A box entry also carries `box`, its extremes
    [s0, s1, t0, t1] in the frame of `metric.box_coords`.
    """

    __slots__ = (
        "chain",
        "right_corner",
        "box",
        "right_x",
        "ymax",
        "pmax_y",
        "pmax_s",
    )

    def __init__(self):
        self.chain: List[Point] = []
        self.right_corner: Optional[Point] = None
        self.box: Optional[List[float]] = None
        self.right_x = -INF
        self.ymax = 0.0
        self.pmax_y = 0.0
        self.pmax_s = -INF


# the prefix maxima before the first entry
_EMPTY = EnvelopeEntry()


class Frontier:
    """Single-writer mutable structure; one instance per build, fed
    unit-frame arrivals (see `metric.reach_slack`)."""

    def __init__(self, m: MetricParams):
        self.params = m
        self._k = reach_coefficient(m)
        self._kr, self._dr = reach_slack(m)
        self._box = m.closure_kind != "convex"
        self.live: List[EnvelopeEntry] = []
        self._last_x = -INF
        # right_edge_tangent of each chain edge (hi, lo) tested so far
        self._tangents: Dict[Tuple[Point, Point], Optional[Tuple[Point, Point, float]]] = {}

    def append(self, entry: EnvelopeEntry) -> None:
        """Append `entry` and its prefix maxima: of ymax, and for a box
        entry of its frame extreme s1."""
        prev = self.live[-1] if self.live else _EMPTY
        entry.pmax_y = prev.pmax_y if prev.pmax_y > entry.ymax else entry.ymax
        if self._box:
            s1 = entry.box[1]
            entry.pmax_s = prev.pmax_s if prev.pmax_s > s1 else s1
        self.live.append(entry)

    def update(self, merged: EnvelopeEntry, replaced: int) -> None:
        """Replace the rightmost `replaced` entries with the merged cluster."""
        if replaced:
            del self.live[-replaced:]
        self.append(merged)

    def locate(self, q: Point) -> Optional[int]:
        """Smallest live index whose right walking region contains q, else None.

        Entries are scanned right to left until the K*Y break.  A box entry
        is its right corner's test; a convex entry is decided here, by the
        top-vertex walk and then the tangent-band loop (module docstring)."""
        qx, qy = q
        if qx < self._last_x:
            raise ContractViolationError(
                "arrival x=%r precedes processed x=%r" % (qx, self._last_x)
            )
        self._last_x = qx
        best = None
        k, live = self._k, self.live
        if self._box:
            kr, dr, m = self._kr, self._dr, self.params
            for i in range(len(live) - 1, -1, -1):
                e = live[i]
                if qx - e.right_x > k * (e.pmax_y + qy):
                    break
                # the corner lies at or left of right_x, at height ymax
                if qx - e.right_x > kr * (e.ymax + qy) + dr:
                    continue
                if _box_in_walking_region(e.right_corner, q, m):
                    best = i
            return best
        m, tangents = self.params, self._tangents
        t_a = m.tan_alpha
        q_entry = qx - qy * t_a
        for i in range(len(live) - 1, -1, -1):
            e = live[i]
            if qx - e.right_x > k * (e.pmax_y + qy):
                break
            chain = e.chain
            # the chain is concave: walking left from its right end, it rises
            # up to its rightmost highest vertex
            top = len(chain) - 1
            while True:
                g = chain[top]
                if qx - g.x <= k * (g.y + qy) and (
                    q_entry <= g.x + g.y * t_a or in_walking_region(g, q, m)
                ):
                    best = i
                    break
                if top == 0 or chain[top - 1].y <= g.y:
                    break
                top -= 1
            if best == i:
                continue
            for j in range(top, len(chain) - 1):
                hi, lo = chain[j], chain[j + 1]
                if qx - lo.x > k * (hi.y + qy):
                    continue
                tan = tangents.get((hi, lo), _MISSING)
                if tan is _MISSING:
                    tan = tangents[(hi, lo)] = right_edge_tangent(hi, lo, m)
                if tan is None or tan[2] == 0.0:
                    # no tangent, or one collapsed onto the highway: a band of
                    # zero height, whose edge endpoints the walk above tested
                    continue
                t_lo, t_hi, s = tan
                if t_lo.y <= qy <= t_hi.y and qx <= t_lo.x + (qy - t_lo.y) / s:
                    best = i
                    break
        return best
