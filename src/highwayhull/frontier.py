"""Arrival-time point location against live cluster right boundaries.

This is the permitted simpler variant of the envelope structure: live
clusters sit in one left-to-right list and each arrival scans it right to
left.  The scan stops once the reach bound q.x - right_x > K*(ymax + q.y)
proves that no cluster at or left of the current one can contain the
arrival (K is the metric's reach coefficient and ymax a prefix maximum),
which keeps the scan short on anything but adversarial inputs.

Membership against one cluster is decided by predicates on its governing
generators: the box metrics are covered by a single corner (the right box
corner for p=1, the diamond apex for p=inf), convex closures by the
top..rightmost subchain of the upper hull plus, for each negative-slope
edge there, the tangent bulge band of the edge's walking region.  Tangents
are computed lazily and cached per edge.
"""

from __future__ import annotations

from typing import List, Optional

from .geometry import right_edge_tangent
from .metric import INF, MetricParams, Point, in_walking_region, reach_coefficient

_MISSING = object()


class ContractViolationError(RuntimeError):
    """Raised when arrivals are fed out of x order."""


class EnvelopeEntry:
    """Right-boundary view of one live cluster.

    The builder owns and mutates these (single writer); the frontier only
    reads them during locate.  For convex closures `chain` is the live
    upper hull and `t_idx` the index of its rightmost highest vertex; for
    box closures `right_corner` is the single governing generator and the
    chain fields are unused.
    """

    __slots__ = (
        "chain",
        "t_idx",
        "tangents",
        "right_corner",
        "left_x",
        "right_x",
        "ymax",
        "pmax_y",
    )

    def __init__(self):
        self.chain: List[Point] = []
        self.t_idx = 0
        self.tangents = {}
        self.right_corner: Optional[Point] = None
        self.left_x = INF
        self.right_x = -INF
        self.ymax = 0.0
        self.pmax_y = 0.0


class Frontier:
    """Single-writer mutable structure; one instance per build."""

    def __init__(self, m: MetricParams):
        self.params = m
        self._k = reach_coefficient(m)
        self.live: List[EnvelopeEntry] = []
        self._last_x = -INF

    def append(self, entry: EnvelopeEntry) -> None:
        prev = self.live[-1].pmax_y if self.live else 0.0
        entry.pmax_y = prev if prev > entry.ymax else entry.ymax
        self.live.append(entry)

    def update(self, merged: EnvelopeEntry, replaced: int) -> None:
        """Replace the rightmost `replaced` entries with the merged cluster."""
        if replaced:
            del self.live[-replaced:]
        self.append(merged)

    def locate(self, q: Point) -> Optional[int]:
        """Smallest live index whose right walking region contains q, else None."""
        if q.x < self._last_x:
            raise ContractViolationError(
                "arrival x=%r precedes processed x=%r" % (q.x, self._last_x)
            )
        self._last_x = q.x
        best = None
        k = self._k
        for i in range(len(self.live) - 1, -1, -1):
            e = self.live[i]
            if q.x - e.right_x > k * (e.pmax_y + q.y):
                break
            if self._entry_hits(e, q):
                best = i
        return best

    def _entry_hits(self, e: EnvelopeEntry, q: Point) -> bool:
        m = self.params
        if e.right_corner is not None:
            return in_walking_region(e.right_corner, q, m)
        k = self._k
        t_a = m.tan_alpha
        q_entry = q.x - q.y * t_a
        chain = e.chain
        for j in range(len(chain) - 1, e.t_idx - 1, -1):
            g = chain[j]
            if q.x - g.x > k * (g.y + q.y):
                continue
            if q_entry <= g.x + g.y * t_a:
                return True
            if in_walking_region(g, q, m):
                return True
        for j in range(e.t_idx, len(chain) - 1):
            hi, lo = chain[j], chain[j + 1]
            if q.x - lo.x > k * (hi.y + q.y):
                continue
            tan = e.tangents.get((hi, lo), _MISSING)
            if tan is _MISSING:
                tan = right_edge_tangent(hi, lo, m)
                e.tangents[(hi, lo)] = tan
            if tan is None or tan[2] == 0.0:
                # no tangent, or one collapsed onto the highway: a band of
                # zero height, whose edge endpoints the loop above tested
                continue
            t_lo, t_hi, s = tan
            if t_lo.y <= q.y <= t_hi.y and q.x <= t_lo.x + (q.y - t_lo.y) / s:
                return True
        return False
