"""Static range structure answering one-sided segment sweeping queries.

A balanced segment tree over the x-sorted points keeps the upper hull of
each node range.  A query decomposes the strip's strict interior into
O(log n) covering nodes; in each, the hull vertex whose adjacent slopes
bracket the query slope maximizes y - slope*x over the whole range, so one
vertex test per node decides it.  A node's hull is built on first need:
a leaf-size node folds `geometry.push_upper` over its own points, a larger
one over its children's hulls, which are built and cached on the way, so
every turn is decided as the scale-safe `_cross` decides it.  Space: O(n log n) at most.  Query
O(log^2 n), plus the first build of each node it covers and of their
descendants, O(m log m) for m points covered; a query over a few leaves'
worth of points tests each of them directly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

from .geometry import QuerySegment, push_upper
from .metric import InvalidInputError, Point

_LEAF_SIZE = 8
# a query over at most this many points scans them without node hulls
_SCAN_SIZE = 4 * _LEAF_SIZE


class HullTree:
    """Answers never change; node hulls are cached as queries reach them.
    Concurrent queries may build one node twice, always to equal hulls."""

    def __init__(self, points: Sequence[Point]):
        n = len(points)
        for i in range(1, n):
            if points[i - 1] >= points[i]:
                raise InvalidInputError(
                    "points must be sorted by (x, y) and pairwise distinct"
                )
        self.leaves: Tuple[Point, ...] = tuple(points)
        self.xs: List[float] = [pt.x for pt in points]
        # node id -> (upper hull, ascending negated chain slopes)
        self._nodes: Dict[int, Tuple[List[Point], List[float]]] = {}

    def _node_hull(self, node: int, lo: int, hi: int) -> Tuple[List[Point], List[float]]:
        hull = self._nodes.get(node)
        if hull is not None:
            return hull
        if hi - lo <= _LEAF_SIZE:
            h: List[Point] = []
            right: Sequence[Point] = self.leaves[lo:hi]
        else:
            mid = (lo + hi) // 2
            h = list(self._node_hull(2 * node, lo, mid)[0])
            right = self._node_hull(2 * node + 1, mid, hi)[0]
        for q in right:
            push_upper(h, q)
        negs = [(a.y - b.y) / (b.x - a.x) for a, b in zip(h, h[1:])]
        hull = self._nodes[node] = (h, negs)
        return hull

    def any_point_above(self, seg: QuerySegment) -> bool:
        """True iff a stored point with x strictly inside (seg.start.x,
        seg.end.x) lies strictly above the line through seg.end with the
        segment's slope."""
        n = len(self.leaves)
        if n == 0 or seg.start == seg.end:
            return False
        ql = bisect_right(self.xs, seg.start.x)
        qr = bisect_left(self.xs, seg.end.x)
        if ql >= qr:
            return False
        slope = seg.slope
        intercept = seg.end.y - slope * seg.end.x
        if qr - ql <= _SCAN_SIZE:
            return any(q.y - slope * q.x > intercept for q in self.leaves[ql:qr])
        stack = [(1, 0, n)]
        while stack:
            node, lo, hi = stack.pop()
            if qr <= lo or hi <= ql:
                continue
            if ql <= lo and hi <= qr:
                h, negs = self._node_hull(node, lo, hi)
                top = h[bisect_left(negs, -slope)]
                if top.y - slope * top.x > intercept:
                    return True
                continue
            if hi - lo <= _LEAF_SIZE:
                for q in self.leaves[max(lo, ql):min(hi, qr)]:
                    if q.y - slope * q.x > intercept:
                        return True
                continue
            mid = (lo + hi) // 2
            stack.append((2 * node, lo, mid))
            stack.append((2 * node + 1, mid, hi))
        return False


def build(points: Sequence[Point]) -> HullTree:
    """Hull tree over the x-sorted, duplicate-free point sequence."""
    return HullTree(points)
