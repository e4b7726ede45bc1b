"""Static range structure answering one-sided segment sweeping queries.

A balanced segment tree over the x-sorted points keeps the upper hull of
each node range.  A query decomposes the strip's strict interior into
O(log n) covering nodes; in each, the hull vertex whose adjacent slopes
bracket the query slope maximizes y - slope*x over the whole range, so one
vertex test per node decides it.  Space: nodes built on first covering
query, O(n log n) at most.  Query O(log^2 n), plus the first build of each
node it covers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

from .geometry import QuerySegment
from .metric import InvalidInputError, Point

_LEAF_SIZE = 8


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
        self.ys: List[float] = [pt.y for pt in points]
        # node id -> (hull xs, hull ys, ascending negated chain slopes)
        self._nodes: Dict[int, Tuple[List[float], List[float], List[float]]] = {}

    def _node_hull(
        self, node: int, lo: int, hi: int
    ) -> Tuple[List[float], List[float], List[float]]:
        # geometry.push_upper's monotone chain, inlined over the parallel
        # coordinate lists the queries read: folding Points through the
        # shared routine and splitting the result built a 2^15-point tree
        # 1.4-1.7x slower (CPython 3.11 on a 2-core Xeon host)
        hx: List[float] = []
        hy: List[float] = []
        xs, ys = self.xs, self.ys
        for i in range(lo, hi):
            x, y = xs[i], ys[i]
            if hx and hx[-1] == x:
                if y <= hy[-1]:
                    continue
                hx.pop()
                hy.pop()
            while len(hx) >= 2 and (y - hy[-1]) * (hx[-1] - hx[-2]) >= (
                hy[-1] - hy[-2]
            ) * (x - hx[-1]):
                hx.pop()
                hy.pop()
            hx.append(x)
            hy.append(y)
        negs = [
            -(hy[i + 1] - hy[i]) / (hx[i + 1] - hx[i]) for i in range(len(hx) - 1)
        ]
        hull = self._nodes[node] = (hx, hy, negs)
        return hull

    def any_point_above(self, seg: QuerySegment) -> bool:
        """True iff a stored point with x strictly inside (seg.start.x,
        seg.end.x) lies strictly above the segment's supporting line."""
        n = len(self.leaves)
        if n == 0 or seg.start == seg.end:
            return False
        ql = bisect_right(self.xs, seg.start.x)
        qr = bisect_left(self.xs, seg.end.x)
        if ql >= qr:
            return False
        slope = seg.slope
        intercept = seg.start.y - slope * seg.start.x
        nodes = self._nodes
        stack = [(1, 0, n)]
        while stack:
            node, lo, hi = stack.pop()
            if qr <= lo or hi <= ql:
                continue
            if ql <= lo and hi <= qr:
                hx, hy, negs = nodes.get(node) or self._node_hull(node, lo, hi)
                i = bisect_left(negs, -slope)
                if hy[i] - slope * hx[i] > intercept:
                    return True
                continue
            if hi - lo <= _LEAF_SIZE:
                ys, xs = self.ys, self.xs
                for i in range(max(lo, ql), min(hi, qr)):
                    if ys[i] - slope * xs[i] > intercept:
                        return True
                continue
            mid = (lo + hi) // 2
            stack.append((2 * node, lo, mid))
            stack.append((2 * node + 1, mid, hi))
        return False


def build(points: Sequence[Point]) -> HullTree:
    """Hull tree over the x-sorted, duplicate-free point sequence."""
    return HullTree(points)


def any_point_above(t: HullTree, seg: QuerySegment) -> bool:
    return t.any_point_above(seg)
