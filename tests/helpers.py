"""Shared instance generation and partition comparison for the test suite."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple

from highwayhull import hull_builder, oracle
from highwayhull.metric import INF, MetricParams, Point

P_GRID = (1.0, 1.3, 2.0, 3.0, 7.0, INF)
V_GRID = (1.1, 2.0, 5.0, 100.0, INF)

# instances whose closest oracle decision is nearer than this are regenerated
NEAR_TIE = 1e-7

Partition = Tuple[Tuple[int, ...], ...]


def canon(groups: Iterable[Iterable[int]]) -> Partition:
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def unit_scale(points: Sequence[Point]) -> float:
    """The power of two that puts the largest |coordinate| in [1, 2), as
    `hull_builder.build` scales its input."""
    return 2.0 ** (1 - math.frexp(max(max(abs(p.x), abs(p.y)) for p in points))[1])


def build_partition(points: Sequence[Point], m: MetricParams) -> Partition:
    tch = hull_builder.build(points, m)
    return canon(c.member_indices for c in tch.clusters)


def random_points(rng: random.Random, n: int, span: float = 100.0) -> List[Point]:
    """Mixed coordinate styles so grids, duplicates and y=0 rows all occur."""
    style = rng.randrange(4)
    pts: List[Point] = []
    for _ in range(n):
        if style == 0:
            x, y = rng.uniform(-span, span), rng.uniform(-span, span)
        elif style == 1:
            x, y = float(rng.randint(-20, 20)), float(rng.randint(-20, 20))
        elif style == 2:
            x, y = rng.uniform(-span, span), rng.uniform(-3.0, 3.0)
        else:
            x, y = rng.uniform(-10.0, 10.0), rng.uniform(-span, span)
        pts.append(Point(x, y))
    if n >= 2 and rng.random() < 0.15:
        pts[rng.randrange(n)] = pts[rng.randrange(n)]
    return pts


def tie_free_instance(
    seed: int, n_lo: int = 2, n_hi: int = 24, retries: int = 40
) -> Tuple[List[Point], MetricParams, Partition]:
    """Seeded instance with an oracle margin clear of NEAR_TIE, plus its partition."""
    for k in range(retries):
        rng = random.Random(1_000_003 * seed + k)
        m = MetricParams.make(rng.choice(P_GRID), rng.choice(V_GRID))
        pts = random_points(rng, rng.randint(n_lo, n_hi))
        ref = oracle.cluster(pts, m)
        if ref.min_margin >= NEAR_TIE:
            return pts, m, canon(ref.partition)
    raise AssertionError("no tie-free instance found for seed %d" % seed)


def chain_y(vertices: Sequence[Point], x: float) -> float:
    """Piecewise-linear ordinate of a chain at x; x must lie in its span."""
    xs = [v.x for v in vertices]
    if not xs[0] <= x <= xs[-1]:
        raise ValueError("abscissa outside the chain span")
    j = bisect_right(xs, x) - 1
    if j == len(xs) - 1:
        return vertices[-1].y
    a, b = vertices[j], vertices[j + 1]
    return a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)
