"""Seeded input families and the benchmark's three workloads.

Every workload is a fixed list of cells (family, n, side, p, v).  The seed
is a benchmark argument; `cell_points` turns (seed, cell index) into a list
of (x, y) tuples, so the program under test receives only points.  Each
cell draws from its own `random.Random` seeded with a string, which CPython
hashes with SHA-512, so the inputs do not depend on PYTHONHASHSEED or on
the order in which cells are generated.

Why these workloads: each one routes the build's time into a different
module, and each is the bypass workload for the layers the others stress.

- onesided_box: one side under the box metrics (p in {1, inf}, or
  v = inf with vertical descent).  Time goes to the sweep: frontier
  locate, the subpath hull tree and its exposure queries, and per-cluster
  box closures.  No tangent solve, no cross-side join, trivial footprints.
- onesided_convex: one side under the convex regimes.  Strips spend their
  time in the tangent solve; arcs and cups put every point on one cluster
  boundary, so the O(h^2) footprint pair loop dominates.  No cross-side
  join.
- twosided: points on both sides, so time goes to the cross-side join:
  stage-1 pair tests when tan(alpha) = 0 (p = 1, v = inf), root-pair
  fixpoint rounds over singletons (alternating, v = 2), edge-region tests
  with minimize_scalar (alternating, v = 1.1, where the reach grows enough
  to build small mixed clusters), and the mixed-cluster closure recompute
  of the dense uniform square.  A two-sided sparse strip drives the same
  edge-region tests, but its work is set by a few large mixed components
  and by the fixpoint's round count: minimize_scalar calls spread by more
  than 100 % (quartiles over twelve seeds) at n = 128 and by 32 % at
  n = 512, which costs 5 s a build, so no affordable size was steady.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

INF = math.inf
COMPANION_N = 128

XY = Tuple[float, float]


def _signed(rng: random.Random, y: float, two_sided: bool) -> float:
    return -y if two_sided and rng.random() < 0.5 else y


def uniform_square(rng: random.Random, n: int, two_sided: bool) -> List[XY]:
    """x ~ U[-100, 100], |y| ~ U[0, 100]."""
    return [
        (rng.uniform(-100.0, 100.0), _signed(rng, rng.uniform(0.0, 100.0), two_sided))
        for _ in range(n)
    ]


def sparse_strip(rng: random.Random, n: int, two_sided: bool) -> List[XY]:
    """x ~ U[0, n], |y| log-uniform in [0.05, 5]: hundreds to thousands of
    clusters at any n."""
    lo, hi = math.log(0.05), math.log(5.0)
    return [
        (rng.uniform(0.0, float(n)), _signed(rng, math.exp(rng.uniform(lo, hi)), two_sided))
        for _ in range(n)
    ]


def _arc_angles(rng: random.Random, n: int) -> List[float]:
    return [rng.uniform(0.05, math.pi - 0.05) for _ in range(n)]


def convex_arc(rng: random.Random, n: int, two_sided: bool) -> List[XY]:
    """Points on the upper half of a radius-100 circle centred on the
    highway.  Both coordinates come from one angle per point, which keeps
    every point in convex position; jittering x and y independently would
    not."""
    _one_sided_only("convex_arc", two_sided)
    return [(100.0 * math.cos(t), 100.0 * math.sin(t)) for t in _arc_angles(rng, n)]


def convex_cup(rng: random.Random, n: int, two_sided: bool) -> List[XY]:
    """Points on the lower half of a radius-100 circle centred at (0, 101),
    so every point lies on the cluster's lower boundary."""
    _one_sided_only("convex_cup", two_sided)
    return [(100.0 * math.cos(t), 101.0 - 100.0 * math.sin(t)) for t in _arc_angles(rng, n)]


def alternating(rng: random.Random, n: int, two_sided: bool) -> List[XY]:
    """x = 10 i + U[-1, 1], sides alternating, |y| ~ U[1, 3]."""
    if not two_sided:
        raise ValueError("alternating points are two-sided by definition")
    return [
        (10.0 * i + rng.uniform(-1.0, 1.0), (1.0 if i % 2 == 0 else -1.0) * rng.uniform(1.0, 3.0))
        for i in range(n)
    ]


def _one_sided_only(family: str, two_sided: bool) -> None:
    if two_sided:
        raise ValueError("%s is a one-sided family" % family)


FAMILIES: Dict[str, Callable[[random.Random, int, bool], List[XY]]] = {
    "uniform_square": uniform_square,
    "sparse_strip": sparse_strip,
    "convex_arc": convex_arc,
    "convex_cup": convex_cup,
    "alternating": alternating,
}


@dataclass(frozen=True)
class Cell:
    family: str
    n: int
    two_sided: bool
    p: float
    v: float

    @property
    def name(self) -> str:
        return "%s-%d-%s-p%s-v%s" % (
            self.family, self.n, "two" if self.two_sided else "one", _num(self.p), _num(self.v)
        )


def _num(x: float) -> str:
    return "inf" if math.isinf(x) else ("%g" % x)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: Tuple[Cell, ...]


def _one(family: str, n: int, p: float, v: float) -> Cell:
    return Cell(family, n, False, p, v)


def _two(family: str, n: int, p: float, v: float) -> Cell:
    return Cell(family, n, True, p, v)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "onesided_box",
            "one side under box metrics: sweep, hull-tree exposure and box closures; "
            "bypasses tangents, cross-side join and footprints",
            (
                _one("sparse_strip", 1 << 15, 1.0, 2.0),
                _one("sparse_strip", 1 << 15, INF, 2.0),
                _one("sparse_strip", 1 << 15, 1.0, INF),
                _one("uniform_square", 1 << 15, 1.0, 2.0),
            ),
        ),
        Workload(
            "onesided_convex",
            "one side under convex regimes: tangent solves on strips, O(h^2) "
            "footprints on arcs and cups; bypasses the cross-side join",
            (
                _one("sparse_strip", 1 << 13, 2.0, 2.0),
                _one("sparse_strip", 1 << 11, 7.0, 5.0),
                _one("sparse_strip", 1 << 11, 1.3, 2.0),
                _one("convex_arc", 512, 2.0, 2.0),
                _one("convex_cup", 512, 2.0, 2.0),
                _one("convex_cup", 512, 1.3, 1.1),
            ),
        ),
        Workload(
            "twosided",
            "points on both sides: stage-1 pair tests, fixpoint rounds, edge-region "
            "minimize_scalar and mixed-cluster closures of the cross-side join",
            (
                _two("uniform_square", 1 << 14, 2.0, 2.0),
                _two("uniform_square", 2048, 1.0, 2.0),
                _two("uniform_square", 1024, 2.0, INF),
                _two("alternating", 1024, 2.0, 2.0),
                _two("alternating", 256, 2.0, 1.1),
            ),
        ),
    )
}


def cell_points(seed: int, index: int, cell: Cell, n: int = 0) -> List[XY]:
    """The cell's input for `seed`; pass `n` to draw a differently sized
    instance of the same family and side (the companion oracle check)."""
    size = n or cell.n
    rng = random.Random("%d:%d:%s:%d" % (seed, index, cell.family, size))
    return FAMILIES[cell.family](rng, size, cell.two_sided)
