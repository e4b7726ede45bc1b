"""Correctness checks on every build the benchmark makes.

Timed outputs get structural checks that are linear in the output size.
Each cell also gets an untimed companion instance of COMPANION_N points
(same family, side and regime) whose partition must equal the exhaustive
oracle's; instances where the oracle saw a decision margin below
NEAR_TIE_MARGIN are skipped as near-ties and counted, because there the
two routes may round a tie differently without either being wrong.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from highwayhull import hull_builder, oracle
from highwayhull.metric import MetricParams

NEAR_TIE_MARGIN = 1e-7


def structural_errors(tch: hull_builder.TimeConvexHull, points: Sequence) -> List[str]:
    """Empty when members partition range(n) exactly once, clusters are
    ordered by min member x, footprints have lo <= hi, and bridges are
    increasing and pairwise disjoint."""
    errors = []
    n = len(points)
    seen = [False] * n
    for cl in tch.clusters:
        for i in cl.member_indices:
            if not 0 <= i < n or seen[i]:
                errors.append("member %r out of range or repeated" % (i,))
                break
            seen[i] = True
    if not all(seen):
        errors.append("%d points in no cluster" % seen.count(False))
    if errors:
        return errors
    min_x = [min(points[i][0] for i in cl.member_indices) for cl in tch.clusters]
    if any(a > b for a, b in zip(min_x, min_x[1:])):
        errors.append("clusters not ordered by min member x")
    for cl in tch.clusters:
        if cl.footprint is not None and not cl.footprint[0] <= cl.footprint[1]:
            errors.append("footprint %r has lo > hi" % (cl.footprint,))
            break
    for a, b in tch.bridges:
        if not a < b:
            errors.append("bridge (%r, %r) not increasing" % (a, b))
            break
    for (_, b0), (a1, _) in zip(tch.bridges, tch.bridges[1:]):
        if b0 > a1:
            errors.append("bridges overlap at %r > %r" % (b0, a1))
            break
    return errors


def companion_check(points: Sequence, m: MetricParams) -> Optional[bool]:
    """True when build's partition equals the oracle's, False when not,
    None when the oracle reports a near-tie."""
    ref = oracle.cluster(points, m)
    if ref.min_margin < NEAR_TIE_MARGIN:
        return None
    got = sorted(sorted(cl.member_indices) for cl in hull_builder.build(points, m).clusters)
    return got == ref.partition
