"""Exhaustive reference partitioner: budgets, margins, region probes."""

import random

import pytest

import helpers
from highwayhull import hull_builder, oracle
from highwayhull.metric import INF, InvalidInputError, MetricParams, Point, reach_coefficient
from highwayhull.oracle import OracleBudgetError, _edge_region_margin


def test_partition_frozen_small_instance():
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(0, 1), Point(0.5, 1), Point(100, 1), Point(50, -30)]
    ref = oracle.cluster(pts, m)
    assert helpers.canon(ref.partition) == ((0, 1), (2,), (3,))
    assert ref.iterations >= 1
    assert ref.min_margin > 1.0


def test_refuses_oversized_inputs_unless_overridden():
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(float(i), 1.0) for i in range(12)]
    with pytest.raises(InvalidInputError, match="size_limit"):
        oracle.cluster(pts, m, size_limit=10)
    ref = oracle.cluster(pts, m, size_limit=12)
    assert sorted(i for g in ref.partition for i in g) == list(range(12))


def test_deadline_aborts_with_certificate():
    rng = random.Random(61)
    pts = [
        Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
        for _ in range(600)
    ]
    with pytest.raises(OracleBudgetError) as onfo:
        oracle.cluster(pts, MetricParams.make(2.0, 2.0), deadline=0.05)
    assert onfo.value.elapsed >= 0.05


def test_margin_tracks_closest_decision():
    # for p=1 the walking tie against a lower point at height 1 sits at dx = 4
    m = MetricParams.make(1.0, 2.0)
    near = oracle.cluster([Point(0.0, 1.0), Point(4.0 + 1e-8, 2.0)], m)
    assert helpers.canon(near.partition) == ((0,), (1,))
    assert near.min_margin < 1e-7
    merged = oracle.cluster([Point(0.0, 1.0), Point(4.0 - 1e-8, 2.0)], m)
    assert helpers.canon(merged.partition) == ((0, 1),)
    far = oracle.cluster([Point(0.0, 1.0), Point(30.0, 2.0)], m)
    assert far.min_margin > 1.0
    # a pair beyond the reach K Y records the linear-margin lemma's bound
    assert far.min_margin == (1.0 - 1.0 / m.v) * (30.0 - reach_coefficient(m) * 3.0)


def test_margin_sees_ties_the_pair_shortcuts_decide():
    # at p = inf these pairs' entry intervals touch to within ulps, so the
    # pair stage unions some of them on a negative float gap with direct <=
    # ride0; the build splits them ((0,), (1, 2, 3)), the oracle does not,
    # and the margin must flag the instance as a near tie
    pts = [Point(2.0560672735585728, 0.7609361036865657),
           Point(4.488974966190474, 1.6719715889453353),
           Point(3.8606680820513457, 0.15079677966944008),
           Point(5.5916749596630595, 1.5802100979422755)]
    assert oracle.cluster(pts, MetricParams.make(INF, INF)).min_margin < helpers.NEAR_TIE


def test_edge_probe_agrees_with_builder_probe():
    rng = random.Random(67)
    disagreements = 0
    checked = 0
    for p in (1.3, 2.0, 3.0, 7.0):
        for v in (1.1, 2.0, 5.0, 100.0):
            m = MetricParams.make(p, v)
            for _ in range(12):
                a = Point(rng.uniform(-5.0, 5.0), rng.uniform(0.1, 6.0))
                b = Point(
                    a.x + rng.uniform(0.2, 8.0), max(0.0, a.y + rng.uniform(-4.0, 4.0))
                )
                u = Point(rng.uniform(-20.0, 20.0), rng.uniform(-10.0, 10.0))
                want, margin = _edge_region_margin(u, (a, b), m)
                if margin < 1e-9:
                    continue
                checked += 1
                # the builder's probe takes unit-frame input: |coordinates| <= 20
                unit = [Point(q.x / 32.0, q.y / 32.0) for q in (u, a, b)]
                got = hull_builder._point_in_edge_region(*unit, m)
                disagreements += got != want
    assert checked > 150 and disagreements == 0


def test_identical_points_always_share_a_cluster():
    m = MetricParams.make(2.0, 5.0)
    pts = [Point(0.0, 0.0), Point(0.0, 0.0), Point(90.0, 0.0)]
    ref = oracle.cluster(pts, m)
    assert helpers.canon(ref.partition) == ((0, 1), (2,))


def test_non_finite_coordinates_rejected():
    # the reach filter would skip the predicates that validate their input
    m = MetricParams.make(2.0, 2.0)
    for pts in ([Point(float("nan"), 0.0)], [Point(INF, 1.0), Point(0.0, 1.0)]):
        with pytest.raises(InvalidInputError, match="finite"):
            oracle.cluster(pts, m)


def test_empty_input_rejected():
    with pytest.raises(InvalidInputError):
        oracle.cluster([], MetricParams.make(2.0, 2.0))
