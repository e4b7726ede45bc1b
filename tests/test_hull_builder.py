"""Partition construction end to end, checked against the exhaustive reference."""

import math
import random

import pytest

import helpers
from highwayhull import hull_builder, oracle
from highwayhull.geometry import common_tangent
from highwayhull.metric import (
    INF,
    DiscriminatingCurve,
    InvalidInputError,
    MetricParams,
    NumericError,
    Point,
)

SQ3 = math.sqrt(3.0)


# -- reference instances ---------------------------------------------------------

def test_single_point_and_duplicates():
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build([Point(3.0, 4.0)], m)
    assert [c.member_indices for c in tch.clusters] == [[0]]
    assert tch.bridges == []
    dup = hull_builder.build([Point(0, 1), Point(0, 1), Point(50, 2)], m)
    assert helpers.canon(c.member_indices for c in dup.clusters) == ((0, 1), (2,))


def test_two_far_singletons_bridge_spans_entry_points():
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build([Point(0.0, 1.0), Point(100.0, 1.0)], m)
    assert [c.member_indices for c in tch.clusters] == [[0], [1]]
    ((b0, b1),) = tch.bridges
    off = 1.0 / SQ3
    assert abs(b0 - off) < 1e-12 and abs(b1 - (100.0 - off)) < 1e-12


def test_reference_instance_three_clusters():
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(0, 1), Point(0.5, 1), Point(100, 1), Point(50, -30)]
    tch = hull_builder.build(pts, m)
    got = helpers.canon(c.member_indices for c in tch.clusters)
    assert got == ((0, 1), (2,), (3,))
    want = [
        (0.5 + 1.0 / SQ3, 50.0 - 30.0 / SQ3),
        (50.0 + 30.0 / SQ3, 100.0 - 1.0 / SQ3),
    ]
    assert len(tch.bridges) == 2
    for (g0, g1), (w0, w1) in zip(tch.bridges, want):
        assert abs(g0 - w0) < 1e-9 and abs(g1 - w1) < 1e-9
    assert all(c.footprint is None for c in tch.clusters)


def test_highway_points_stay_separate():
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(float(i), 0.0) for i in range(4)]
    tch = hull_builder.build(pts, m)
    assert [c.member_indices for c in tch.clusters] == [[0], [1], [2], [3]]
    assert tch.bridges == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]


def test_barely_faster_highway_cannot_split_tall_points():
    m = MetricParams.make(2.0, 1.0001)
    rng = random.Random(2)
    pts = [
        Point(rng.uniform(-100.0, 100.0), rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 40.0))
        for _ in range(25)
    ]
    tch = hull_builder.build(pts, m)
    assert len(tch.clusters) == 1


def test_straddling_pair_merges_with_one_closure_per_side():
    m = MetricParams.make(2.0, 2.0)
    tch = hull_builder.build([Point(0.0, 1.0), Point(0.2, -1.0)], m)
    assert len(tch.clusters) == 1
    cl = tch.clusters[0]
    assert list(cl.closure_above.upper) == [Point(0.0, 1.0)]
    assert list(cl.closure_below.lower) == [Point(0.2, -1.0)]
    assert cl.closure is cl.closure_above


def test_internal_highway_use_yields_footprint():
    # the ends walk to the tall middle point but ride between each other
    m = MetricParams.make(2.0, 2.0)
    pts = [Point(0.0, 5.0), Point(15.0, 9.0), Point(30.0, 5.0)]
    tch = hull_builder.build(pts, m)
    assert len(tch.clusters) == 1
    lo, hi = tch.clusters[0].footprint
    assert abs(lo - 5.0 / SQ3) < 1e-9
    assert abs(hi - (30.0 - 5.0 / SQ3)) < 1e-9
    assert tch.bridges == []


def test_build_input_validation():
    m = MetricParams.make(2.0, 2.0)
    with pytest.raises(InvalidInputError):
        hull_builder.build([], m)
    with pytest.raises(InvalidInputError):
        hull_builder.build([Point(math.nan, 0.0)], m)


def test_tangent_collapsed_onto_highway_is_skipped():
    # the right tangent of the edge (-5, 3)-(-4, 1) collapses onto the
    # highway: a band of zero height and zero slope, which locate skips
    m = MetricParams.make(50.0, INF)
    pts = [Point(-4.0, 1.0), Point(-2.0, 0.0), Point(-5.0, 3.0)]
    assert helpers.build_partition(pts, m) == ((0, 2), (1,))
    assert helpers.canon(oracle.cluster(pts, m).partition) == ((0, 2), (1,))


# -- exposure captures: points governed by grown boundary pieces -------------------

def test_tangent_bulge_boundary_decides_membership():
    m = MetricParams.make(2.0, 2.0)
    a, b = Point(0.0, 1.0), Point(4.0, 5.0)
    seg = common_tangent(
        DiscriminatingCurve(a, "left", m), DiscriminatingCurve(b, "left", m)
    )
    xm = 0.5 * (seg.start.x + seg.end.x)
    for dy, want in ((1e-3, ((0, 1, 2),)), (-1e-3, ((0,), (1, 2)))):
        q = Point(xm, seg.y_at(xm) + dy)
        pts = [q, a, b]
        assert helpers.build_partition(pts, m) == want
        assert helpers.canon(oracle.cluster(pts, m).partition) == want


def test_box_corner_wedge_decides_membership():
    # the virtual top-left corner of the grown box reaches further left
    # than either member does on its own
    m = MetricParams.make(1.0, 2.0)
    a, b = Point(0.0, 0.5), Point(1.0, 4.0)
    for qy, want in ((2.6, ((0, 1, 2),)), (2.4, ((0,), (1, 2)))):
        pts = [Point(-10.0, qy), a, b]
        assert helpers.build_partition(pts, m) == want
        assert helpers.canon(oracle.cluster(pts, m).partition) == want


# -- structural soundness -----------------------------------------------------------

def test_closures_contain_their_members():
    for seed in range(12):
        pts, m, _ = helpers.tie_free_instance(300 + seed)
        tch = hull_builder.build(pts, m)
        for cl in tch.clusters:
            for i in cl.member_indices:
                q = pts[i]
                h = cl.closure_above if q.y >= 0.0 else cl.closure_below
                if h is None and q.y == 0.0:
                    h = cl.closure_below
                up, lo = list(h.upper), list(h.lower)
                assert up[0].x - 1e-9 <= q.x <= up[-1].x + 1e-9
                x = min(max(q.x, up[0].x), up[-1].x)
                assert q.y <= helpers.chain_y(up, x) + 1e-9
                assert q.y >= helpers.chain_y(lo, x) - 1e-9


def test_cluster_order_and_bridge_positivity():
    for seed in range(8):
        pts, m, _ = helpers.tie_free_instance(400 + seed)
        tch = hull_builder.build(pts, m)
        mins = [min(pts[i].x for i in c.member_indices) for c in tch.clusters]
        assert mins == sorted(mins)
        for b0, b1 in tch.bridges:
            assert b1 > b0
        assert len(tch.bridges) <= max(0, len(tch.clusters) - 1)


def test_partition_covers_all_indices_once():
    for seed in range(8):
        pts, m, _ = helpers.tie_free_instance(500 + seed)
        tch = hull_builder.build(pts, m)
        seen = sorted(i for c in tch.clusters for i in c.member_indices)
        assert seen == list(range(len(pts)))


# -- oracle equivalence ---------------------------------------------------------------

def test_partition_matches_exhaustive_reference():
    mismatches = []
    for seed in range(40):
        pts, m, want = helpers.tie_free_instance(seed)
        got = helpers.build_partition(pts, m)
        if got != want:
            mismatches.append((seed, m.p, m.v, len(pts)))
    assert not mismatches


def test_partition_invariances():
    rng = random.Random(9)
    for seed in range(8):
        pts, m, want = helpers.tie_free_instance(100 + seed)
        n = len(pts)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = [pts[j] for j in perm]
        tch = hull_builder.build(permuted, m)
        mapped = helpers.canon(
            [perm[i] for i in c.member_indices] for c in tch.clusters
        )
        assert mapped == want
        dx = rng.uniform(-30.0, 30.0)
        assert helpers.build_partition([Point(q.x + dx, q.y) for q in pts], m) == want
        assert helpers.build_partition([Point(q.x, -q.y) for q in pts], m) == want
        assert helpers.build_partition([Point(-q.x, q.y) for q in pts], m) == want
        for s in (2.0**20, 2.0**-20):
            assert helpers.build_partition([Point(s * q.x, s * q.y) for q in pts], m) == want


def test_exponent_near_one_fails_only_with_typed_errors():
    # alpha underflows to 0 for these p although v is finite, so the curve
    # solver takes its vertical-descent bracket, whose 1 / (p - 1) exponent
    # overflows a float; failures must still be typed and carry p and v
    for p in (1.0 + 1e-7, 1.000001):
        for v in (1.5, 2.0, 10.0):
            m = MetricParams.make(p, v)
            for seed in range(10):
                rng = random.Random(seed)
                pts = [Point(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(20)]
                try:
                    got = helpers.build_partition(pts, m)
                except NumericError as ex:
                    assert "p=%r v=%r" % (p, v) in str(ex)
                    continue
                ref = oracle.cluster(pts, m)
                if ref.min_margin >= helpers.NEAR_TIE:
                    assert got == helpers.canon(ref.partition), (p, v, seed)
