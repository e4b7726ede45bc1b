"""Acceptance gate: seven release criteria, one verdict line each.

Run with `pytest -v tests/test_acceptance.py`.  Each test prints
`A<k>: PASS - <measurement>` (or FAIL) on the terminal even under
capture, so the release checklist is readable straight off the log.
"""

import bisect
import math
import random
import time

import pytest

import helpers
from highwayhull import hull_builder, metric, oracle, subpath_hull
from highwayhull.geometry import QuerySegment
from highwayhull.metric import (
    INF,
    MetricParams,
    Point,
    alpha,
    lp_distance,
    polyline_time,
    shortest_path,
    time_distance,
    wavefront,
    y0_solver,
)

P_GRID = helpers.P_GRID
V_GRID = helpers.V_GRID


def _verdict(capfd, label, fn):
    try:
        detail = fn()
    except BaseException as exc:
        with capfd.disabled():
            print("%s: FAIL - %s" % (label, exc), flush=True)
        raise
    with capfd.disabled():
        print("%s: PASS - %s" % (label, detail), flush=True)


def test_a1_builder_matches_oracle_on_random_instances(capfd):
    def run():
        t0 = time.perf_counter()
        checked = 0
        for i in range(500):
            m = MetricParams.make(P_GRID[i % 6], V_GRID[(i // 6) % 5])
            rng = random.Random(7_000_019 * i + 11)
            for _ in range(60):
                n = rng.randint(2, 120)
                pts = [
                    Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
                    for _ in range(n)
                ]
                ref = oracle.cluster(pts, m)
                if ref.min_margin >= 1e-7:
                    break
            else:
                raise AssertionError("no tie-free draw after 60 tries at i=%d" % i)
            got = hull_builder.build(pts, m)
            assert helpers.canon(c.member_indices for c in got.clusters) == helpers.canon(
                ref.partition
            ), "partition mismatch at instance %d (p=%g v=%g n=%d)" % (i, m.p, m.v, n)
            checked += 1
        dt = time.perf_counter() - t0
        assert dt < 300.0, "suite took %.1f s (budget 300 s)" % dt
        return "incremental build equals exhaustive oracle on %d/500 instances, %.1f s" % (
            checked,
            dt,
        )

    _verdict(capfd, "A1", run)


def test_a2_closed_forms_match_generic_solver(capfd):
    def run():
        worst_a = max(
            abs(alpha(2.0, v) - math.asin(1.0 / v))
            for v in (1.01, 1.1, 1.5, 2.0, 5.0, 100.0, 1e6)
        )
        assert worst_a <= 1e-12, "alpha(2,v) off arcsin(1/v) by %.3g" % worst_a

        rng = random.Random(424243)
        worst = {1.0: 0.0, 2.0: 0.0, INF: 0.0}
        for p in (1.0, 2.0, INF):
            for _ in range(1000):
                v = rng.choice((1.1, 1.5, 2.0, 5.0, 100.0))
                m = MetricParams.make(p, v)
                yq = rng.uniform(0.2, 30.0)
                # the solver sees only dx and |y|: the abscissa, side and
                # sign draws stay so that the seeded sequence does
                rng.uniform(-5.0, 5.0), rng.choice(("left", "right")), rng.random()
                if p == 1.0:
                    beta = (1.0 - 1.0 / v) / 2.0
                    dx = (yq / beta) * rng.uniform(0.02, 0.98)
                    expected = beta * dx
                elif p == 2.0:
                    c = math.sqrt(v * v - 1.0) / v
                    # abscissa past the entry offset yq*tan(alpha), where the
                    # region boundary starts
                    dx = yq / math.sqrt(v * v - 1.0) + yq * rng.uniform(0.05, 4.0) + rng.uniform(0.01, 2.0)
                    big = (2.0 * v * v - 1.0) * yq + c * v * dx
                    k = yq * yq - 2.0 * c * v * dx * yq + (v * v - 1.0) * dx * dx
                    expected = big - math.sqrt(big * big - k)
                else:
                    dx = yq + rng.uniform(0.01, 40.0)
                    expected = dx - yq
                got = metric._curve_generic(dx, yq, m)
                assert got is not None
                err = abs(got - expected)
                worst[p] = max(worst[p], err)
                assert err <= 1e-9, "p=%g v=%g dx=%g: |%.12g - %.12g| = %.3g" % (
                    p,
                    v,
                    dx,
                    got,
                    expected,
                    err,
                )
        return (
            "alpha residual %.1e; curve vs closed form at 1000 abscissae each: "
            "p=1 %.1e, p=2 %.1e, p=inf %.1e" % (worst_a, worst[1.0], worst[2.0], worst[INF])
        )

    _verdict(capfd, "A2", run)


def test_a3_cluster_count_tracks_minimum_gap(capfd):
    def run():
        checked = 0
        for pi, p in enumerate((1.0, 2.0, INF)):
            m = MetricParams.make(p, INF)
            for k in range(100):
                rng = random.Random(31_337 + 10_000 * pi + k)
                eps = rng.uniform(0.4, 3.0)
                y0 = y0_solver(p, eps)
                n = rng.randint(3, 40)
                below_prob = rng.choice((0.0, 0.25, 0.5, 0.8))
                gaps = []
                for _ in range(n - 1):
                    while True:
                        if rng.random() < below_prob:
                            g = eps * rng.uniform(0.05, 0.95)
                        else:
                            g = eps * rng.uniform(1.05, 3.0)
                        if abs(g - eps) >= 1e-4:
                            break
                    gaps.append(g)
                xs = [0.0]
                for g in gaps:
                    xs.append(xs[-1] + g)
                pts = [Point(x, y0) for x in xs]
                count = len(hull_builder.build(pts, m).clusters)
                expected = n - sum(1 for g in gaps if g <= eps)
                assert count == expected, (
                    "p=%g eps=%g n=%d: %d clusters, expected %d" % (p, eps, n, count, expected)
                )
                assert (count < n) == (min(gaps) <= eps)
                checked += 1
        return "cluster count is n minus the below-threshold gap count on %d instances" % checked

    _verdict(capfd, "A3", run)


def test_a4_segment_queries_match_scan_and_stay_fast(capfd):
    def run():
        rng = random.Random(99_173)
        n = 10_000
        xs = sorted(rng.uniform(-1000.0, 1000.0) for _ in range(n))
        pts = [Point(x, rng.uniform(-50.0, 50.0)) for x in xs]
        tree = subpath_hull.build(pts)

        checked = 0
        skipped = 0
        times = []
        while checked + skipped < 10_000:
            u = rng.random()
            if u < 0.5:
                width = rng.uniform(0.1, 20.0)
            elif u < 0.85:
                width = rng.uniform(20.0, 200.0)
            else:
                width = rng.uniform(200.0, 2000.0)
            x1 = rng.uniform(-1050.0, 1050.0 - width)
            slope = rng.uniform(-3.0, 3.0)
            y1 = rng.uniform(-60.0, 60.0)
            seg = QuerySegment(Point(x1, y1), Point(x1 + width, y1 + slope * width))

            lo = bisect.bisect_right(xs, seg.start.x)
            hi = bisect.bisect_left(xs, seg.end.x)
            best = -INF
            for i in range(lo, hi):
                d = pts[i].y - seg.y_at(pts[i].x)
                if d > best:
                    best = d
            if -1e-9 < best < 1e-9:
                skipped += 1  # within scan tolerance of the line: no verdict
                continue
            t0 = time.perf_counter()
            got = tree.any_point_above(seg)
            times.append(time.perf_counter() - t0)
            assert got == (best > 0.0), "query %d disagrees (scan margin %.3g)" % (
                checked,
                best,
            )
            checked += 1
        assert checked >= 9_000, "only %d non-marginal queries" % checked
        times.sort()
        med = times[len(times) // 2]
        assert med <= 50e-6, "median query time %.1f us (budget 50 us)" % (med * 1e6)
        return "%d queries agree with linear scan, median %.1f us per query" % (
            checked,
            med * 1e6,
        )

    _verdict(capfd, "A4", run)


def test_a5_build_scales_near_linearithmic(capfd):
    def run():
        m = MetricParams.make(2.0, 2.0)
        rng = random.Random(5150)

        def draw(n):
            return [
                Point(rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0))
                for _ in range(n)
            ]

        def timed_build(pts):
            t0 = time.perf_counter()
            hull_builder.build(pts, m)
            return time.perf_counter() - t0

        # the ten inputs are drawn first, five of 2^16 and then five of
        # 2^17, and the builds of the two sizes alternate, so drift of the
        # host's speed hits both medians alike
        inputs = [draw(n) for n in [1 << 16] * 5 + [1 << 17] * 5]
        runs = [timed_build(inputs[i + k]) for i in range(5) for k in (0, 5)]
        del inputs
        t16 = sorted(runs[0::2])[2]
        t17 = sorted(runs[1::2])[2]
        ratio = t17 / t16
        assert ratio <= 2.6, "T(2n)/T(n) = %.2f at n=2^16 (budget 2.6)" % ratio

        big = draw(1_000_000)
        t0 = time.perf_counter()
        hull_builder.build(big, m)
        t_big = time.perf_counter() - t0
        assert t_big < 30.0, "n=1e6 build took %.1f s (budget 30 s)" % t_big

        pts16 = draw(1 << 16)
        budget = 20.0 * t16
        t0 = time.perf_counter()
        try:
            oracle.cluster(pts16, m, size_limit=1 << 16, deadline=budget)
            oracle_s = time.perf_counter() - t0
        except oracle.OracleBudgetError as stopped:
            oracle_s = stopped.elapsed
        assert oracle_s >= budget, "oracle finished in %.2f s < 20x build" % oracle_s
        return (
            "T(2^16)=%.2fs, T(2^17)=%.2fs (ratio %.2f); n=1e6 in %.1fs; "
            "oracle at 2^16 exceeded %.1fs (>=20x build)"
            % (t16, t17, ratio, t_big, budget)
        )

    _verdict(capfd, "A5", run)


def test_a6_time_distance_is_a_metric_below_walking(capfd):
    def run():
        rng = random.Random(606_060)
        worst_tri = -INF
        for i in range(100_000):
            m = MetricParams.make(P_GRID[i % 6], V_GRID[(i // 6) % 5])
            a = Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
            b = Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
            c = Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
            dab = time_distance(a, b, m)
            assert dab == time_distance(b, a, m), "symmetry broke at triple %d" % i
            slack = dab - (time_distance(a, c, m) + time_distance(c, b, m))
            worst_tri = max(worst_tri, slack)
            assert slack <= 1e-9, "triangle violated by %.3g at triple %d" % (slack, i)
            assert dab <= lp_distance(a, b, m.p), "faster to walk at triple %d" % i
        return (
            "100000 triples: symmetry exact, worst triangle slack %.1e, "
            "never above walking time" % worst_tri
        )

    _verdict(capfd, "A6", run)


def test_a7_wavefront_tangency_and_path_times(capfd):
    def run():
        rng = random.Random(777_001)
        worst = 0.0
        for _ in range(100):
            p = rng.choice((1.3, 1.7, 2.0, 2.6, 3.0, 5.0, 7.0))
            v = rng.choice((1.1, 1.5, 2.0, 5.0, 100.0))
            t = rng.uniform(0.1, 50.0)
            m = MetricParams.make(p, v)
            w = wavefront(Point(0.0, 0.0), t, m)
            fx, fy = w.fan_right
            on_circle = abs((fx**p + fy**p) ** (1.0 / p) - t)
            seg_slope = (0.0 - fy) / (v * t - fx)
            circle_slope = -(fx ** (p - 1.0)) * (t**p - fx**p) ** (1.0 / p - 1.0)
            tangency = abs(seg_slope - circle_slope)
            sine = abs(math.sin(alpha(p, v)) - fx / math.hypot(fx, fy))
            res = max(on_circle, tangency, sine)
            worst = max(worst, res)
            assert res <= 1e-9, "p=%g v=%g t=%g: residual %.3g" % (p, v, t, res)

        worst_path = 0.0
        for i in range(10_000):
            m = MetricParams.make(P_GRID[i % 6], V_GRID[(i // 6) % 5])
            a = Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
            b = Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
            err = abs(polyline_time(shortest_path(a, b, m), m) - time_distance(a, b, m))
            worst_path = max(worst_path, err)
            assert err <= 1e-9, "path time off by %.3g at pair %d" % (err, i)
        return (
            "tangency residual <= %.1e over 100 wavefronts; path-time identity "
            "residual <= %.1e over 10000 pairs" % (max(worst, 1e-18), max(worst_path, 1e-18))
        )

    _verdict(capfd, "A7", run)
