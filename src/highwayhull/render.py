"""SVG rendering of a built hull: presentational only.

Screen coordinates flip y, the highway is a distinct horizontal rule, and
all curved shapes (walking-region boundaries, wavefront arcs) are sampled
polylines with CURVE_SAMPLES points.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .geometry import ClosureHull
from .hull_builder import TimeConvexHull
from .metric import (
    DiscriminatingCurve,
    MetricParams,
    NumericError,
    Point,
    _p_circle_y,
    coordinates,
    disc_curve_y,
    entry_points,
    wavefront,
)

CURVE_SAMPLES = 256

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)


def _fmt(x: float) -> str:
    return "%.6g" % x


class _Canvas:
    def __init__(self, xmin: float, xmax: float, ymin: float, ymax: float):
        pad = 0.06 * max(xmax - xmin, ymax - ymin, 1.0)
        self.x0 = xmin - pad
        self.y1 = ymax + pad
        self.scale = 900.0 / max(xmax - xmin + 2 * pad, 1e-9)
        self.w = (xmax - xmin + 2 * pad) * self.scale
        self.h = (ymax - ymin + 2 * pad) * self.scale
        self.parts: List[str] = []

    def pt(self, p: Point) -> str:
        return "%s,%s" % (
            _fmt((p.x - self.x0) * self.scale),
            _fmt((self.y1 - p.y) * self.scale),
        )

    def polyline(self, pts: Sequence[Point], stroke: str, width: float = 1.2,
                 dash: Optional[str] = None, fill: str = "none") -> None:
        if len(pts) < 2:
            return
        d = " ".join(self.pt(p) for p in pts)
        extra = ' stroke-dasharray="%s"' % dash if dash else ""
        self.parts.append(
            '<polyline points="%s" fill="%s" stroke="%s" stroke-width="%s"%s/>'
            % (d, fill, stroke, _fmt(width), extra)
        )

    def circle(self, p: Point, r: float, fill: str) -> None:
        cx, cy = self.pt(p).split(",")
        self.parts.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s"/>' % (cx, cy, _fmt(r), fill)
        )

    def svg(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %s %s" '
            'width="%s" height="%s">' % (_fmt(self.w), _fmt(self.h), _fmt(self.w), _fmt(self.h))
        )
        return head + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _closure_outline(h: ClosureHull) -> List[Point]:
    up = list(h.upper.vertices)
    lo = list(h.lower.vertices)
    return up + lo[::-1][1:] + ([up[0]] if len(up) > 1 or len(lo) > 1 else [])


def _region_curves(g: Point, m: MetricParams, span: float) -> List[List[Point]]:
    out = []
    for side in ("left", "right"):
        c = DiscriminatingCurve(g, side, m)
        e_l, e_r = entry_points(g, m)
        if side == "left":
            xs = [e_l.x - span * i / (CURVE_SAMPLES - 1) for i in range(CURVE_SAMPLES)]
        else:
            xs = [e_r.x + span * i / (CURVE_SAMPLES - 1) for i in range(CURVE_SAMPLES)]
        pts = []
        for x in xs:
            try:
                y = disc_curve_y(c, x)
            except NumericError:
                break
            if y is None:
                break
            pts.append(Point(x, math.copysign(y, g.y) if g.y != 0.0 else y))
        if len(pts) >= 2:
            out.append(pts)
    return out


def _wavefront_outline(q: Point, t: float, m: MetricParams) -> List[Point]:
    w = wavefront(q, t, m)
    pts: List[Point] = []
    if math.isfinite(w.highway_left.x):
        pts.append(w.highway_left)
    fx = w.fan_right.x - q.x
    for i in range(CURVE_SAMPLES):
        x = -fx + 2 * fx * i / (CURVE_SAMPLES - 1) if fx > 0 else 0.0
        pts.append(Point(q.x + x, _p_circle_y(x, t, m.p)))
    if math.isfinite(w.highway_right.x):
        pts.append(w.highway_right)
    return pts


def render_svg(
    tch: TimeConvexHull,
    points: Sequence[Point],
    curves: bool = False,
    wavefront_t: Optional[float] = None,
) -> str:
    xs, ys = coordinates(points)
    pts = list(map(Point, xs, ys))
    cv = _Canvas(min(xs), max(xs), min(min(ys), 0.0), max(max(ys), 0.0))

    cv.polyline(
        [Point(cv.x0, 0.0), Point(cv.x0 + cv.w / cv.scale, 0.0)],
        stroke="#222222", width=2.5,
    )

    m = tch.params
    span = (max(xs) - min(xs)) * 0.5 + 1.0
    for ci, cl in enumerate(tch.clusters):
        color = _PALETTE[ci % len(_PALETTE)]
        for h in (cl.closure_above, cl.closure_below):
            if h is None:
                continue
            cv.polyline(_closure_outline(h), stroke=color, width=1.6)
            if curves:
                gens = set(h.upper.vertices) | set(h.lower.vertices) | set(h.corner_generators)
                for g in gens:
                    for arc in _region_curves(g, m, span):
                        cv.polyline(arc, stroke=color, width=0.6, dash="2,3")
        for i in cl.member_indices:
            cv.circle(pts[i], 3.0, color)
        if cl.footprint is not None:
            cv.polyline(
                [Point(cl.footprint[0], 0.0), Point(cl.footprint[1], 0.0)],
                stroke=color, width=5.0,
            )
            if wavefront_t is not None:
                for xq in cl.footprint:
                    cv.polyline(
                        _wavefront_outline(Point(xq, 0.0), wavefront_t, m),
                        stroke=color, width=0.8, dash="4,2",
                    )
    for a, b in tch.bridges:
        cv.polyline(
            [Point(a, 0.0), Point(b, 0.0)],
            stroke="#555555", width=3.0, dash="6,4",
        )
    return cv.svg()
