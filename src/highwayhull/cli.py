"""Command-line front end.

Commands: build, oracle, compare, gen, render, bench.  Input is CSV with
one "x,y" pair per line and '#' comments; hull output is a canonical JSON
document with fixed field order and 12-significant-digit floats so equal
results serialize to identical bytes.  Exit codes: 0 success, 1 compare
found a partition diff, 2 invalid configuration, 3 parse error, 4 I/O
error.  Set HIGHWAYHULL_LOG to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import hull_builder, oracle
from .metric import INF, InvalidInputError, MetricParams, Point, y0_solver
from .render import render_svg

log = logging.getLogger("highwayhull")

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4


class ParseError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    p: float = 2.0
    v: float = 2.0
    input: Optional[str] = None
    output: Optional[str] = None
    seed: int = 0
    count: int = 10
    eps: float = 1.0
    gaps: Optional[List[float]] = None
    sizes: Optional[List[int]] = None
    reps: int = 3
    curves: bool = False
    wavefront_t: Optional[float] = None
    size_limit: Optional[int] = None

    def params(self) -> MetricParams:
        return MetricParams.make(self.p, self.v)


def _parse_scalar(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    return float(text)


def read_points(path: str) -> List[Point]:
    pts: List[Point] = []
    with open(path, "r") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError("line %d: expected 'x,y', got %r" % (ln, raw.rstrip()))
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError("line %d: non-numeric coordinate in %r" % (ln, raw.rstrip()))
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError("line %d: coordinates must be finite" % ln)
            pts.append(Point(x, y))
    if not pts:
        raise ParseError("no points in %s" % path)
    return pts


# -- canonical JSON -----------------------------------------------------------

def _jnum(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.12g" % x


def _canonical(doc: dict) -> str:
    """The one writer of hull documents; `doc` has the shape json.loads gives
    back, numbers either floats or the strings "inf" / "-inf"."""
    num = lambda x: _jnum(float(x))
    pair = lambda a, b: "[%s, %s]" % (num(a), num(b))
    points = lambda vs: "[%s]" % ", ".join(pair(x, y) for x, y in vs)
    pr = doc["params"]
    clusters = ", ".join(
        '{"id": %d, "members": %s, "upper": %s, "lower": %s, "footprint": %s}'
        % (cl["id"], json.dumps(cl["members"]), points(cl["upper"]), points(cl["lower"]),
           "null" if cl["footprint"] is None else pair(*cl["footprint"]))
        for cl in doc["clusters"]
    )
    return '{"params": {"p": %s, "v": %s, "alpha": %s}, "clusters": [%s], "bridges": [%s]}\n' % (
        num(pr["p"]), num(pr["v"]), num(pr["alpha"]), clusters,
        ", ".join(pair(a, b) for a, b in doc["bridges"]))


def tch_to_json(tch: hull_builder.TimeConvexHull) -> str:
    m = tch.params
    clusters = []
    for cid, cl in enumerate(tch.clusters):
        upper = cl.closure_above.upper if cl.closure_above is not None else cl.closure.upper
        lower = cl.closure_below.lower if cl.closure_below is not None else cl.closure.lower
        clusters.append({"id": cid, "members": cl.member_indices, "upper": upper.vertices,
                         "lower": lower.vertices, "footprint": cl.footprint})
    return _canonical({"params": {"p": m.p, "v": m.v, "alpha": m.alpha},
                       "clusters": clusters, "bridges": tch.bridges})


def rewrite_json(text: str) -> str:
    """Re-serialize a hull document canonically (round-trip check)."""
    return _canonical(json.loads(text))


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- commands -----------------------------------------------------------------

def _cmd_build(cfg: RunConfig) -> int:
    pts = read_points(cfg.input)
    tch = hull_builder.build(pts, cfg.params())
    _write(cfg.output, tch_to_json(tch))
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig) -> int:
    pts = read_points(cfg.input)
    limit = cfg.size_limit if cfg.size_limit is not None else oracle.SIZE_LIMIT
    ref = oracle.cluster(pts, cfg.params(), size_limit=limit)
    doc = {
        "partition": ref.partition,
        "iterations": ref.iterations,
        "min_margin": None if math.isinf(ref.min_margin) else float("%.12g" % ref.min_margin),
    }
    _write(cfg.output, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_compare(cfg: RunConfig) -> int:
    pts = read_points(cfg.input)
    m = cfg.params()
    tch = hull_builder.build(pts, m)
    limit = cfg.size_limit if cfg.size_limit is not None else oracle.SIZE_LIMIT
    ref = oracle.cluster(pts, m, size_limit=limit)
    got = sorted(sorted(c.member_indices) for c in tch.clusters)
    want = sorted(sorted(g) for g in ref.partition)
    if got == want:
        _write(cfg.output, json.dumps({"equal": True, "clusters": len(got)}) + "\n")
        return EXIT_OK
    report = {"equal": False, "build": got, "oracle": want}
    _write(cfg.output, json.dumps(report, sort_keys=True) + "\n")
    return EXIT_DIFF


def _cmd_gen(cfg: RunConfig) -> int:
    if cfg.gaps is not None:
        gaps = cfg.gaps
    else:
        rng = random.Random(cfg.seed)
        gaps = []
        for _ in range(max(1, cfg.count - 1)):
            if rng.random() < 0.5:
                gaps.append(cfg.eps * rng.uniform(0.3, 0.98))
            else:
                gaps.append(cfg.eps * rng.uniform(1.02, 3.0))
    if any(g <= 0 for g in gaps):
        raise InvalidInputError("gaps must be positive")
    y0 = y0_solver(cfg.p, cfg.eps)
    xs = [0.0]
    for g in gaps:
        xs.append(xs[-1] + g)
    expected = len(xs) - sum(1 for g in gaps if g <= cfg.eps)
    lines = [
        "# min-gap instance: points at the critical height for eps under v=inf",
        "# p=%s eps=%s y0=%.12g" % (_pname(cfg.p), "%.12g" % cfg.eps, y0),
        "# v=inf expected_clusters=%d" % expected,
    ]
    lines += ["%.12g,%.12g" % (x, y0) for x in xs]
    _write(cfg.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _pname(p: float) -> str:
    return "inf" if math.isinf(p) else "%.12g" % p


def _cmd_render(cfg: RunConfig) -> int:
    pts = read_points(cfg.input)
    tch = hull_builder.build(pts, cfg.params())
    svg = render_svg(tch, pts, curves=cfg.curves, wavefront_t=cfg.wavefront_t)
    _write(cfg.output, svg)
    return EXIT_OK


def _cmd_bench(cfg: RunConfig) -> int:
    sizes = cfg.sizes or [1024, 4096, 16384]
    m = cfg.params()
    rng = random.Random(cfg.seed)
    records = []
    for n in sizes:
        times = []
        for _ in range(cfg.reps):
            pts = [Point(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)]
            t0 = time.perf_counter()
            hull_builder.build(pts, m)
            times.append(time.perf_counter() - t0)
        times.sort()
        records.append({"n": n, "median_s": times[len(times) // 2], "runs": cfg.reps})
        log.info("bench n=%d median=%.4fs", n, times[len(times) // 2])
    _write(cfg.output, "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "gen": _cmd_gen,
    "render": _cmd_render,
    "bench": _cmd_bench,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="highwayhull",
        description="Time-convex hulls under an Lp metric with an x-axis highway.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, io=True):
        sp.add_argument("--p", default="2", help="Lp exponent, >= 1 or 'inf'")
        sp.add_argument("--v", default="2", help="highway speed, > 1 or 'inf'")
        if io:
            sp.add_argument("--input", required=True, help="points CSV (x,y per line)")
        sp.add_argument("--output", default="-", help="output path (default stdout)")

    common(sub.add_parser("build", help="cluster points and emit hull JSON"))
    sp = sub.add_parser("oracle", help="brute-force partition JSON")
    common(sp)
    sp.add_argument("--size-limit", type=int, default=None)
    sp = sub.add_parser("compare", help="build vs oracle; nonzero exit on diff")
    common(sp)
    sp.add_argument("--size-limit", type=int, default=None)
    sp = sub.add_parser("gen", help="emit a min-gap instance CSV")
    sp.add_argument("--p", default="2")
    sp.add_argument("--eps", required=True, help="critical gap length")
    sp.add_argument("--gaps", default=None, help="comma-separated gap list")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=10, help="points when sampling gaps")
    sp.add_argument("--output", default="-")
    sp = sub.add_parser("render", help="emit an SVG figure")
    common(sp)
    sp.add_argument("--curves", action="store_true", help="draw walking-region boundaries")
    sp.add_argument("--wavefront-t", type=float, default=None, help="draw wavefronts at time t")
    sp = sub.add_parser("bench", help="size sweep timings")
    sp.add_argument("--p", default="2")
    sp.add_argument("--v", default="2")
    sp.add_argument("--sizes", default=None, help="comma-separated point counts")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--output", default="-")
    return ap


def parse_config(argv: Sequence[str]) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)
    try:
        cfg.p = _parse_scalar(ns.p)
        cfg.v = _parse_scalar(ns.v) if hasattr(ns, "v") else INF
    except ValueError:
        raise InvalidInputError("p and v must be numbers or 'inf'")
    cfg.input = getattr(ns, "input", None)
    cfg.output = getattr(ns, "output", None)
    cfg.seed = getattr(ns, "seed", 0)
    cfg.count = getattr(ns, "count", 10)
    cfg.size_limit = getattr(ns, "size_limit", None)
    cfg.curves = getattr(ns, "curves", False)
    cfg.wavefront_t = getattr(ns, "wavefront_t", None)
    cfg.reps = getattr(ns, "reps", 3)
    if getattr(ns, "eps", None) is not None:
        cfg.eps = _parse_scalar(ns.eps)
    if getattr(ns, "gaps", None):
        try:
            cfg.gaps = [float(t) for t in ns.gaps.split(",") if t.strip()]
        except ValueError:
            raise InvalidInputError("gaps must be a comma-separated number list")
    if getattr(ns, "sizes", None):
        try:
            cfg.sizes = [int(t) for t in ns.sizes.split(",") if t.strip()]
        except ValueError:
            raise InvalidInputError("sizes must be a comma-separated integer list")
    if cfg.command == "gen":
        cfg.v = INF
        if not cfg.eps > 0:
            raise InvalidInputError("eps must be positive")
    # validate metric parameters eagerly for config errors
    if cfg.command != "gen":
        MetricParams.make(cfg.p, cfg.v)
    elif not cfg.p >= 1.0:
        raise InvalidInputError("p must be >= 1")
    return cfg


def run(cfg: RunConfig) -> int:
    return _COMMANDS[cfg.command](cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("HIGHWAYHULL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(list(sys.argv[1:] if argv is None else argv))
    except InvalidInputError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(cfg)
    except InvalidInputError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as ex:
        print("parse error: %s" % ex, file=sys.stderr)
        return EXIT_PARSE
    except OSError as ex:
        print("i/o error: %s" % ex, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
