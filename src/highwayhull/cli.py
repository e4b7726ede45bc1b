"""Command-line front end.

Commands: build, oracle, compare, gen, render.  Input is CSV with one "x,y"
pair per line and '#' comments; hull output is a canonical JSON document
with fixed field order and 12-significant-digit floats so equal results
serialize to identical bytes.  Exit codes: 0 success, 1 compare found a
partition diff, 2 invalid configuration, 3 parse error, 4 I/O error, 5 a
numeric solve that failed or a hull beyond the float range
(metric.NumericError, e.g. a tangency or a p = inf apex beyond it).
`gen` writes its points at the closed-form tie height y0 = eps / 2.
Build timings come from perfbench/run.py, not from this front end.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import List, Optional, Sequence

from . import hull_builder, oracle
from .metric import INF, InvalidInputError, MetricParams, NumericError, Point, y0_solver
from .render import render_svg

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


class ParseError(ValueError):
    pass


def _parse_scalar(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return INF
    try:
        return float(text)
    except ValueError:
        raise InvalidInputError("expected a number or 'inf', got %r" % text)


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


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# -- commands -----------------------------------------------------------------
# Each command takes the argparse namespace and checks its parameters before
# it reads the input, so a bad --p or --v exits 2 even if --input is missing.

def _params(ns: argparse.Namespace) -> MetricParams:
    return MetricParams.make(_parse_scalar(ns.p), _parse_scalar(ns.v))


def _cmd_build(ns: argparse.Namespace) -> int:
    m = _params(ns)
    _write(ns.output, tch_to_json(hull_builder.build(read_points(ns.input), m)))
    return EXIT_OK


def _cmd_oracle(ns: argparse.Namespace) -> int:
    m = _params(ns)
    ref = oracle.cluster(read_points(ns.input), m, size_limit=ns.size_limit)
    doc = {
        "partition": ref.partition,
        "iterations": ref.iterations,
        "min_margin": None if math.isinf(ref.min_margin) else float("%.12g" % ref.min_margin),
    }
    _write(ns.output, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_compare(ns: argparse.Namespace) -> int:
    m = _params(ns)
    pts = read_points(ns.input)
    tch = hull_builder.build(pts, m)
    ref = oracle.cluster(pts, m, size_limit=ns.size_limit)
    got = sorted(sorted(c.member_indices) for c in tch.clusters)
    want = sorted(sorted(g) for g in ref.partition)
    if got == want:
        _write(ns.output, json.dumps({"equal": True, "clusters": len(got)}) + "\n")
        return EXIT_OK
    report = {"equal": False, "build": got, "oracle": want}
    _write(ns.output, json.dumps(report, sort_keys=True) + "\n")
    return EXIT_DIFF


def _cmd_gen(ns: argparse.Namespace) -> int:
    p, eps = _parse_scalar(ns.p), _parse_scalar(ns.eps)
    y0 = y0_solver(p, eps)  # rejects p < 1 and eps not finite or halving to 0
    if ns.gaps:
        try:
            gaps = [float(t) for t in ns.gaps.split(",") if t.strip()]
        except ValueError:
            raise InvalidInputError("gaps must be a comma-separated number list")
    else:
        if ns.count < 2:
            raise InvalidInputError("count must be at least 2")
        rng = random.Random(ns.seed)
        gaps = []
        for _ in range(ns.count - 1):
            if rng.random() < 0.5:
                gaps.append(eps * rng.uniform(0.3, 0.98))
            else:
                gaps.append(eps * rng.uniform(1.02, 3.0))
    if any(g <= 0 for g in gaps):
        raise InvalidInputError("gaps must be positive")
    xs = [0.0]
    for g in gaps:
        xs.append(xs[-1] + g)
    if not all(map(math.isfinite, xs)):
        raise InvalidInputError("gaps must sum to finite abscissae, got %r" % xs[-1])
    expected = len(xs) - sum(1 for g in gaps if g <= eps)
    lines = [
        "# min-gap instance: points at the critical height for eps under v=inf",
        "# p=%s eps=%s y0=%.12g" % (_pname(p), "%.12g" % eps, y0),
        "# v=inf expected_clusters=%d" % expected,
    ]
    lines += ["%.12g,%.12g" % (x, y0) for x in xs]
    _write(ns.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _pname(p: float) -> str:
    return "inf" if math.isinf(p) else "%.12g" % p


def _cmd_render(ns: argparse.Namespace) -> int:
    m = _params(ns)
    t = ns.wavefront_t
    if t is not None and not 0.0 <= t < INF:
        raise InvalidInputError("--wavefront-t: radius must be finite and non-negative, got %r" % t)
    pts = read_points(ns.input)
    svg = render_svg(hull_builder.build(pts, m), pts, curves=ns.curves, wavefront_t=t)
    _write(ns.output, svg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="highwayhull",
        description="Time-convex hulls under an Lp metric with an x-axis highway.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, summary, metric=True):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(run=run)
        if metric:
            sp.add_argument("--p", default="2", help="Lp exponent, >= 1 or 'inf'")
            sp.add_argument("--v", default="2", help="highway speed, > 1 or 'inf'")
            sp.add_argument("--input", required=True, help="points CSV (x,y per line)")
        sp.add_argument("--output", default="-", help="output path (default stdout)")
        return sp

    command("build", _cmd_build, "cluster points and emit hull JSON")
    command("oracle", _cmd_oracle, "brute-force partition JSON").add_argument(
        "--size-limit", type=int, default=oracle.SIZE_LIMIT)
    command("compare", _cmd_compare, "build vs oracle; nonzero exit on diff").add_argument(
        "--size-limit", type=int, default=oracle.SIZE_LIMIT)
    sp = command("gen", _cmd_gen, "emit a min-gap instance CSV", metric=False)
    sp.add_argument("--p", default="2")
    sp.add_argument("--eps", required=True, help="critical gap length")
    sp.add_argument("--gaps", default=None, help="comma-separated gap list")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=10, help="points when sampling gaps")
    sp = command("render", _cmd_render, "emit an SVG figure")
    sp.add_argument("--curves", action="store_true", help="draw walking-region boundaries")
    sp.add_argument("--wavefront-t", type=float, default=None, help="draw wavefronts at time t")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.run(ns)
    except InvalidInputError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as ex:
        print("parse error: %s" % ex, file=sys.stderr)
        return EXIT_PARSE
    except OSError as ex:
        print("i/o error: %s" % ex, file=sys.stderr)
        return EXIT_IO
    except NumericError as ex:
        print("numeric error: %s" % ex, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
