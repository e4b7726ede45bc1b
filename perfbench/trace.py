"""Out-of-program tracing of the build path, one call-tree per build.

`Tracer` replaces each traced function at every binding the build's
callers actually use (`hull_builder.in_walking_region` and
`frontier.in_walking_region` are separate bindings of one function, as are
`geometry.brentq` and `metric.brentq`) with a timing wrapper, and puts the
originals back on exit.  Nothing under `src/` knows it is being traced.

A call becomes a span in a call tree: calls of one function under the same
parent span within one build merge into one node carrying the call count,
the first start, the last end, the summed duration and the count of
`True` results.  Memory therefore grows with distinct call paths, not with
the millions of predicate calls a build makes.  Every node links to its
parent and carries the build's trace id; self time is a node's duration
minus its children's, so it needs no bookkeeping in the hot path.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

# (module that defines it, attribute path, layer name)
TRACED: Tuple[Tuple[str, str, str], ...] = (
    ("highwayhull.hull_builder", "build", "hull_builder.build"),
    ("highwayhull.hull_builder", "cross_side_merge", "hull_builder.cross_side_merge"),
    ("highwayhull.hull_builder", "footprints_and_bridges", "hull_builder.footprints_and_bridges"),
    ("highwayhull.frontier", "Frontier.locate", "frontier.Frontier.locate"),
    ("highwayhull.subpath_hull", "build", "subpath_hull.build"),
    ("highwayhull.subpath_hull", "HullTree.any_point_above", "subpath_hull.HullTree.any_point_above"),
    ("highwayhull.geometry", "left_edge_tangent", "geometry.left_edge_tangent"),
    ("highwayhull.geometry", "right_edge_tangent", "geometry.right_edge_tangent"),
    ("highwayhull.geometry", "exposed_boundary_segments", "geometry.exposed_boundary_segments"),
    ("highwayhull.geometry", "closure_hull", "geometry.closure_hull"),
    ("highwayhull.metric", "in_walking_region", "metric.in_walking_region"),
    ("highwayhull.metric", "highway_time", "metric.highway_time"),
    ("highwayhull.metric", "lp_distance", "metric.lp_distance"),
    ("highwayhull.metric", "disc_curve_y", "metric.disc_curve_y"),
    ("scipy.optimize", "brentq", "solver.brentq"),
    ("scipy.optimize", "minimize_scalar", "solver.minimize_scalar"),
)

# modules whose global bindings the build path calls through
BINDING_MODULES = (
    "highwayhull.metric",
    "highwayhull.geometry",
    "highwayhull.frontier",
    "highwayhull.subpath_hull",
    "highwayhull.hull_builder",
)

# layers whose True-result share is reported
RATIOS = {
    "metric.in_walking_region": "true_ratio",
    "subpath_hull.HullTree.any_point_above": "hit_ratio",
}


class Node:
    """All calls of one function under one parent span of one build."""

    __slots__ = ("name", "parent", "trace_id", "children", "calls", "hits", "start", "end", "total")

    def __init__(self, name: str, parent: Optional["Node"], trace_id: int):
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        self.children: Dict[str, Node] = {}
        self.calls = 0
        self.hits = 0
        self.start = 0.0
        self.end = 0.0
        self.total = 0.0

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self) -> Iterator["Node"]:
        yield self
        for c in self.children.values():
            yield from c.walk()


def bindings() -> List[Tuple[object, str, object, str]]:
    """(owner, attribute, original, layer) for every binding to rewrap."""
    out = []
    for mod_name, path, layer in TRACED:
        owner = importlib.import_module(mod_name)
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            out.append((owner, attr, owner.__dict__[attr], layer))
            continue
        fn = getattr(owner, attr)
        for bm in BINDING_MODULES:
            mod = importlib.import_module(bm)
            for name, value in vars(mod).items():
                if value is fn:
                    out.append((mod, name, fn, layer))
    return out


class Tracer:
    """Context manager: wraps the traced bindings on entry, restores them on
    exit.  Call `build_span(trace_id)` around each build."""

    def __init__(self):
        self.roots: List[Node] = []
        self._stack: List[Node] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, fn, layer in bindings():
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, layer))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextmanager
    def build_span(self, trace_id: int) -> Iterator[Node]:
        """Root span of one build; traced calls inside it become its nodes."""
        root = Node("bench.build_call", None, trace_id)
        self.roots.append(root)
        self._stack.append(root)
        try:
            yield root
        finally:
            self._stack.pop()

    def _wrap(self, fn, layer: str):
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent.children.get(layer)
            if node is None:
                node = parent.children[layer] = Node(layer, parent, parent.trace_id)
            stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if not node.calls:
                    node.start = t0
                node.calls += 1
                node.end = t1
                node.total += t1 - t0
            if result is True:
                node.hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ---------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        for r in self.roots:
            for n in r.walk():
                if n is not r:
                    yield n

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, hits, self time, and total time counting only
        outermost calls, so a function that re-enters itself through a
        callback is not counted twice."""
        out = {layer: {"calls": 0, "hits": 0, "total_s": 0.0, "self_s": 0.0} for _, _, layer in TRACED}
        for n in self.nodes():
            acc = out[n.name]
            acc["calls"] += n.calls
            acc["hits"] += n.hits
            acc["self_s"] += n.self_time
            if not _has_ancestor(n, n.name):
                acc["total_s"] += n.total
        return out

    def write(self, path: str) -> int:
        """One JSON object per span node; returns the number written."""
        ids = {}
        count = 0
        with open(path, "w") as f:
            for n in self.nodes():
                ids[id(n)] = count
                parent = ids.get(id(n.parent))
                f.write(json.dumps({
                    "id": count, "parent": parent, "trace": n.trace_id, "name": n.name,
                    "calls": n.calls, "hits": n.hits, "start": n.start, "end": n.end,
                    "total_s": n.total, "self_s": n.self_time,
                }) + "\n")
                count += 1
        return count


def _has_ancestor(n: Node, name: str) -> bool:
    a = n.parent
    while a is not None:
        if a.name == name:
            return True
        a = a.parent
    return False
