from collections import Counter

import pytest
from hypothesis import settings

from highwayhull import frontier, geometry, hull_builder, metric

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def counted(monkeypatch):
    """Counts calls made through module bindings: hull_builder's predicates
    ("walk", "edge"), the frontier's membership predicates, convex and box
    ("corner"),
    metric's curve solve ("curve"), geometry's tangent solves ("tangent"),
    and geometry's brentq calls with the function evaluations they make
    ("brentq", "evals")."""
    counts = Counter()

    def count(owner, name, key):
        fn = getattr(owner, name)

        def counted_fn(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted_fn)

    count(hull_builder, "in_walking_region", "walk")
    count(hull_builder, "_point_in_edge_region", "edge")
    count(frontier, "in_walking_region", "corner")
    count(frontier, "_box_in_walking_region", "corner")
    count(metric, "_curve_generic", "curve")
    count(geometry, "_unit_tangency", "tangent")
    brentq = geometry.brentq

    def counted_brentq(f, *args, **kwargs):
        counts["brentq"] += 1

        def counted_f(*a):
            counts["evals"] += 1
            return f(*a)

        return brentq(counted_f, *args, **kwargs)

    monkeypatch.setattr(geometry, "brentq", counted_brentq)
    return counts
