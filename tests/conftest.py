import pytest
from hypothesis import settings

from highwayhull import hull_builder

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def counted(monkeypatch):
    """Counts the predicate calls made through hull_builder's bindings."""
    counts = {"walk": 0, "edge": 0}
    walk, edge = hull_builder.in_walking_region, hull_builder._point_in_edge_region

    def counted_walk(*args):
        counts["walk"] += 1
        return walk(*args)

    def counted_edge(*args):
        counts["edge"] += 1
        return edge(*args)

    monkeypatch.setattr(hull_builder, "in_walking_region", counted_walk)
    monkeypatch.setattr(hull_builder, "_point_in_edge_region", counted_edge)
    return counts
