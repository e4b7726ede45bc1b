"""Time-convex hulls of planar point sets with a speed-v highway on the x-axis."""

from .frontier import ContractViolationError, Frontier
from .geometry import (
    Chain,
    ClosureHull,
    QuerySegment,
    closure_hull,
    exposed_boundary_segments,
    left_edge_tangent,
    lower_hull,
    right_edge_tangent,
    upper_hull,
)
from .hull_builder import (
    Cluster,
    TimeConvexHull,
    build,
    cross_side_merge,
    footprints_and_bridges,
)
from .metric import (
    DiscriminatingCurve,
    InvalidInputError,
    MetricParams,
    NumericError,
    Point,
    WavefrontShape,
    alpha,
    disc_curve_y,
    entry_points,
    highway_time,
    in_walking_region,
    lp_distance,
    polyline_time,
    shortest_path,
    time_distance,
    wavefront,
    y0_solver,
)
from .oracle import OraclePartition, cluster as oracle_cluster, point_in_edge_region
from .render import render_svg
from .subpath_hull import HullTree
from .subpath_hull import build as build_hull_tree

__all__ = [
    "Chain",
    "Cluster",
    "ClosureHull",
    "ContractViolationError",
    "DiscriminatingCurve",
    "Frontier",
    "HullTree",
    "InvalidInputError",
    "MetricParams",
    "NumericError",
    "OraclePartition",
    "Point",
    "QuerySegment",
    "TimeConvexHull",
    "WavefrontShape",
    "alpha",
    "build",
    "build_hull_tree",
    "closure_hull",
    "cross_side_merge",
    "disc_curve_y",
    "entry_points",
    "exposed_boundary_segments",
    "footprints_and_bridges",
    "highway_time",
    "in_walking_region",
    "left_edge_tangent",
    "lower_hull",
    "lp_distance",
    "oracle_cluster",
    "point_in_edge_region",
    "polyline_time",
    "render_svg",
    "right_edge_tangent",
    "shortest_path",
    "time_distance",
    "upper_hull",
    "wavefront",
    "y0_solver",
]

__version__ = "0.1.0"
