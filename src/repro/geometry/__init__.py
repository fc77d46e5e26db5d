"""Planar computational-geometry substrate.

Everything the ACT index and its baselines need: bounding boxes, segment
predicates, polygons with holes, point-in-polygon tests, cell/polygon
classification, local metric projections, and GeoJSON IO.
"""

from .bbox import Rect, union_all
from .distance import (
    LocalProjection,
    haversine_meters,
    meters_per_degree,
    point_polygon_distance_meters,
)
from .edge_table import PackedEdgeTable
from .pip import point_in_ring, point_in_rings, points_in_rings, winding_number
from .polygon import MultiPolygon, Polygon, Ring, box_polygon, regular_polygon
from .relate import EdgeClassifier, Relation, relate_rect
from .segment import (
    clip_segment_to_rect,
    on_segment,
    orientation,
    point_segment_distance,
    point_segment_distance_sq,
    segment_intersection_point,
    segment_intersects_rect,
    segments_intersect,
)

__all__ = [
    "Rect",
    "union_all",
    "LocalProjection",
    "haversine_meters",
    "meters_per_degree",
    "point_polygon_distance_meters",
    "PackedEdgeTable",
    "point_in_ring",
    "point_in_rings",
    "points_in_rings",
    "winding_number",
    "MultiPolygon",
    "Polygon",
    "Ring",
    "box_polygon",
    "regular_polygon",
    "EdgeClassifier",
    "Relation",
    "relate_rect",
    "clip_segment_to_rect",
    "on_segment",
    "orientation",
    "point_segment_distance",
    "point_segment_distance_sq",
    "segment_intersection_point",
    "segment_intersects_rect",
    "segments_intersect",
]
