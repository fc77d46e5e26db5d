"""Global spherical grid on the faces of a cube (S2-like).

This mirrors the grid of the Google S2 library used by the paper's
reference implementation: six cube faces, each subdivided as a 30-level
quadtree with the quadratic (u, v) -> (s, t) transform and Hilbert-curve
cell numbering.

Cell *geometry* is exposed as a conservative lng/lat rect bound: the bbox
of sampled boundary points, expanded by a curvature margin that shrinks by
4x per level. Conservative bounds keep covering classification safe (never
falsely DISJOINT or WITHIN) at the cost of slightly looser coverings.

Limitations (documented, by design): rect bounds degrade for cells that
cross the antimeridian or enclose a pole, so *polygon coverings* should
stay within ``|lat| < 60`` and away from lng 180. Point lookups are exact
everywhere.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..config import EARTH_RADIUS_METERS
from . import cellid
from .base import INVALID_CELL, HierarchicalGrid
from .projection import (
    face_ij_from_lnglat,
    face_ij_from_lnglat_batch,
    lnglat_from_face_st,
)

#: Upper bound on (rect-bound diagonal in radians) * 2**level.
#:
#: S2's max cell diagonal metric for the quadratic projection is
#: ~2.44 * 2**-level radians; the lng/lat bbox of a maximally skewed quad
#: inflates a diagonal by at most sqrt(2), and the curvature margin adds a
#: few percent. 3.7 conservatively covers all of it.
RECT_DIAG_DERIV = 3.7


class S2LikeGrid(HierarchicalGrid):
    """Spherical cube-face quadtree grid with S2's bit layout."""

    def __init__(self, max_level: int = cellid.MAX_LEVEL,
                 boundary_samples: int = 4):
        self.max_level = max_level
        self._boundary_samples = max(2, boundary_samples)

    @property
    def name(self) -> str:
        return "s2like"

    # ------------------------------------------------------------------
    # Point -> cell
    # ------------------------------------------------------------------
    def leaf_cell(self, lng: float, lat: float) -> Optional[int]:
        face, i, j = face_ij_from_lnglat(lng, lat)
        return cellid.from_face_ij(face, i, j)

    def leaf_cells_batch(self, lng: np.ndarray, lat: np.ndarray) -> np.ndarray:  # repro-lint: hot
        lng = np.asarray(lng, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        # NaN/+-inf have no cell; they are projected as (0, 0) so the
        # trigonometry and the integer casts stay warning-free
        finite = np.isfinite(lng) & np.isfinite(lat)
        faces, i, j = face_ij_from_lnglat_batch(
            np.where(finite, lng, 0.0), np.where(finite, lat, 0.0))
        ids = cellid.from_face_ij_batch(faces, i, j)
        ids[~finite] = INVALID_CELL
        return ids

    # ------------------------------------------------------------------
    # Cell -> geometry
    # ------------------------------------------------------------------
    def frame_bounds(self, frame) -> tuple:
        face, raw_i0, raw_j0, level = frame
        scale = 1.0 / float(1 << cellid.MAX_LEVEL)
        size = 1 << (cellid.MAX_LEVEL - level)
        i0 = raw_i0 * scale
        j0 = raw_j0 * scale
        step = size * scale

        if level >= 6:
            # corner sampling suffices once edges are near-straight
            points = ((i0, j0), (i0 + step, j0),
                      (i0, j0 + step), (i0 + step, j0 + step))
        else:
            # coarse cells: sample along the boundary, edges curve visibly
            n = 4 * self._boundary_samples
            points = []
            for k in range(n + 1):
                f = k / n
                points.extend((
                    (i0 + f * step, j0),
                    (i0 + f * step, j0 + step),
                    (i0, j0 + f * step),
                    (i0 + step, j0 + f * step),
                ))

        min_lng = min_lat = float("inf")
        max_lng = max_lat = float("-inf")
        for s, t in points:
            lng, lat = lnglat_from_face_st(face, s, t)
            if lng < min_lng:
                min_lng = lng
            if lng > max_lng:
                max_lng = lng
            if lat < min_lat:
                min_lat = lat
            if lat > max_lat:
                max_lat = lat

        # curvature margin: relative edge bulge decays ~4x per level
        margin_frac = 0.5 if level == 0 else min(0.5, 0.7 * 4.0 ** (-level))
        margin = max(max_lng - min_lng, max_lat - min_lat) * margin_frac + 1e-12
        return (min_lng - margin, min_lat - margin,
                max_lng + margin, max_lat + margin)

    def root_cells(self) -> List[int]:
        return [cellid.from_face(face) for face in range(cellid.NUM_FACES)]

    def root_frames(self):
        return [(face, 0, 0, 0) for face in range(cellid.NUM_FACES)]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def max_diag_meters(self, level: int) -> float:
        return RECT_DIAG_DERIV * math.pow(2.0, -level) * EARTH_RADIUS_METERS

    def __repr__(self) -> str:
        return f"S2LikeGrid(max_level={self.max_level})"
