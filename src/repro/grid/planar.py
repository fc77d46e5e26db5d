"""Planar quadtree grid over a bounded lng/lat region.

Cells are exact axis-aligned rectangles: the region is split into
``2**level x 2**level`` cells per level, addressed by the same Hilbert
curve / 64-bit cell id scheme as the spherical grid (always face 0). The
exact cell geometry makes this grid the default for experiments and
property tests — every covering classification is free of the conservative
slack the spherical grid's rect bounds need.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import GridError, OutOfBoundsError
from ..geometry.bbox import Rect
from ..geometry.distance import meters_per_degree
from . import cellid
from .base import INVALID_CELL, INVALID_KEY, HierarchicalGrid


class PlanarGrid(HierarchicalGrid):
    """Quadtree over ``bounds`` with exact rectangular cells.

    Parameters
    ----------
    bounds:
        The lng/lat region the grid covers. Points outside it have no
        cell (they can never join with the indexed polygons as long as
        the bounds contain all polygons).
    max_level:
        Deepest usable level, up to 30.
    """

    def __init__(self, bounds: Rect, max_level: int = cellid.MAX_LEVEL):
        if not 1 <= max_level <= cellid.MAX_LEVEL:
            raise GridError(f"max_level must be in [1, 30], got {max_level}")
        if bounds.width <= 0.0 or bounds.height <= 0.0:
            raise GridError(f"grid bounds must have positive extent: {bounds}")
        self.bounds = bounds
        self.max_level = max_level
        self._ij_size = 1 << cellid.MAX_LEVEL
        self._sx = self._ij_size / bounds.width
        self._sy = self._ij_size / bounds.height
        # the most pessimistic meters-per-degree-lng inside the bounds
        # (|lat| smallest -> cos largest)
        lat_closest_to_equator = (
            0.0 if bounds.min_y <= 0.0 <= bounds.max_y
            else min(abs(bounds.min_y), abs(bounds.max_y))
        )
        self._k_lng = meters_per_degree(lat_closest_to_equator)[0]
        self._k_lat = meters_per_degree(0.0)[1]

    @property
    def name(self) -> str:
        return "planar"

    @staticmethod
    def for_polygons(polygons, margin_fraction: float = 0.05,
                     max_level: int = cellid.MAX_LEVEL) -> "PlanarGrid":
        """Grid sized to a polygon collection's bbox plus a margin."""
        boxes = [p.bbox for p in polygons]
        if not boxes:
            raise GridError("for_polygons: empty polygon collection")
        box = boxes[0]
        for other in boxes[1:]:
            box = box.union(other)
        margin = max(box.width, box.height) * margin_fraction
        if margin <= 0.0:
            margin = 1e-9
        return PlanarGrid(box.expanded(margin), max_level=max_level)

    # ------------------------------------------------------------------
    # Point -> cell
    # ------------------------------------------------------------------
    def leaf_cell(self, lng: float, lat: float) -> Optional[int]:
        if not self.bounds.contains_point(lng, lat):
            return None
        i = self._coord_to_ij(lng, self.bounds.min_x, self._sx)
        j = self._coord_to_ij(lat, self.bounds.min_y, self._sy)
        return cellid.from_face_ij(0, i, j)

    def point_key(self, lng: float, lat: float, level: int) -> Optional[int]:
        """Serving hot-path override: the (i, j) pair truncated to
        level-``level`` resolution, packed into one int. Equivalent
        partition of the domain to the base implementation but with no
        Hilbert bit-interleave (about 3x cheaper per point)."""
        bounds = self.bounds
        if not (bounds.min_x <= lng <= bounds.max_x
                and bounds.min_y <= lat <= bounds.max_y):
            return None
        shift = cellid.MAX_LEVEL - level
        i = self._coord_to_ij(lng, bounds.min_x, self._sx)
        j = self._coord_to_ij(lat, bounds.min_y, self._sy)
        return ((i >> shift) << cellid.MAX_LEVEL) | (j >> shift)

    def _ij_batch(self, lngs: np.ndarray, lats: np.ndarray):
        """``(inside, i, j)`` of a batch: the bounds mask and the uint32
        leaf coordinates every vectorized point -> cell path starts
        from. Out-of-bounds points (NaN, +-inf and 1e300 included) are
        moved to the grid origin *before* the arithmetic, so a hostile
        frame raises no overflow/invalid-cast warning and the narrowing
        cast only ever sees ``[0, 2**30]``."""
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        bounds = self.bounds
        inside = (
            (lngs >= bounds.min_x) & (lngs <= bounds.max_x)
            & (lats >= bounds.min_y) & (lats <= bounds.max_y)
        )
        top = np.uint32(self._ij_size - 1)

        def axis(values: np.ndarray, origin: float, scale: float):
            scaled = np.where(inside, values, origin)
            scaled -= origin
            scaled *= scale
            ij = scaled.astype(np.uint32)
            return np.minimum(ij, top, out=ij)

        return (inside, axis(lngs, bounds.min_x, self._sx),
                axis(lats, bounds.min_y, self._sy))

    def point_keys(self, lngs: np.ndarray, lats: np.ndarray,  # repro-lint: hot
                   level: int) -> np.ndarray:
        """Vectorized :meth:`point_key`: truncated (i, j) packing with no
        Hilbert bit-interleave, one numpy pass for the whole batch."""
        inside, i, j = self._ij_batch(lngs, lats)
        shift = np.uint32(cellid.MAX_LEVEL - level)
        keys = (i >> shift).astype(np.uint64)
        keys <<= np.uint64(cellid.MAX_LEVEL)
        keys |= j >> shift
        keys[~inside] = INVALID_KEY
        return keys

    def leaf_cell_strict(self, lng: float, lat: float) -> int:
        """Like :meth:`leaf_cell` but raises on out-of-domain points."""
        cell = self.leaf_cell(lng, lat)
        if cell is None:
            raise OutOfBoundsError(
                f"point ({lng}, {lat}) outside grid bounds {self.bounds}"
            )
        return cell

    def leaf_cells_batch(self, lng: np.ndarray, lat: np.ndarray) -> np.ndarray:  # repro-lint: hot
        inside, i, j = self._ij_batch(lng, lat)
        ids = cellid.from_face_ij_batch(
            np.zeros(i.shape[0], dtype=np.uint64), i, j)
        ids[~inside] = INVALID_CELL
        return ids

    def _coord_to_ij(self, value: float, origin: float, scale: float) -> int:
        index = int((value - origin) * scale)
        if index < 0:
            return 0
        if index >= self._ij_size:
            return self._ij_size - 1
        return index

    # ------------------------------------------------------------------
    # Cell -> geometry
    # ------------------------------------------------------------------
    def frame_bounds(self, frame) -> tuple:
        _, i0, j0, level = frame
        size = 1 << (cellid.MAX_LEVEL - level)
        fx = self.bounds.width / self._ij_size
        fy = self.bounds.height / self._ij_size
        min_x = self.bounds.min_x + i0 * fx
        min_y = self.bounds.min_y + j0 * fy
        return (min_x, min_y, min_x + size * fx, min_y + size * fy)

    def root_cells(self) -> List[int]:
        return [cellid.from_face(0)]

    def root_frames(self):
        return [(0, 0, 0, 0)]

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def max_diag_meters(self, level: int) -> float:
        width_deg = self.bounds.width / (1 << level)
        height_deg = self.bounds.height / (1 << level)
        dx = width_deg * self._k_lng
        dy = height_deg * self._k_lat
        return float(np.hypot(dx, dy))

    def __repr__(self) -> str:
        return f"PlanarGrid(bounds={self.bounds}, max_level={self.max_level})"
