"""Abstract interface for quadtree-based hierarchical grids.

The paper notes its approach "works with any quadtree-based hierarchical
grid" in which every node is identified by the bit path from the root.
:class:`HierarchicalGrid` captures exactly the contract ACT relies on:

* map a lng/lat point to its **leaf cell id** (the most fine-grained level),
* enumerate **root cells**,
* provide a conservative lng/lat **rect bound** per cell (for covering
  classification), and
* translate the user's **precision bound in meters** to a grid level whose
  cell diagonal is below the bound.

For the covering recursion the interface additionally exposes **frames**:
lightweight ``(face, i0, j0, level)`` tuples addressing a cell by its
minimum (i, j) corner in leaf units. Frames let the coverer descend the
quadtree with pure integer arithmetic and only materialize full 64-bit
cell ids for the cells it actually emits.

Two implementations ship: :class:`~repro.grid.planar.PlanarGrid` (exact
rectangles over a bounded region) and :class:`~repro.grid.s2like.S2LikeGrid`
(global spherical cube-face grid, like the Google S2 library used by the
paper's reference implementation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from ..errors import PrecisionError
from ..geometry.bbox import Rect
from . import cellid

#: Batch cell id used for points outside the grid domain (never valid).
INVALID_CELL = 0

#: Batch point key for points outside the grid domain. All-ones is never
#: a valid cell id (faces stop at 5) nor a planar packed (i, j) key
#: (those use at most 60 bits).
INVALID_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

#: (face, i0, j0, level): cell addressed by its min corner in leaf units.
Frame = Tuple[int, int, int, int]

#: Four floats: (min_x, min_y, max_x, max_y).
Bounds = Tuple[float, float, float, float]


class HierarchicalGrid(ABC):
    """Contract between a quadtree grid and the ACT index."""

    #: Deepest level supported (defaults to the S2-style 30).
    max_level: int = cellid.MAX_LEVEL

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in benchmark reports."""

    @abstractmethod
    def leaf_cell(self, lng: float, lat: float) -> Optional[int]:
        """Leaf cell id of a point, or ``None`` if outside the domain."""

    @abstractmethod
    def leaf_cells_batch(self, lng: np.ndarray, lat: np.ndarray) -> np.ndarray:  # repro-lint: hot
        """Vectorized :meth:`leaf_cell`; out-of-domain points map to
        :data:`INVALID_CELL` (0)."""

    @abstractmethod
    def root_cells(self) -> List[int]:
        """Top-level cells to start covering recursions from."""

    @abstractmethod
    def frame_bounds(self, frame: Frame) -> Bounds:
        """Conservative lng/lat bounds *containing* the frame's cell.

        Classification against these bounds is safe in both directions:
        a polygon disjoint from the bounds is disjoint from the cell, and
        bounds fully inside a polygon imply the cell is inside too.
        """

    @abstractmethod
    def max_diag_meters(self, level: int) -> float:
        """Upper bound on the diagonal of any level-``level`` cell's rect
        bound, in meters. This is the quantity the paper's precision
        guarantee is stated in terms of."""

    def point_key(self, lng: float, lat: float, level: int) -> Optional[int]:
        """Opaque hashable key identifying the level-``level`` cell that
        contains the point, or ``None`` outside the domain.

        Two points map to the same key iff they share the level-``level``
        cell, which is what per-cell result caches need; the key is NOT
        guaranteed to be a valid cell id. The default derives it from
        :meth:`leaf_cell`; grids may override with cheaper arithmetic
        (the planar grid skips the bit-interleave entirely).
        """
        leaf = self.leaf_cell(lng, lat)
        if leaf is None:
            return None
        return cellid.parent(leaf, level)

    def point_keys(self, lngs: np.ndarray, lats: np.ndarray,  # repro-lint: hot
                   level: int) -> np.ndarray:
        """Vectorized :meth:`point_key`: one uint64 key per point.

        Out-of-domain points map to :data:`INVALID_KEY`. For in-domain
        points the value equals ``point_key(lng, lat, level)`` exactly,
        so scalar and batch callers share one cache keyspace. The default
        goes through :meth:`leaf_cells_batch`; grids may override with
        cheaper arithmetic (the planar grid skips the bit-interleave).
        """
        cells = self.leaf_cells_batch(
            np.asarray(lngs, dtype=np.float64),
            np.asarray(lats, dtype=np.float64),
        )
        keys = cellid.parent_batch(cells, level)
        keys[cells == INVALID_CELL] = INVALID_KEY
        return keys

    # ------------------------------------------------------------------
    # Frames (integer-space quadtree descent)
    # ------------------------------------------------------------------
    def root_frames(self) -> List[Frame]:
        """Frames of :meth:`root_cells`."""
        frames = []
        for cell in self.root_cells():
            face, i, j = cellid.to_face_ij(cellid.range_min(cell))
            level = cellid.level(cell)
            size = 1 << (cellid.MAX_LEVEL - level)
            frames.append((face, i & ~(size - 1), j & ~(size - 1), level))
        return frames

    @staticmethod
    def frame_children(frame: Frame) -> Tuple[Frame, Frame, Frame, Frame]:
        """The four sub-quadrant frames (position order, not Hilbert)."""
        face, i0, j0, level = frame
        half = 1 << (cellid.MAX_LEVEL - level - 1)
        child_level = level + 1
        return (
            (face, i0, j0, child_level),
            (face, i0 + half, j0, child_level),
            (face, i0, j0 + half, child_level),
            (face, i0 + half, j0 + half, child_level),
        )

    @staticmethod
    def frame_cell(frame: Frame) -> int:
        """The 64-bit cell id addressed by a frame."""
        face, i0, j0, level = frame
        leaf = cellid.from_face_ij(face, i0, j0)
        return cellid.parent(leaf, level)

    def frame_for_cell(self, cell: int) -> Frame:
        """Inverse of :meth:`frame_cell`."""
        level = cellid.level(cell)
        face, i, j = cellid.to_face_ij(cellid.range_min(cell))
        size = 1 << (cellid.MAX_LEVEL - level)
        return (face, i & ~(size - 1), j & ~(size - 1), level)

    # ------------------------------------------------------------------
    # Derived geometry / metrics
    # ------------------------------------------------------------------
    def cell_rect(self, cell: int) -> Rect:
        """Rect bound of a cell (see :meth:`frame_bounds`)."""
        return Rect(*self.frame_bounds(self.frame_for_cell(cell)))

    def level_for_precision(self, meters: float) -> int:
        """Coarsest level whose cell diagonal is below ``meters``.

        Raises :class:`~repro.errors.PrecisionError` when even the deepest
        level cannot satisfy the bound.
        """
        if meters <= 0.0:
            raise PrecisionError(f"precision must be positive, got {meters}")
        for level in range(self.max_level + 1):
            if self.max_diag_meters(level) <= meters:
                return level
        raise PrecisionError(
            f"precision {meters} m finer than level-{self.max_level} cells "
            f"({self.max_diag_meters(self.max_level):.4f} m) of grid "
            f"{self.name!r}"
        )

    def cell_polygon_corners(self, cell: int) -> List[tuple]:
        """Corner points of the cell's rect bound (for GeoJSON dumps)."""
        return list(self.cell_rect(cell).corners())
