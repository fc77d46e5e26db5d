"""Single-level grid baseline (Magellan-style).

The paper contrasts ACT with true-hit-filtering implementations that use
*non-hierarchical* grids (Spark Magellan). This baseline implements that
design: one uniform grid over the region; each cell stores the polygons
it intersects, with an inside/boundary flag per reference. Large polygons
pay with many cells, small polygons with coarse approximations — the
mixed-size weakness the hierarchical ACT avoids.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import JoinError
from ..geometry.bbox import Rect
from ..geometry.polygon import Polygon
from ..geometry.relate import EdgeClassifier, Relation


class FixedGridIndex:
    """Uniform ``resolution x resolution`` grid with true-hit flags."""

    def __init__(self, polygons: Sequence[Polygon], resolution: int = 256,
                 bounds: Rect | None = None):
        if resolution < 1:
            raise JoinError(f"resolution must be >= 1, got {resolution}")
        self.polygons = list(polygons)
        if not self.polygons:
            raise JoinError("FixedGridIndex needs at least one polygon")
        if bounds is None:
            bounds = self.polygons[0].bbox
            for polygon in self.polygons[1:]:
                bounds = bounds.union(polygon.bbox)
            bounds = bounds.expanded(
                max(bounds.width, bounds.height) * 0.01 + 1e-12
            )
        self.bounds = bounds
        self.resolution = resolution
        self._dx = bounds.width / resolution
        self._dy = bounds.height / resolution
        #: cell -> list of (polygon_id, fully_inside)
        self._cells: Dict[int, List[Tuple[int, bool]]] = {}
        for pid, polygon in enumerate(self.polygons):
            self._insert_polygon(pid, polygon)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _insert_polygon(self, pid: int, polygon: Polygon) -> None:
        classifier = EdgeClassifier(polygon)
        box = polygon.bbox
        ix0, iy0 = self._cell_of(box.min_x, box.min_y)
        ix1, iy1 = self._cell_of(box.max_x, box.max_y)
        for ix in range(ix0, ix1 + 1):
            min_x = self.bounds.min_x + ix * self._dx
            for iy in range(iy0, iy1 + 1):
                min_y = self.bounds.min_y + iy * self._dy
                relation, _ = classifier.classify_bounds(
                    min_x, min_y, min_x + self._dx, min_y + self._dy
                )
                if relation is Relation.DISJOINT:
                    continue
                key = ix * self.resolution + iy
                self._cells.setdefault(key, []).append(
                    (pid, relation is Relation.WITHIN)
                )

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        ix = int((x - self.bounds.min_x) / self._dx)
        iy = int((y - self.bounds.min_y) / self._dy)
        return (min(max(ix, 0), self.resolution - 1),
                min(max(iy, 0), self.resolution - 1))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, lng: float, lat: float) -> Tuple[List[int], List[int]]:
        """``(true_hits, candidates)`` for a point."""
        if not self.bounds.contains_point(lng, lat):
            return [], []
        ix, iy = self._cell_of(lng, lat)
        refs = self._cells.get(ix * self.resolution + iy, ())
        true_hits = [pid for pid, inside in refs if inside]
        candidates = [pid for pid, inside in refs if not inside]
        return true_hits, candidates

    def query_exact(self, lng: float, lat: float) -> List[int]:
        true_hits, candidates = self.query(lng, lat)
        true_hits.extend(pid for pid in candidates
                         if self.polygons[pid].contains(lng, lat))
        return true_hits

    def count_points(self, lngs: np.ndarray, lats: np.ndarray,
                     exact: bool = True) -> np.ndarray:
        """Count points per polygon (true hits skip refinement)."""
        counts = np.zeros(len(self.polygons), dtype=np.int64)
        contains = [p.contains for p in self.polygons]
        for x, y in zip(np.asarray(lngs, dtype=np.float64).tolist(),
                        np.asarray(lats, dtype=np.float64).tolist()):
            true_hits, candidates = self.query(x, y)
            for pid in true_hits:
                counts[pid] += 1
            for pid in candidates:
                if not exact or contains[pid](x, y):
                    counts[pid] += 1
        return counts

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def num_cell_refs(self) -> int:
        return sum(len(refs) for refs in self._cells.values())

    @property
    def size_bytes(self) -> int:
        """Directory + 8 bytes per (id, flag) reference."""
        return len(self._cells) * 16 + self.num_cell_refs * 8
