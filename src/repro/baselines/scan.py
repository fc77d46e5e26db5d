"""Brute-force scan: the ground-truth join.

No index at all — every point is tested against every polygon (with a
bbox pre-check). Quadratic and slow on purpose; tests and benchmarks use
it as the oracle all other operators must agree with.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..geometry.polygon import Polygon


class ScanJoin:
    """Exact point-in-polygon join by exhaustive scanning."""

    def __init__(self, polygons: Sequence[Polygon]):
        self.polygons = list(polygons)

    def query(self, lng: float, lat: float) -> List[int]:
        """Ids of all polygons containing the point."""
        return [pid for pid, polygon in enumerate(self.polygons)
                if polygon.contains(lng, lat)]

    def count_points(self, lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Exact per-polygon counts (vectorized per polygon)."""
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        counts = np.zeros(len(self.polygons), dtype=np.int64)
        for pid, polygon in enumerate(self.polygons):
            counts[pid] = int(np.count_nonzero(
                polygon.contains_batch(lngs, lats)
            ))
        return counts

    def membership_matrix(self, lngs: np.ndarray, lats: np.ndarray,
                          ) -> np.ndarray:
        """Boolean ``(num_points, num_polygons)`` containment matrix."""
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        out = np.zeros((lngs.shape[0], len(self.polygons)), dtype=bool)
        for pid, polygon in enumerate(self.polygons):
            out[:, pid] = polygon.contains_batch(lngs, lats)
        return out
