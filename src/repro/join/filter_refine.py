"""Classic filter-and-refine join (the technique ACT improves on).

Phase 1 probes a filter index (R-tree over MBRs by default) for candidate
polygons; phase 2 refines every candidate with an exact point-in-polygon
test. This is the decades-old baseline the paper's introduction describes,
and the operator ACT's true-hit filtering + precision-bounded candidates
render unnecessary.

Refinement is executed the same way the columnar engine refines ACT
candidates: all candidate pairs run through one packed-edge
crossing-number pass (:class:`~repro.geometry.edge_table.
PackedEdgeTable`). Only the probe phase stays per point (the filter
indexes are inherently scalar probes). The :class:`~repro.join.result.
JoinStats` accounting is preserved across the rewrites: ``num_refined``
still counts every PIP test and ``num_result_pairs`` every surviving
pair.

The filter index is pluggable so the ablation benchmarks can compare
refinement cost across filters (plain MBR, interior-rectangle, fixed grid,
ACT-with-refinement).
"""

from __future__ import annotations

import time
from typing import List, Protocol, Sequence

import numpy as np

from ..baselines.rtree import RStarTree
from ..geometry.edge_table import PackedEdgeTable
from ..geometry.polygon import Polygon
from .result import JoinResult, JoinStats


class PointFilter(Protocol):
    """Anything that maps a point to candidate polygon ids."""

    def query_point(self, x: float, y: float) -> List[int]:  # pragma: no cover
        ...


class FilterRefineJoin:
    """Two-phase exact join with a pluggable filter index."""

    def __init__(self, polygons: Sequence[Polygon],
                 filter_index: PointFilter | None = None):
        self.polygons = list(polygons)
        self.filter_index = filter_index or RStarTree.build(
            [p.bbox for p in self.polygons]
        )
        self._edge_table: PackedEdgeTable | None = None

    @property
    def edge_table(self) -> PackedEdgeTable:
        """Packed refinement engine over the polygon set (lazy)."""
        if self._edge_table is None:
            self._edge_table = PackedEdgeTable.from_polygons(self.polygons)
        return self._edge_table

    def query(self, lng: float, lat: float) -> List[int]:  # repro-lint: hot
        """Exact polygon ids for one point (filter, then refine)."""
        return [pid for pid in self.filter_index.query_point(lng, lat)
                if self.polygons[pid].contains(lng, lat)]

    def join(self, lngs: np.ndarray, lats: np.ndarray) -> JoinResult:  # repro-lint: hot
        """Exact per-polygon counts with full refinement accounting."""
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        query = self.filter_index.query_point
        start = time.perf_counter()
        # probe phase: the filter index answers one point at a time
        point_parts: List[int] = []
        id_parts: List[int] = []
        for k, (x, y) in enumerate(zip(lngs.tolist(), lats.tolist())):
            for pid in query(x, y):
                point_parts.append(k)
                id_parts.append(pid)
        point_idx = np.asarray(point_parts, dtype=np.int64)
        polygon_ids = np.asarray(id_parts, dtype=np.int64)
        # refine phase: one packed-edge pass over every candidate pair
        inside = self.edge_table.refine(point_idx, polygon_ids, lngs, lats)
        counts = np.bincount(polygon_ids[inside],
                             minlength=len(self.polygons))
        elapsed = time.perf_counter() - start
        refined = int(point_idx.shape[0])
        stats = JoinStats(
            num_points=lngs.shape[0],
            num_true_hits=0,
            num_candidate_refs=refined,
            num_refined=refined,
            num_result_pairs=int(np.count_nonzero(inside)),
            seconds=elapsed,
        )
        return JoinResult(counts, stats)

