"""The columnar join engine every join operator routes through.

One :class:`JoinExecutor` binds an index's grid, :class:`~repro.act.core.
ACTCore`, and polygons, and executes the whole join pipeline in numpy:

1. **descent** — point batch -> leaf cells -> encoded entries, one
   level-synchronous batch walk over the flat node pool;
2. **decode** — per-polygon true/candidate counts or explicit
   ``(point, polygon)`` pairs, CSR-gathered for lookup-table entries;
3. **refinement** (exact mode) — candidate pairs evaluated by the
   packed-edge engine (:class:`~repro.geometry.edge_table.
   PackedEdgeTable`): one vectorized crossing-number pass over all
   pairs' edges, no Python per pair or per polygon.

Descent walks the batch in arrival order: sorting it by cell id first
(same face, then same subtree, adjacent — the locality the paper
credits) was measured and loses at every batch size, see
:data:`SORT_DESCENT_MIN_BATCH`.

Refinement keeps the previous grouped-by-polygon path
(:func:`refine_pairs`) as a fallback for pairs whose polygon alone
overflows the packed kernel's chunk budget — grouped refinement is
``O(points)`` memory regardless of edge count. Candidate pairs are
refined as they come: a row-wise ``np.unique`` to collapse repeated
pairs first costs 6x the refinement it could save (lint rule RL003).

The approximate join (:class:`~repro.join.approximate.ApproximateJoin`),
the ACT exact join (:class:`~repro.join.filter_refine.ACTExactJoin`),
the streaming and multiprocess operators, and ``ACTIndex.count_points``
all dispatch here, so there is exactly one hot path to keep fast.
"""

from __future__ import annotations

import sys
import threading
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from ..geometry.edge_table import PackedEdgeTable
from ..geometry.polygon import Polygon

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..act.index import ACTIndex

#: No batch is ever large enough to descend in cell-sorted order. The
#: name survives only because the frozen ``benchmarks/e2e/actbench/
#: ledger.py`` imports it (to decide ``lookup_entries(sort_by_cell=)``);
#: ROADMAP item 1 deletes it with that import. It was 4096 until the
#: sweep was run — e2e artifact (census 1 000 @ 60 m, mmap), best of
#: >= 9, ns/point on taxi / uniform points:
#:
#: ========= ================== ================== ==================
#: batch     ``sort_by_cell``   unsorted           the argsort alone
#: ========= ================== ================== ==================
#: 4 096     116 / 120          58 / 60            48
#: 25 000    125 / 125          52 / 52            66
#: 100 000   138 / 147          50 / 53            80
#: 1 000 000 179 / 183          72 / 77            106
#: ========= ================== ================== ==================
SORT_DESCENT_MIN_BATCH = sys.maxsize


def refine_pairs(polygons: Sequence[Polygon], point_idx: np.ndarray,
                 polygon_ids: np.ndarray, lngs: np.ndarray,
                 lats: np.ndarray) -> np.ndarray:
    """PIP verdict per ``(point, polygon)`` candidate pair.

    Pairs are grouped by polygon so each polygon evaluates one
    ``contains_batch`` over all of its candidate points. Returns a
    boolean mask aligned with the input pair order.
    """
    inside = np.zeros(point_idx.shape[0], dtype=bool)
    if point_idx.size == 0:
        return inside
    order = np.argsort(polygon_ids, kind="stable")
    sorted_ids = polygon_ids[order]
    sorted_pts = point_idx[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    for chunk_pos, chunk_ids, chunk_pts in zip(
        np.split(order, boundaries),
        np.split(sorted_ids, boundaries),
        np.split(sorted_pts, boundaries),
    ):
        polygon = polygons[int(chunk_ids[0])]
        inside[chunk_pos] = polygon.contains_batch(
            lngs[chunk_pts], lats[chunk_pts]
        )
    return inside


def refine_pairs_packed(table: PackedEdgeTable,
                        polygons: Sequence[Polygon],
                        point_idx: np.ndarray, polygon_ids: np.ndarray,
                        lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Packed-edge refinement with a grouped fallback for huge fan-out.

    Pairs whose polygon alone exceeds the table's per-chunk edge budget
    would make the expanded ``(pair, edge)`` gather as large as the
    polygon itself per pair; those few pairs take the grouped
    per-polygon path (``O(points)`` memory) while everything else runs
    through the vectorized kernel. Verdicts are bit-identical either
    way.
    """
    if point_idx.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    huge = table.edge_counts(polygon_ids) > table.chunk_edges
    if not huge.any():
        return table.refine(point_idx, polygon_ids, lngs, lats)
    inside = np.zeros(point_idx.shape[0], dtype=bool)
    small = ~huge
    inside[small] = table.refine(point_idx[small], polygon_ids[small],
                                 lngs, lats)
    inside[huge] = refine_pairs(polygons, point_idx[huge],
                                polygon_ids[huge], lngs, lats)
    return inside


class JoinExecutor:
    """Columnar execution of point-polygon joins over one index."""

    # no reference back to the index: it caches this executor, and a
    # cycle would leave a dropped index's memory-mapped pool to the
    # garbage collector instead of freeing it with the last reference
    __slots__ = ("core", "grid", "polygons",
                 "_edge_table", "_edge_table_lock")

    def __init__(self, index: "ACTIndex"):
        self.core = index.core
        self.grid = index.grid
        self.polygons = index.polygons
        self._edge_table: Optional[PackedEdgeTable] = None
        self._edge_table_lock = threading.Lock()

    @property
    def num_polygons(self) -> int:
        return len(self.polygons)

    @property
    def edge_table(self) -> PackedEdgeTable:
        """The packed refinement engine, built lazily from the polygons.

        Built once under a lock: the serve front is threaded, and an
        O(total-edges) build racing across concurrent first requests
        would be duplicated work (the serve registry pre-warms this at
        materialization, so requests normally never pay it).
        """
        if self._edge_table is None:
            with self._edge_table_lock:
                if self._edge_table is None:
                    self._edge_table = PackedEdgeTable.from_polygons(
                        self.polygons)
        return self._edge_table

    def refine_pairs(self, point_idx: np.ndarray, polygon_ids: np.ndarray,
                     lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """PIP verdict per candidate pair via the packed-edge engine."""
        return refine_pairs_packed(self.edge_table, self.polygons,
                                   point_idx, polygon_ids, lngs, lats)

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------
    def entries(self, lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Encoded entry per point (the batch descent)."""
        cells = self.grid.leaf_cells_batch(
            np.asarray(lngs, dtype=np.float64),
            np.asarray(lats, dtype=np.float64),
        )
        return self.core.lookup_entries(cells)

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def count_points(self, lngs: np.ndarray, lats: np.ndarray,
                     exact: bool = False, trace=None) -> np.ndarray:
        """Per-polygon counts (the paper's evaluation workload).

        ``trace`` (a sampled request's :class:`~repro.obs.trace.Trace`)
        receives per-stage stamps: ``descent`` (cell mapping + trie
        walk), ``decode``, and — in exact mode — ``refine``.
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        entries = self.entries(lngs, lats)
        if trace is not None:
            trace.stamp("descent")
        if not exact:
            true_counts, cand_counts = self.core.hit_counts(
                entries, self.num_polygons)
            if trace is not None:
                trace.stamp("decode")
            return true_counts + cand_counts
        counts, _, _ = self.refined_counts(entries, lngs, lats,
                                           trace=trace)
        return counts

    def refined_counts(self, entries: np.ndarray, lngs: np.ndarray,
                       lats: np.ndarray, trace=None,
                       ) -> Tuple[np.ndarray, int, int]:
        """Exact per-polygon counts for pre-computed entries.

        True hits are counted without refinement; candidate pairs are
        refined by the packed-edge engine. Returns ``(counts,
        num_true_pairs, num_refined)`` where ``num_refined`` is the
        number of PIP tests executed.
        """
        counts = self.core.count_hits(entries, self.num_polygons,
                                      include_candidates=False)
        true_pairs = int(counts.sum())
        point_idx, polygon_ids = self.core.candidate_pairs(entries)
        refined = int(point_idx.shape[0])
        if trace is not None:
            trace.stamp("decode")
        if refined:
            inside = self.refine_pairs(point_idx, polygon_ids, lngs, lats)
            counts += np.bincount(polygon_ids[inside],
                                  minlength=self.num_polygons)
        if trace is not None:
            trace.stamp("refine")
        return counts, true_pairs, refined

    # ------------------------------------------------------------------
    # Pair extraction
    # ------------------------------------------------------------------
    def pairs(self, lngs: np.ndarray, lats: np.ndarray,
              exact: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """``(point_indices, polygon_ids)`` join pairs for a batch.

        Approximate mode emits every reference; exact mode keeps true
        hits and refines candidates through the packed-edge engine.
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        entries = self.entries(lngs, lats)
        true_pts, true_ids = self.core.pairs(entries, want_true=True)
        cand_pts, cand_ids = self.core.pairs(entries, want_true=False)
        if exact and cand_pts.size:
            inside = self.refine_pairs(cand_pts, cand_ids, lngs, lats)
            cand_pts = cand_pts[inside]
            cand_ids = cand_ids[inside]
        return (np.concatenate([true_pts, cand_pts]),
                np.concatenate([true_ids, cand_ids]))
