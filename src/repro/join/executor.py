"""The join: one operation, executed column by column.

One :class:`JoinExecutor` binds an index's grid, :class:`~repro.act.core.
ACTCore`, and ring columns; :meth:`JoinExecutor.join` is the paper's whole
evaluation workload — join a point batch against the polygons and count
points per polygon — in numpy:

1. **descent** — point batch -> leaf cells -> encoded entries, one
   level-synchronous batch walk over the flat node pool;
2. **decode** — per-polygon true/candidate counts, plus (exact mode)
   the explicit ``(point, polygon)`` candidate pairs, CSR-gathered for
   lookup-table entries;
3. **refinement** (exact mode) — candidate pairs evaluated by the
   packed-edge engine (:class:`~repro.geometry.edge_table.
   PackedEdgeTable`): one vectorized crossing-number pass over all
   pairs' edges, no Python per pair or per polygon.

Descent walks the batch in arrival order: sorting it by cell id first
(same face, then same subtree, adjacent — the locality the paper
credits) was measured and loses at every batch size, see
:data:`SORT_DESCENT_MIN_BATCH`. Candidate pairs are refined as they
come: a row-wise ``np.unique`` to collapse repeated pairs first costs
6x the refinement it could save (lint rule RL003).

Everything else is a composition of that one call: ``count_points`` is
its ``.counts``; a stream (or a huge array, sliced) is
:func:`join_stream` folded with :meth:`~repro.join.result.JoinResult.
merged`; a fork pool over slices is :func:`~repro.join.parallel.
parallel_join`. The grouped-by-polygon :func:`refine_pairs` below is
the reference implementation tests and ``bench_11`` hold the packed
kernel to.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import JoinError
from ..geometry.edge_table import PackedEdgeTable
from ..geometry.polygon import Polygon
from .result import JoinResult, JoinStats

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


def refine_pairs(polygons: Sequence[Polygon], point_idx: np.ndarray,  # repro-lint: hot
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


class JoinExecutor:
    """Columnar execution of point-polygon joins over one index."""

    # no reference back to the index: it caches this executor, and a
    # cycle would leave a dropped index's memory-mapped pool to the
    # garbage collector instead of freeing it with the last reference
    __slots__ = ("core", "grid", "columns", "num_polygons",
                 "_edge_table", "_edge_table_lock")

    def __init__(self, index: "ACTIndex"):
        self.core = index.core
        self.grid = index.grid
        self.columns = index.columns
        self.num_polygons = index.num_polygons
        self._edge_table: Optional[PackedEdgeTable] = None
        self._edge_table_lock = threading.Lock()

    @property
    def edge_table(self) -> PackedEdgeTable:
        """The packed refinement engine, packed lazily from the index's
        ring columns.

        Built once under a lock: the serve front is threaded, and an
        O(total-edges) build racing across concurrent first requests
        would be duplicated work (the serve registry pre-warms this at
        materialization, so requests normally never pay it).
        """
        if self._edge_table is None:
            with self._edge_table_lock:
                if self._edge_table is None:
                    self._edge_table = PackedEdgeTable.from_columns(
                        self.columns)
        return self._edge_table

    def refine_pairs(self, point_idx: np.ndarray, polygon_ids: np.ndarray,  # repro-lint: hot
                     lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """PIP verdict per candidate pair via the packed-edge engine."""
        return self.edge_table.refine(point_idx, polygon_ids, lngs, lats)

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------
    def entries(self, lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:  # repro-lint: hot
        """Encoded entry per point (the batch descent)."""
        cells = self.grid.leaf_cells_batch(
            np.asarray(lngs, dtype=np.float64),
            np.asarray(lats, dtype=np.float64),
        )
        return self.core.lookup_entries(cells)

    # ------------------------------------------------------------------
    # The join
    # ------------------------------------------------------------------
    def join(self, lngs: np.ndarray, lats: np.ndarray,  # repro-lint: hot
             exact: bool = False, trace=None) -> JoinResult:
        """Per-polygon counts for a point batch, with run statistics.

        Approximate mode counts every reference (true hit or candidate,
        zero PIP tests); exact mode counts true hits unrefined and sends
        only the candidate pairs through the packed-edge engine.
        ``trace`` (a sampled request's :class:`~repro.obs.trace.Trace`)
        receives per-stage stamps: ``descent`` (cell mapping + trie
        walk), ``decode``, and — in exact mode — ``refine``.
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        if lngs.ndim != 1 or lngs.shape != lats.shape:
            raise JoinError(
                f"need matching 1-D lngs/lats, got shapes "
                f"{lngs.shape} and {lats.shape}")
        start = time.perf_counter()
        entries = self.entries(lngs, lats)
        if trace is not None:
            trace.stamp("descent")
        true_counts, cand_counts = self.core.hit_counts(
            entries, self.num_polygons)
        true_hits = int(true_counts.sum())
        refined = 0
        if exact:
            counts = true_counts
            point_idx, polygon_ids = self.core.candidate_pairs(entries)
            refined = int(point_idx.shape[0])
            if trace is not None:
                trace.stamp("decode")
            if refined:
                inside = self.refine_pairs(point_idx, polygon_ids,
                                           lngs, lats)
                counts += np.bincount(polygon_ids[inside],
                                      minlength=self.num_polygons)
            if trace is not None:
                trace.stamp("refine")
        else:
            counts = true_counts + cand_counts
            if trace is not None:
                trace.stamp("decode")
        return JoinResult(counts, JoinStats(
            num_points=int(lngs.shape[0]),
            num_true_hits=true_hits,
            num_candidate_refs=int(cand_counts.sum()),
            num_refined=refined,
            num_result_pairs=int(counts.sum()),
            seconds=time.perf_counter() - start,
        ))

    def count_points(self, lngs: np.ndarray, lats: np.ndarray,  # repro-lint: hot
                     exact: bool = False, trace=None) -> np.ndarray:
        """:meth:`join`'s per-polygon counts (the paper's evaluation
        workload) for callers that want only the array."""
        return self.join(lngs, lats, exact=exact, trace=trace).counts

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


def join_stream(executor: JoinExecutor,  # repro-lint: hot
                batches: Iterable[Tuple[np.ndarray, np.ndarray]],
                exact: bool = False) -> Iterator[JoinResult]:
    """One :meth:`JoinExecutor.join` result per ``(lngs, lats)`` batch.

    The paper's streaming scenario and its 1 B-point workload are both
    this: fold the results with :meth:`~repro.join.result.JoinResult.
    merged` for running totals in bounded memory (a huge array streams
    as slices); each result's ``stats.seconds`` is that batch's latency.
    """
    # one iteration per batch, never per point
    for lngs, lats in batches:  # repro-lint: ignore[RL003]
        yield executor.join(lngs, lats, exact=exact)
