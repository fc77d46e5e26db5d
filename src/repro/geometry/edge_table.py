"""Packed edge table: one flat edge soup for a whole polygon set.

:class:`PackedEdgeTable` concatenates every polygon's edges (shell and
holes, closing edges included) into four flat float64 arrays with a CSR
``indptr`` per polygon, plus the per-polygon bounding boxes as columns.
It is packed from a :class:`~repro.geometry.polygon.PolygonColumns`
(the ring columns an index stores) in one vectorized pass; a list of
:class:`~repro.geometry.polygon.Polygon` is flattened to those columns
first.

Its :meth:`~PackedEdgeTable.refine` kernel evaluates the even/odd
crossing-number test for an arbitrary batch of ``(point, polygon)``
candidate pairs in one vectorized pass: pairs expand to per-pair edge
ranges with ``np.repeat`` gathers, the segment-crossing predicate runs
on the expanded arrays, and a per-pair parity reduction produces the
verdicts. No Python executes per pair or per polygon.

This is the columnar analog of calling ``Polygon.contains_batch`` once
per polygon (the grouped refinement the join engine used before): the
arithmetic is element-for-element identical — the same bounding-box
pre-filter, the same crossing condition, interpolation, and comparison
— so verdicts are bit-identical to the grouped path. The win is purely
dispatch shape: skewed workloads where thousands of polygons each own a
handful of candidates collapse from thousands of tiny numpy calls into
a few large ones.

Peak memory is bounded by a chunked driver: expanded ``(pair, edge)``
rows are processed in chunks of at most ``chunk_edges`` gathered edges
(a chunk always admits at least one pair, so a single huge polygon
degrades to per-pair processing instead of failing).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .polygon import Polygon, PolygonColumns

#: Default cap on gathered (pair, edge) rows per refinement chunk.
#: 1<<21 rows keep the working set around ~100 MB across the dozen
#: float64/bool temporaries the kernel materializes.
DEFAULT_CHUNK_EDGES = 1 << 21


class PackedEdgeTable:
    """All polygons' edges as flat arrays, CSR-indexed per polygon.

    :meth:`refine` is the one refinement path: a chunk admits pairs up
    to ``chunk_edges`` gathered rows but never fewer than one pair, so
    the working set of one chunk is ``max(chunk_edges, largest
    polygon's edge count)`` rows.
    """

    __slots__ = ("xs", "ys", "xe", "ye", "indptr",
                 "min_x", "min_y", "max_x", "max_y",
                 "num_polygons", "chunk_edges")

    def __init__(self, xs: np.ndarray, ys: np.ndarray, xe: np.ndarray,
                 ye: np.ndarray, indptr: np.ndarray, min_x: np.ndarray,
                 min_y: np.ndarray, max_x: np.ndarray, max_y: np.ndarray,
                 chunk_edges: int = DEFAULT_CHUNK_EDGES):
        self.xs = xs
        self.ys = ys
        self.xe = xe
        self.ye = ye
        self.indptr = indptr
        self.min_x = min_x
        self.min_y = min_y
        self.max_x = max_x
        self.max_y = max_y
        self.num_polygons = indptr.shape[0] - 1
        self.chunk_edges = max(1, int(chunk_edges))

    @classmethod
    def from_polygons(cls, polygons: Sequence[Polygon],
                      chunk_edges: int = DEFAULT_CHUNK_EDGES,
                      ) -> "PackedEdgeTable":
        """Pack a polygon set (holes included, even/odd semantics)."""
        return cls.from_columns(PolygonColumns.from_polygons(polygons),
                                chunk_edges=chunk_edges)

    @classmethod
    def from_columns(cls, columns: PolygonColumns,
                     chunk_edges: int = DEFAULT_CHUNK_EDGES,
                     ) -> "PackedEdgeTable":
        """Pack a polygon set straight from its ring columns, in one
        vectorized pass: vertex ``k`` starts an edge that ends at the
        next vertex of its ring (a ring's last wraps to its first), a
        polygon's edges are its rings' vertices, and its box is its
        shell's (the ring bounds ``reduceat`` gives)."""
        xs, ys = np.ascontiguousarray(columns.xy)
        ring_ptr = columns.ring_ptr
        ring_starts = ring_ptr[:-1]
        nxt = np.arange(1, xs.shape[0] + 1, dtype=np.int64)
        nxt[ring_ptr[1:] - 1] = ring_starts
        shells = columns.poly_ptr[:-1]
        if ring_starts.size:
            boxes = [reduce.reduceat(coords, ring_starts)[shells]
                     for reduce, coords in ((np.minimum, xs),
                                            (np.minimum, ys),
                                            (np.maximum, xs),
                                            (np.maximum, ys))]
        else:
            boxes = [np.empty(0, dtype=np.float64)] * 4
        return cls(xs, ys, xs[nxt], ys[nxt], ring_ptr[columns.poly_ptr],
                   *boxes, chunk_edges=chunk_edges)

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def size_bytes(self) -> int:
        return (self.xs.nbytes + self.ys.nbytes + self.xe.nbytes
                + self.ye.nbytes + self.indptr.nbytes
                + self.min_x.nbytes * 4)

    def edge_counts(self, polygon_ids: np.ndarray) -> np.ndarray:
        """Edges per polygon for a batch of polygon ids."""
        return self.indptr[polygon_ids + 1] - self.indptr[polygon_ids]

    # ------------------------------------------------------------------
    # The refinement kernel
    # ------------------------------------------------------------------
    def refine(self, point_idx: np.ndarray, polygon_ids: np.ndarray,  # repro-lint: hot
               lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """PIP verdict per ``(point, polygon)`` candidate pair.

        ``point_idx`` indexes into ``lngs``/``lats``; the returned
        boolean mask is aligned with the input pair order and equals
        what ``polygons[polygon_ids[k]].contains_batch`` would answer
        for each pair, bit for bit.
        """
        n = int(point_idx.shape[0])
        inside = np.zeros(n, dtype=bool)
        if n == 0:
            return inside
        px = np.asarray(lngs, dtype=np.float64)[point_idx]
        py = np.asarray(lats, dtype=np.float64)[point_idx]
        pids = polygon_ids
        # the same closed bbox pre-filter contains_batch applies
        in_box = ((px >= self.min_x[pids]) & (px <= self.max_x[pids])
                  & (py >= self.min_y[pids]) & (py <= self.max_y[pids]))
        keep = np.flatnonzero(in_box)
        if keep.size == 0:
            return inside
        counts = self.edge_counts(pids[keep])
        cum = np.cumsum(counts)
        chunk = self.chunk_edges
        start = 0
        total_pairs = keep.size
        while start < total_pairs:
            base = int(cum[start] - counts[start])
            stop = int(np.searchsorted(cum, base + chunk, side="right"))
            stop = min(max(stop, start + 1), total_pairs)
            sel = keep[start:stop]
            inside[sel] = self._refine_chunk(
                px[sel], py[sel], counts[start:stop],
                self.indptr[pids[sel]],
            )
            start = stop
        return inside

    def _refine_chunk(self, px: np.ndarray, py: np.ndarray,
                      counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Crossing-number parity for one bounded chunk of pairs."""
        num_pairs = px.shape[0]
        total = int(counts.sum())
        if total == 0:
            return np.zeros(num_pairs, dtype=bool)
        cum = np.cumsum(counts)
        # expanded gather: row r of the chunk is edge (take[r]) of pair
        # (pair_of_row[r])
        take = (np.arange(total, dtype=np.int64)
                - np.repeat(cum - counts, counts)
                + np.repeat(starts, counts))
        eys = self.ys[take]
        eye = self.ye[take]
        ppy = np.repeat(py, counts)
        cond = (eys > ppy) != (eye > ppy)
        hit = np.flatnonzero(cond)
        if hit.size == 0:
            return np.zeros(num_pairs, dtype=bool)
        t = (ppy[hit] - eys[hit]) / (eye[hit] - eys[hit])
        exs = self.xs[take[hit]]
        x_at = exs + t * (self.xe[take[hit]] - exs)
        crossing = hit[x_at > np.repeat(px, counts)[hit]]
        pair_of_row = np.repeat(np.arange(num_pairs, dtype=np.int64),
                                counts)
        crossings = np.bincount(pair_of_row[crossing], minlength=num_pairs)
        return (crossings & 1) == 1

    def __repr__(self) -> str:
        return (f"PackedEdgeTable({self.num_polygons} polygons, "
                f"{self.num_edges:,} edges, "
                f"{self.size_bytes / 1e6:.2f} MB)")
