"""Memory-budgeted adaptive ACT (the paper's future-work Section I).

When ACT cannot guarantee the desired precision within a memory budget,
the paper proposes to *"adaptively alter the trie structure based on the
distribution of query points to provide higher precision where it is
actually needed"*: refinement is steered toward boundary cells that hot
query regions actually hit, so true hits increase and refinements fall
without exceeding the budget.

:class:`AdaptiveACTIndex` implements that loop:

1. build budgeted per-polygon coverings (coarse boundary cells);
2. serve exact queries by refining candidate matches with PIP tests;
3. :meth:`adapt` — feed a sample of the query distribution; boundary
   cells are charged per candidate hit, the hottest are split into child
   cells re-classified against their polygons, and the core is rebuilt,
   while the total cell count stays under the budget.

Repeated ``adapt`` rounds migrate precision toward the workload. The
index keeps exact semantics throughout; what improves is the fraction of
lookups that bypass refinement.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ACTError
from ..geometry.polygon import Polygon
from ..geometry.relate import EdgeClassifier, Relation
from ..grid import cellid
from ..grid.base import HierarchicalGrid
from ..grid.coverer import RegionCoverer
from ..grid.planar import PlanarGrid
from .core import ACTCore, _indptr, radix_geometry
from .lookup_table import encode_refs

#: packed ref layout shared with the rest of the act package
_TRUE = 1


class AdaptiveACTIndex:
    """ACT under a cell budget with query-driven refinement."""

    def __init__(self, polygons: Sequence[Polygon],
                 max_cells: int,
                 grid: Optional[HierarchicalGrid] = None,
                 target_precision_meters: float = 4.0,
                 fanout: int = 256):
        if max_cells < 8 * max(1, len(polygons)):
            raise ACTError(
                f"max_cells={max_cells} too small for {len(polygons)} "
                f"polygons (need >= 8 per polygon)"
            )
        self.polygons = list(polygons)
        self.grid = grid or PlanarGrid.for_polygons(self.polygons)
        self.fanout = fanout
        self.max_cells = max_cells
        self.target_level = min(
            self.grid.level_for_precision(target_precision_meters),
            radix_geometry(fanout)[3],
        )
        self._classifiers = [EdgeClassifier(p) for p in self.polygons]

        coverer = RegionCoverer(self.grid)
        per_polygon = max(8, max_cells // max(1, len(self.polygons)))
        #: cell -> list of packed refs (pid << 1 | is_true)
        self._cells: Dict[int, List[int]] = {}
        for pid, polygon in enumerate(self.polygons):
            covering = coverer.cover_budgeted(
                polygon, per_polygon, self.target_level
            )
            for cell, is_interior in covering.all_cells():
                packed = (pid << 1) | (_TRUE if is_interior else 0)
                self._cells.setdefault(cell, []).append(packed)
        self._resolve_nesting()
        self._rebuild()
        self.adapt_rounds = 0

    # ------------------------------------------------------------------
    # Structure maintenance
    # ------------------------------------------------------------------
    def _resolve_nesting(self) -> None:
        """Split coarse cells that contain finer cells of other polygons.

        Budgeted coverings of different polygons can nest (a huge zone's
        coarse boundary cell may contain a small zone's fine cells). The
        coarse cell is split toward its intruders until the family is
        prefix-free — the same conflict rule as the static build.
        """
        while True:
            ordered = sorted(self._cells, key=cellid.range_min)
            conflicts = set()
            for prev, curr in zip(ordered, ordered[1:]):
                if cellid.range_max(prev) >= cellid.range_min(curr):
                    coarse = prev if cellid.level(prev) < cellid.level(curr) \
                        else curr
                    conflicts.add(coarse)
            if not conflicts:
                return
            for cell in conflicts:
                refs = self._cells.pop(cell, None)
                if refs is None:
                    continue
                for child in cellid.children(cell):
                    merged = self._cells.setdefault(child, [])
                    merged.extend(refs)

    def _rebuild(self) -> None:
        cells = sorted(self._cells)
        rows = [self._cells[cell] for cell in cells]
        indptr = _indptr(np.fromiter(map(len, rows), np.int64, len(rows)))
        entries, lookup_words = encode_refs(
            indptr, np.fromiter(chain.from_iterable(rows), np.int64,
                                int(indptr[-1])))
        self.core = ACTCore.from_cells(
            np.asarray(cells, dtype=np.uint64), entries, lookup_words,
            self.fanout)
        # sorted boundary-cell directory for hit attribution
        self._sorted_cells = cells

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def size_bytes(self) -> int:
        return self.core.total_bytes

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query_exact(self, lng: float, lat: float) -> Tuple[int, ...]:
        """Exact polygon ids (candidates refined with PIP tests)."""
        leaf = self.grid.leaf_cell(lng, lat)
        if leaf is None:
            return ()
        result = self.core.decode_entry(self.core.lookup_entry(leaf))
        return result.true_hits + tuple(
            pid for pid in result.candidates
            if self.polygons[pid].contains(lng, lat)
        )

    def refinement_rate(self, lngs: np.ndarray, lats: np.ndarray) -> float:
        """Fraction of points whose lookup needs at least one PIP test."""
        entries = self.core.lookup_entries(
            self.grid.leaf_cells_batch(
                np.asarray(lngs, dtype=np.float64),
                np.asarray(lats, dtype=np.float64),
            )
        )
        point_idx, _ = self.core.candidate_pairs(entries)
        if entries.shape[0] == 0:
            return 0.0
        return float(np.unique(point_idx).shape[0]) / float(entries.shape[0])

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def adapt(self, sample_lngs: np.ndarray, sample_lats: np.ndarray,
              max_splits: Optional[int] = None) -> int:
        """One refinement round driven by a query-point sample.

        Returns the number of cells split. Splitting stops when the cell
        budget is reached, the hottest cells hit the target level, or
        ``max_splits`` rounds of work are done.
        """
        sample_lngs = np.asarray(sample_lngs, dtype=np.float64)
        sample_lats = np.asarray(sample_lats, dtype=np.float64)
        heat = self._candidate_heat(sample_lngs, sample_lats)
        if not heat:
            return 0

        budget = self.max_cells - self.num_cells
        splits = 0
        limit = max_splits if max_splits is not None else len(heat)
        for cell, _hits in sorted(heat.items(), key=lambda kv: -kv[1]):
            if budget < 3 or splits >= limit:
                break
            if cellid.level(cell) >= self.target_level:
                continue
            added = self._split_cell(cell)
            if added:
                budget -= added - 1
                splits += 1
        if splits:
            self._rebuild()
            self.adapt_rounds += 1
        return splits

    def _candidate_heat(self, lngs: np.ndarray, lats: np.ndarray,
                        ) -> Dict[int, int]:
        """Candidate-hit counts per indexed cell for a sample."""
        leaves = self.grid.leaf_cells_batch(lngs, lats)
        entries = self.core.lookup_entries(leaves)
        point_idx, _ = self.core.candidate_pairs(entries)
        heat: Dict[int, int] = {}
        cells = self._sorted_cells
        for leaf in leaves[np.unique(point_idx)].tolist():
            pos = bisect_right(cells, leaf)
            for candidate in (pos - 1, pos):
                if 0 <= candidate < len(cells) and \
                        cellid.contains(cells[candidate], leaf):
                    heat[cells[candidate]] = heat.get(cells[candidate], 0) + 1
                    break
        return heat

    def _split_cell(self, cell: int) -> int:
        """Replace one cell with its re-classified children.

        Children disjoint from a referenced polygon drop that reference;
        children fully inside become true hits. Returns the number of new
        cells (0 if the cell was already gone).
        """
        refs = self._cells.pop(cell, None)
        if refs is None:
            return 0
        added = 0
        for child in cellid.children(cell):
            frame = self.grid.frame_for_cell(child)
            min_x, min_y, max_x, max_y = self.grid.frame_bounds(frame)
            child_refs: List[int] = []
            for packed in set(refs):
                pid = packed >> 1
                if packed & 1:
                    # true refs stay true for every child
                    child_refs.append(packed)
                    continue
                relation, _ = self._classifiers[pid].classify_bounds(
                    min_x, min_y, max_x, max_y
                )
                if relation is Relation.DISJOINT:
                    continue
                if relation is Relation.WITHIN:
                    child_refs.append((pid << 1) | _TRUE)
                else:
                    child_refs.append(packed)
            if child_refs:
                self._cells[child] = child_refs
                added += 1
        return added
