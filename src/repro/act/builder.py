"""ACT index construction: polygons -> coverings -> super covering -> core.

The build pipeline follows the paper's Section II end to end:

1. compute a covering + interior covering per polygon, with boundary
   cells refined to the grid level whose diagonal is below the requested
   precision (parallelizable per polygon, like the paper's build);
2. merge them into a prefix-free super covering (dedup + conflict
   push-down);
3. encode reference sets (inline one or two, lookup table for three or
   more) and lay the cells out as the radix tree's node pool,
   denormalizing the ones off the node granularity.

Steps 2 and 3 run on sorted columns end to end: no per-cell Python
object is made between the coverings and the finished
:class:`~repro.act.core.ACTCore`.

Each phase is timed separately because Table I of the paper reports the
covering and super-covering build times as separate rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import BuildError
from ..geometry.polygon import Polygon
from ..grid.base import HierarchicalGrid
from ..grid.coverer import Covering, RegionCoverer
from . import entry as entry_codec
from .core import ACTCore, radix_geometry
from .lookup_table import encode_refs
from .stats import IndexStats
from .supercovering import SuperCovering


@dataclass
class BuildResult:
    """Everything the facade needs from a finished build."""

    core: ACTCore
    stats: IndexStats
    boundary_level: int
    coverings: List[Covering]
    super_covering: SuperCovering


class ACTBuilder:
    """Builds ACT indexes over a hierarchical grid.

    Parameters
    ----------
    grid:
        The hierarchical grid to approximate polygons on.
    fanout:
        Node fanout (paper default 256 = 8 key bits per node).
    use_interior:
        When ``False``, interior cells are indexed as *candidate* hits
        instead of true hits — the ablation knob that quantifies the value
        of true-hit filtering.
    max_cells_per_polygon:
        Optional covering budget per polygon. When set, boundary cells may
        stay coarser than the precision level and the index no longer
        avoids refinement (the paper's strict-memory mode); pair it with
        exact queries.
    """

    def __init__(self, grid: HierarchicalGrid, fanout: int = 256,
                 use_interior: bool = True,
                 max_cells_per_polygon: Optional[int] = None):
        self.grid = grid
        self.fanout = fanout
        self.use_interior = use_interior
        self.max_cells_per_polygon = max_cells_per_polygon
        self._coverer = RegionCoverer(grid)

    def boundary_level_for(self, precision_meters: float) -> int:
        """Grid level for the precision bound.

        Boundary cells are refined to this level; cells off the node
        granularity are denormalized when the pool is laid out, so no
        rounding is needed here. Raises when the precision requires a
        level deeper than the fanout can index.
        """
        max_cell_level = radix_geometry(self.fanout)[3]
        level = self.grid.level_for_precision(precision_meters)
        if level > max_cell_level:
            raise BuildError(
                f"precision {precision_meters} m needs grid level {level}, "
                f"deeper than fanout {self.fanout} can index "
                f"({max_cell_level})"
            )
        return level

    def build(self, polygons: Sequence[Polygon],
              precision_meters: float) -> BuildResult:
        """Run the full pipeline for ``polygons`` at ``precision_meters``."""
        if not polygons:
            raise BuildError("cannot build an index over zero polygons")
        if len(polygons) > entry_codec.MAX_POLYGON_ID + 1:
            raise BuildError(
                f"{len(polygons)} polygons exceed the 30-bit id space"
            )
        _, levels_per_step, _, max_cell_level = radix_geometry(self.fanout)
        boundary_level = self.boundary_level_for(precision_meters)

        start = time.perf_counter()
        coverings = [self._cover(polygon, boundary_level)
                     for polygon in polygons]
        coverings_seconds = time.perf_counter() - start

        start = time.perf_counter()
        super_covering = SuperCovering.merge(
            enumerate(coverings), levels_per_step, max_cell_level)
        super_seconds = time.perf_counter() - start

        start = time.perf_counter()
        entries, lookup_words = encode_refs(
            super_covering.indptr, super_covering.refs, self.use_interior)
        core = ACTCore.from_cells(super_covering.cells, entries,
                                  lookup_words, self.fanout)
        trie_seconds = time.perf_counter() - start

        stats = IndexStats(
            num_polygons=len(polygons),
            precision_meters=precision_meters,
            boundary_level=boundary_level,
            fanout=self.fanout,
            grid_name=self.grid.name,
            raw_boundary_cells=sum(len(c.boundary) for c in coverings),
            raw_interior_cells=sum(len(c.interior) for c in coverings),
            # post-denormalization count (node slots), matching the
            # paper's "indexed cells"; the pre-denormalization covering
            # cell count is stats.raw_cells / super_covering.num_cells
            indexed_cells=core.num_entries,
            conflict_cells=super_covering.num_conflict_cells,
            trie_nodes=core.num_nodes,
            trie_bytes=core.size_bytes,
            trie_entries=core.num_entries,
            lookup_table_bytes=core.lookup_table.size_bytes,
            lookup_table_sets=core.lookup_table.num_unique_sets,
            build_coverings_seconds=coverings_seconds,
            build_super_seconds=super_seconds,
            build_trie_seconds=trie_seconds,
        )
        return BuildResult(core, stats, boundary_level, coverings,
                           super_covering)

    # ------------------------------------------------------------------
    # Pipeline pieces
    # ------------------------------------------------------------------
    def _cover(self, polygon: Polygon, boundary_level: int) -> Covering:
        if self.max_cells_per_polygon is not None:
            return self._coverer.cover_budgeted(
                polygon, self.max_cells_per_polygon, boundary_level
            )
        return self._coverer.cover(polygon, boundary_level)
