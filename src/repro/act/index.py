"""Public facade: the ACT approximate geospatial join index.

:class:`ACTIndex` bundles the grid, the columnar :class:`~repro.act.core.
ACTCore`, and the polygons (as flat ring columns, with :class:`~repro.
geometry.polygon.Polygon` objects materialised on demand) behind the
interface a downstream user needs:

* :meth:`ACTIndex.build` — index a set of polygons at a precision bound
  (the build emits the core's flat arrays directly);
* :meth:`query` / :meth:`query_approx` / :meth:`query_exact` — per-point
  lookups returning polygon ids;
* :meth:`lookup_batch` / :meth:`count_points` — vectorized joins and the
  count-per-polygon aggregation the paper's evaluation measures;
* :attr:`stats` / :attr:`guaranteed_precision_meters` — Table I metrics
  and the realized precision guarantee.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BuildError
from ..geometry.polygon import Polygon, PolygonColumns
from ..grid.base import HierarchicalGrid
from ..grid.planar import PlanarGrid
from .builder import ACTBuilder, BuildResult
from .core import ACTCore, QueryResult
from .lookup_table import LookupTable
from .stats import IndexStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (join sits above)
    from ..join.executor import JoinExecutor

__all__ = ["ACTIndex", "QueryResult"]


class ACTIndex:
    """Approximate point-in-polygon join index with a precision guarantee."""

    def __init__(self, grid: HierarchicalGrid, core: ACTCore,
                 polygons: Union[Sequence[Polygon], PolygonColumns],
                 stats: IndexStats, boundary_level: int):
        self.grid = grid
        self.core = core
        self._polygons: Optional[List[Polygon]] = None
        self._columns: Optional[PolygonColumns] = None
        if isinstance(polygons, PolygonColumns):
            self._columns = polygons
        else:
            self._polygons = list(polygons)
        self.stats = stats
        self.boundary_level = boundary_level
        self._executor: Optional["JoinExecutor"] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, polygons: Sequence[Polygon],
              precision_meters: float = 4.0,
              grid: Optional[HierarchicalGrid] = None,
              fanout: int = 256,
              use_interior: bool = True,
              max_cells_per_polygon: Optional[int] = None) -> "ACTIndex":
        """Build an index guaranteeing ``precision_meters``.

        ``grid`` defaults to a :class:`~repro.grid.planar.PlanarGrid`
        fitted to the polygons (exact cell geometry); pass an
        :class:`~repro.grid.s2like.S2LikeGrid` for the paper's spherical
        setup. See :class:`~repro.act.builder.ACTBuilder` for the
        remaining knobs.
        """
        polygons = list(polygons)
        if not polygons:
            raise BuildError("cannot build an index over zero polygons")
        if grid is None:
            grid = PlanarGrid.for_polygons(polygons)
        builder = ACTBuilder(
            grid, fanout=fanout, use_interior=use_interior,
            max_cells_per_polygon=max_cells_per_polygon,
        )
        result: BuildResult = builder.build(polygons, precision_meters)
        return cls(grid, result.core, polygons, result.stats,
                   result.boundary_level)

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------
    @property
    def precision_meters(self) -> float:
        """The precision bound the index was built for."""
        return self.stats.precision_meters

    @property
    def guaranteed_precision_meters(self) -> float:
        """Realized worst-case distance of a false positive, in meters
        (at most :attr:`precision_meters`, usually tighter)."""
        return self.grid.max_diag_meters(self.boundary_level)

    @property
    def num_polygons(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self.polygons)

    @property
    def columns(self) -> PolygonColumns:
        """The polygons as flat ring columns: what the edge table packs
        from and the artifact stores (flattened once for a built index)."""
        if self._columns is None:
            self._columns = PolygonColumns.from_polygons(self.polygons)
        return self._columns

    @property
    def polygons(self) -> List[Polygon]:
        """The polygons as objects, materialised from :attr:`columns` on
        first use for a loaded index. No query path reads them: build,
        the baselines and brute-force oracles do."""
        if self._polygons is None:
            assert self._columns is not None
            self._polygons = self._columns.to_polygons()
        return self._polygons

    @property
    def lookup_table(self) -> LookupTable:
        return self.core.lookup_table

    @property
    def executor(self) -> "JoinExecutor":
        """The columnar join engine bound to this index (cached)."""
        if self._executor is None:
            from ..join.executor import JoinExecutor
            self._executor = JoinExecutor(self)
        return self._executor

    def prewarm(self, edge_table: bool = True) -> "ACTIndex":
        """Build the lazily-constructed hot-path artifacts now.

        Forces the executor (and, when ``edge_table``, the packed edge
        table behind exact refinement) to exist in the calling process.
        Fork-based workers — :mod:`repro.join.parallel` and the serving
        fleet — call this in the parent before forking so children
        inherit the artifacts built (copy-on-write, page-cache-shared
        for mmap-loaded node pools) instead of rebuilding them
        ``workers`` times.
        """
        executor = self.executor
        if edge_table:
            _ = executor.edge_table
        return self

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def query(self, lng: float, lat: float) -> QueryResult:  # repro-lint: hot
        """Classified lookup: separate true hits from candidates."""
        leaf = self.grid.leaf_cell(lng, lat)
        if leaf is None:
            return QueryResult((), ())
        return self.core.decode_entry(self.core.lookup_entry(leaf))

    def query_approx(self, lng: float, lat: float) -> Tuple[int, ...]:
        """Approximate join: all referenced polygon ids, no refinement.

        False positives lie within :attr:`guaranteed_precision_meters`
        of their reported polygon — the paper's headline operation.
        """
        return self.query(lng, lat).all_ids

    def query_exact(self, lng: float, lat: float) -> Tuple[int, ...]:
        """Exact join: candidates are refined with point-in-polygon tests.

        True hits skip refinement entirely (the true-hit-filtering
        speedup); only boundary-cell matches pay for a PIP test, through
        the packed-edge engine every exact path shares.
        """
        result = self.query(lng, lat)
        if not result.candidates:
            return result.true_hits
        ids = np.asarray(result.candidates, dtype=np.int64)
        inside = self.executor.refine_pairs(
            np.zeros(ids.shape[0], dtype=np.int64), ids,
            np.asarray([lng], dtype=np.float64),
            np.asarray([lat], dtype=np.float64))
        return result.true_hits + tuple(compress(result.candidates,
                                                 inside.tolist()))

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------
    def lookup_batch(self, lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Encoded entries for a batch of points (see
        :meth:`~repro.act.core.ACTCore.lookup_entries`)."""
        cells = self.grid.leaf_cells_batch(
            np.asarray(lngs, dtype=np.float64),
            np.asarray(lats, dtype=np.float64),
        )
        return self.core.lookup_entries(cells)

    def query_batch(self, lngs: np.ndarray, lats: np.ndarray,  # repro-lint: hot
                    ) -> List[QueryResult]:
        """Per-point classified results for a batch (convenience API)."""
        decode = self.core.decode_entry
        return [decode(int(e)) for e in self.lookup_batch(lngs, lats)]

    def count_points(self, lngs: np.ndarray, lats: np.ndarray,  # repro-lint: hot
                     exact: bool = False, trace=None) -> np.ndarray:
        """Count points per polygon — the paper's evaluation workload.

        With ``exact=False`` this is the pure approximate join (true hits
        plus candidates, zero PIP tests). With ``exact=True`` candidates
        are refined against the actual polygons, giving exact counts while
        still skipping refinement for every true hit. Both paths run
        through the columnar :class:`~repro.join.executor.JoinExecutor`,
        which stamps per-stage timings into ``trace`` when given one.
        """
        return self.executor.count_points(lngs, lats, exact=exact,
                                          trace=trace)

    # ------------------------------------------------------------------
    # Entry decoding
    # ------------------------------------------------------------------
    def decode_entry(self, entry: int) -> QueryResult:  # repro-lint: hot
        """Decode one encoded entry (as produced by :meth:`lookup_batch`)
        into a classified :class:`QueryResult`."""
        return self.core.decode_entry(entry)

    def memory_report(self) -> dict:
        """Size breakdown in bytes (C++-layout accounting, like Table I)."""
        return {
            "trie_bytes": self.core.size_bytes,
            "trie_nodes": self.core.num_nodes,
            "lookup_table_bytes": self.core.lookup_table.size_bytes,
            "total_bytes": self.core.total_bytes,
            "indexed_cells": self.stats.indexed_cells,
        }

    def __repr__(self) -> str:
        return (
            f"ACTIndex({self.num_polygons} polygons, "
            f"precision={self.precision_meters:g} m, "
            f"grid={self.grid.name}, fanout={self.core.fanout}, "
            f"cells={self.stats.indexed_cells:,})"
        )
