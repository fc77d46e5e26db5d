"""Tests for ACTBuilder pipeline pieces and stats."""

import pytest

from repro.act.builder import ACTBuilder
from repro.errors import BuildError
from repro.grid.planar import PlanarGrid


@pytest.fixture(scope="module")
def builder(nyc_polygons):
    grid = PlanarGrid.for_polygons(nyc_polygons)
    return ACTBuilder(grid)


class TestBoundaryLevel:
    def test_monotone_in_precision(self, builder):
        levels = [builder.boundary_level_for(p) for p in (500, 120, 30, 8)]
        assert levels == sorted(levels)

    def test_matches_grid_level(self, builder):
        level = builder.boundary_level_for(60.0)
        assert builder.grid.max_diag_meters(level) <= 60.0

    def test_too_fine_precision_raises(self, builder):
        # fanout-256 tries index up to level 28; sub-millimeter precision
        # on a city-scale grid needs deeper levels
        with pytest.raises(Exception):
            builder.boundary_level_for(1e-7)


class TestBuildResult:
    def test_timings_populated(self, nyc_polygons, builder):
        result = builder.build(nyc_polygons[:4], precision_meters=300.0)
        stats = result.stats
        assert stats.build_coverings_seconds > 0
        assert stats.build_super_seconds > 0
        assert stats.build_trie_seconds > 0
        assert stats.raw_cells == stats.raw_boundary_cells + \
            stats.raw_interior_cells
        assert stats.raw_cells == sum(c.num_cells for c in result.coverings)

    def test_super_covering_prefix_free(self, nyc_polygons, builder):
        result = builder.build(nyc_polygons[:4], precision_meters=300.0)
        result.super_covering.validate_prefix_free()

    def test_indexed_cells_at_least_raw(self, nyc_polygons, builder):
        """Denormalization only replicates; indexed >= pre-denorm cells."""
        result = builder.build(nyc_polygons[:4], precision_meters=300.0)
        assert result.stats.indexed_cells >= result.super_covering.num_cells

    def test_table_row_columns(self, nyc_polygons, builder):
        result = builder.build(nyc_polygons[:3], precision_meters=300.0)
        row = result.stats.as_table_row()
        assert set(row) == {
            "precision [m]", "indexed cells [M]", "ACT [MB]",
            "lookup table [MB]", "build individual coverings [s]",
            "build super covering [s]",
        }

    def test_zero_polygons_raises(self, builder):
        with pytest.raises(BuildError):
            builder.build([], precision_meters=60.0)


class TestLookupTableUsage:
    def test_partition_rarely_needs_table(self, nyc_polygons, builder):
        """Disjoint partitions mostly inline 1-2 refs (paper: 'In most
        cases, cells reference one or two polygons')."""
        result = builder.build(nyc_polygons, precision_meters=300.0)
        assert result.core.lookup_table.size_bytes <= \
            0.05 * result.core.size_bytes

    def test_overlaps_populate_table(self, overlap_polygons):
        grid = PlanarGrid.for_polygons(overlap_polygons)
        result = ACTBuilder(grid).build(overlap_polygons,
                                        precision_meters=300.0)
        assert result.core.lookup_table.num_unique_sets > 0
