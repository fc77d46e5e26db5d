"""Tests for index introspection — the paper's structural claims."""


from repro.act.analysis import (
    interior_area_fraction,
    level_histogram,
    node_occupancy,
    summarize,
)
from repro.act.core import ACTCore
from repro.grid.coverer import RegionCoverer


def _empty_core() -> ACTCore:
    return ACTCore.from_cells((), (), (), 256)


class TestLevelHistogram:
    def test_totals_match_entries(self, nyc_index):
        histogram = level_histogram(nyc_index.core)
        total = sum(t + c for t, c in histogram.values())
        assert total == nyc_index.core.num_entries

    def test_boundary_slots_at_deepest_levels(self, nyc_index):
        """Candidate cells concentrate at/near the precision level."""
        histogram = level_histogram(nyc_index.core)
        deepest = max(histogram)
        _, cand_deepest = histogram[deepest]
        assert cand_deepest > 0
        assert deepest >= nyc_index.boundary_level

    def test_interior_cells_at_coarse_levels(self, nyc_index):
        histogram = level_histogram(nyc_index.core)
        coarse_true = sum(
            t for level, (t, _) in histogram.items()
            if level < nyc_index.boundary_level
        )
        assert coarse_true > 0

    def test_empty_core(self):
        assert level_histogram(_empty_core()) == {}


class TestNodeOccupancy:
    def test_sparse_fanout_256(self, nyc_index):
        """Paper: fanout 256 nodes are sparsely occupied."""
        stats = node_occupancy(nyc_index.core)
        assert stats["nodes"] == nyc_index.core.num_nodes
        assert 0 < stats["mean"] <= 256
        assert stats["occupancy"] < 0.9

    def test_empty_core(self):
        stats = node_occupancy(_empty_core())
        assert stats["nodes"] == 0


class TestInteriorAreaFraction:
    def test_majority_of_interior_covered(self, nyc_index, nyc_polygons):
        """The paper's headline structural claim."""
        coverer = RegionCoverer(nyc_index.grid)
        polygon = nyc_polygons[0]
        covering = coverer.cover(polygon, nyc_index.boundary_level)
        fraction = interior_area_fraction(covering, polygon, nyc_index.grid)
        assert fraction > 0.5

    def test_finer_boundary_more_interior(self, nyc_index, nyc_polygons):
        coverer = RegionCoverer(nyc_index.grid)
        polygon = nyc_polygons[1]
        coarse = coverer.cover(polygon, 8)
        fine = coverer.cover(polygon, 12)
        f_coarse = interior_area_fraction(coarse, polygon, nyc_index.grid)
        f_fine = interior_area_fraction(fine, polygon, nyc_index.grid)
        assert f_fine >= f_coarse


class TestSummarize:
    def test_summary_fields(self, nyc_index):
        summary = summarize(nyc_index)
        assert summary["indexed_cells"] == nyc_index.stats.indexed_cells
        assert 0.0 <= summary["true_slot_fraction"] <= 1.0
        assert summary["boundary_level"] == nyc_index.boundary_level
        assert summary["bytes_per_indexed_cell"] > 0
        assert summary["levels"] == sorted(summary["levels"])

    def test_partition_mostly_true_slots_area_wise(self, nyc_index):
        """On a partition most indexed *slots* near the boundary are
        candidates, but true slots must exist at coarse levels."""
        summary = summarize(nyc_index)
        assert summary["coarse_true_slots"] > 0
