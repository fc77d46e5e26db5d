"""Tests for the memory-budgeted adaptive ACT."""

import numpy as np
import pytest

from repro.act.adaptive import AdaptiveACTIndex
from repro.baselines import ScanJoin
from repro.errors import ACTError


@pytest.fixture(scope="module")
def adaptive(nyc_polygons):
    return AdaptiveACTIndex(nyc_polygons[:10], max_cells=4000,
                            target_precision_meters=30.0)


class TestConstruction:
    def test_budget_respected_at_build(self, adaptive):
        assert adaptive.num_cells <= adaptive.max_cells

    def test_too_small_budget_raises(self, nyc_polygons):
        with pytest.raises(ACTError):
            AdaptiveACTIndex(nyc_polygons[:10], max_cells=10)

    def test_size_accounting(self, adaptive):
        assert adaptive.size_bytes == (
            adaptive.core.size_bytes + adaptive.core.lookup_table.size_bytes
        )


class TestExactness:
    def test_exact_queries_match_scan(self, adaptive, nyc_polygons,
                                      taxi_batch):
        lngs, lats = taxi_batch
        scan = ScanJoin(nyc_polygons[:10])
        for k in range(0, 1200, 7):
            got = sorted(adaptive.query_exact(lngs[k], lats[k]))
            assert got == sorted(scan.query(lngs[k], lats[k])), k

    def test_out_of_domain_query(self, adaptive):
        assert adaptive.query_exact(120.0, 10.0) == ()


class TestAdaptation:
    def test_adapt_reduces_refinement_rate(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        index = AdaptiveACTIndex(nyc_polygons[:10], max_cells=6000,
                                 target_precision_meters=30.0)
        before = index.refinement_rate(lngs, lats)
        total_splits = 0
        for _ in range(4):
            total_splits += index.adapt(lngs[:2000], lats[:2000])
        after = index.refinement_rate(lngs, lats)
        assert total_splits > 0
        assert after < before
        assert index.num_cells <= index.max_cells

    def test_exactness_preserved_after_adaptation(self, nyc_polygons,
                                                  taxi_batch):
        lngs, lats = taxi_batch
        index = AdaptiveACTIndex(nyc_polygons[:10], max_cells=6000,
                                 target_precision_meters=30.0)
        index.adapt(lngs[:2000], lats[:2000])
        scan = ScanJoin(nyc_polygons[:10])
        for k in range(0, 1000, 11):
            got = sorted(index.query_exact(lngs[k], lats[k]))
            assert got == sorted(scan.query(lngs[k], lats[k])), k

    def test_adapt_without_candidates_is_noop(self, nyc_polygons):
        index = AdaptiveACTIndex(nyc_polygons[:10], max_cells=6000,
                                 target_precision_meters=30.0)
        # points far outside the domain never hit candidate cells
        lngs = np.full(100, 120.0)
        lats = np.full(100, 10.0)
        assert index.adapt(lngs, lats) == 0

    def test_max_splits_limits_work(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        index = AdaptiveACTIndex(nyc_polygons[:10], max_cells=6000,
                                 target_precision_meters=30.0)
        splits = index.adapt(lngs[:2000], lats[:2000], max_splits=3)
        assert 0 <= splits <= 3

    def test_adapt_rounds_counter(self, nyc_polygons, taxi_batch):
        lngs, lats = taxi_batch
        index = AdaptiveACTIndex(nyc_polygons[:10], max_cells=6000,
                                 target_precision_meters=30.0)
        assert index.adapt_rounds == 0
        if index.adapt(lngs[:2000], lats[:2000]) > 0:
            assert index.adapt_rounds == 1
