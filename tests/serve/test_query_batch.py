"""Tests of the batched serving path (service.query_batch)."""

import numpy as np
import pytest

from repro.errors import BudgetExceededError, UnknownIndexError
from repro.grid.base import INVALID_KEY
from repro.obs import Trace
from repro.serve import ACTService, Budget, ServeConfig


@pytest.fixture()
def service(nyc_index):
    svc = ACTService()
    svc.registry.register_index("nyc", nyc_index)
    yield svc
    svc.close()


class TestQueryBatch:
    def test_matches_scalar_path(self, service, query_points,
                                 serial_results):
        lngs, lats = query_points
        results = service.query_batch("nyc", lngs, lats)
        assert results == serial_results

    def test_exact_matches_scalar_exact(self, service, nyc_index,
                                        query_points):
        lngs, lats = query_points
        results = service.query_batch("nyc", lngs, lats, exact=True)
        for k, result in enumerate(results):
            want = nyc_index.query_exact(float(lngs[k]), float(lats[k]))
            assert result.true_hits == want
            assert result.candidates == ()

    def test_out_of_domain_points_miss(self, service):
        results = service.query_batch(
            "nyc", [-120.0, -73.97], [40.7, 40.75])
        assert results[0].is_hit is False
        assert results[0].true_hits == () and results[0].candidates == ()

    def test_populates_shared_cache(self, service, query_points):
        lngs, lats = query_points
        # a cell is cached on its second miss: the second batch admits
        for _ in range(2):
            service.query_batch("nyc", lngs, lats)
        before = service.cache.hits
        # the scalar path must now hit the cells the batch cached
        service.query("nyc", float(lngs[0]), float(lats[0]))
        assert service.cache.hits == before + 1

    def test_second_batch_served_from_cache(self, service, query_points):
        lngs, lats = query_points
        for _ in range(2):  # a miss, then the admitting miss
            service.query_batch("nyc", lngs, lats)
        misses_before = service.cache.misses
        results = service.query_batch("nyc", lngs, lats)
        assert service.cache.misses == misses_before  # zero new misses
        assert len(results) == len(lngs)

    def test_unknown_index(self, service):
        with pytest.raises(UnknownIndexError):
            service.query_batch("nope", [0.0], [0.0])

    def test_spent_budget_sheds_batch(self, service, query_points):
        lngs, lats = query_points
        budget = Budget.from_ms(0.000001)
        import time

        time.sleep(0.01)
        with pytest.raises(BudgetExceededError):
            service.query_batch("nyc", lngs, lats, budget=budget)

    def test_metrics_count_points(self, nyc_index, query_points):
        svc = ACTService(config=ServeConfig(cache_capacity=0))
        svc.registry.register_index("nyc", nyc_index)
        try:
            lngs, lats = query_points
            svc.query_batch("nyc", lngs, lats)
            snapshot = svc.metrics.snapshot()
            assert snapshot["counters"]["queries.total"] == len(lngs)
        finally:
            svc.close()

    def test_empty_batch(self, service):
        assert service.query_batch("nyc", [], []) == []


class TestStages:
    """A traced batch reports the stage names the e2e ledger fixes in
    ``benchmarks/e2e/actbench/spans.py``, in the order they run."""

    def _stages(self, service, points, exact):
        trace = Trace("t", kind="query_batch")
        service.query_batch("nyc", *points, exact=exact, trace=trace)
        return [name for name, _seconds in trace.stages]

    def test_cold_exact_batch_lists_every_stage(self, service,
                                                query_points):
        assert self._stages(service, query_points, exact=True) == [
            "admission", "cell_key", "cache_probe", "leaf_cells",
            "descent", "entry_decode", "cache_put", "refine"]

    def test_hot_batch_stops_after_the_probe(self, service, query_points):
        for _ in range(2):
            service.query_batch("nyc", *query_points)
        assert self._stages(service, query_points, exact=False) == [
            "admission", "cell_key", "cache_probe"]


class TestCounters:
    def test_out_of_domain_and_misses_counted_once_each(
            self, service, nyc_index, query_points):
        lngs = np.concatenate([np.full(7, -120.0), query_points[0]])
        lats = np.concatenate([np.full(7, 40.7), query_points[1]])
        keys = nyc_index.grid.point_keys(lngs, lats,
                                         nyc_index.boundary_level)
        outside = int((keys == INVALID_KEY).sum())
        inside = len(lngs) - outside
        assert outside >= 7 and inside > 300

        def counters():
            return service.metrics.snapshot()["counters"]

        # cold: every in-domain point is a miss, repeats of a cell too
        service.query_batch("nyc", lngs, lats)
        assert counters()["queries.out_of_domain"] == outside
        assert counters()["queries.batched_misses"] == inside
        assert counters().get("queries.cache_hits", 0) == 0
        # the second batch admits its cells (a doorkeeper false admit
        # of the first may already hit); each point is counted once
        service.query_batch("nyc", lngs, lats)
        assert counters()["queries.out_of_domain"] == 2 * outside
        misses = counters()["queries.batched_misses"]
        assert (misses + counters().get("queries.cache_hits", 0)
                == 2 * inside)
        # hot: the same batch again moves only the other two
        service.query_batch("nyc", lngs, lats)
        assert counters()["queries.out_of_domain"] == 3 * outside
        assert counters()["queries.batched_misses"] == misses
        assert counters()["queries.cache_hits"] == 3 * inside - misses
        assert counters()["queries.total"] == 3 * len(lngs)
        assert (service.cache.hits, service.cache.misses) == (
            3 * inside - misses, misses)
