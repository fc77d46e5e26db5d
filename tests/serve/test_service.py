"""Tests for the full serving stack (cache + descent + budget)."""

import numpy as np
import pytest

from repro.errors import BudgetExceededError, UnknownIndexError
from repro.grid.base import INVALID_KEY
from repro.serve import ACTService, Budget, ServeConfig


@pytest.fixture()
def service(nyc_index):
    svc = ACTService()
    svc.registry.register_index("nyc", nyc_index)
    with svc:
        yield svc


class TestQueryPath:
    def test_matches_serial_baseline(self, service, nyc_index, query_points,
                                     serial_results):
        lngs, lats = query_points
        for lng, lat, expected in zip(lngs, lats, serial_results):
            assert service.query("nyc", lng, lat) == expected

    def test_repeat_query_hits_cache(self, service):
        # the first miss is remembered, the second cached
        for _ in range(2):
            service.query("nyc", -73.97, 40.75)
        before = service.metrics.counter("queries.cache_hits").value
        service.query("nyc", -73.97, 40.75)
        assert service.metrics.counter("queries.cache_hits").value == before + 1

    def test_hot_cells_survive_a_one_hit_scan(self, nyc_index, rng_serve):
        # a scan of twice the capacity in distinct cells, each missed
        # once: under plain LRU it evicts every hot cell; with
        # second-hit admission it never enters the cache
        capacity = 256
        grid, level = nyc_index.grid, nyc_index.boundary_level
        hot_lngs, hot_lats = [-73.97, -73.95, -73.99], [40.75, 40.72, 40.70]
        hot_keys = set(grid.point_keys(np.asarray(hot_lngs),
                                       np.asarray(hot_lats), level).tolist())
        lngs = rng_serve.uniform(grid.bounds.min_x, grid.bounds.max_x, 8192)
        lats = rng_serve.uniform(grid.bounds.min_y, grid.bounds.max_y, 8192)
        keys = grid.point_keys(lngs, lats, level).tolist()
        first = {}
        for k, key in enumerate(keys):
            if key != int(INVALID_KEY) and key not in hot_keys:
                first.setdefault(key, k)
        scan = np.asarray(list(first.values())[:2 * capacity])
        assert scan.shape[0] == 2 * capacity
        svc = ACTService(config=ServeConfig(cache_capacity=capacity))
        svc.registry.register_index("nyc", nyc_index)
        with svc:
            for _ in range(2):
                svc.query_batch("nyc", hot_lngs, hot_lats)
            for k in scan.tolist():
                svc.query("nyc", float(lngs[k]), float(lats[k]))
            hits = svc.cache.hits
            svc.query_batch("nyc", hot_lngs, hot_lats)
            assert svc.cache.hits == hits + len(hot_lngs)
            assert svc.cache.stats()["evictions"] == 0

    def test_exact_mode_matches_query_exact(self, service, nyc_index,
                                            query_points):
        lngs, lats = query_points
        for lng, lat in zip(lngs[:100], lats[:100]):
            served = service.query("nyc", lng, lat, exact=True)
            assert served.candidates == ()
            assert sorted(served.true_hits) == sorted(
                nyc_index.query_exact(lng, lat))

    def test_exact_mode_correct_after_cache_hit(self, service, nyc_index,
                                                query_points):
        # cached cell results are classified; exact refinement must still
        # run per point on top of them
        lngs, lats = query_points
        for lng, lat in zip(lngs[:50], lats[:50]):
            service.query("nyc", lng, lat)  # populate cache
            served = service.query("nyc", lng, lat, exact=True)
            assert sorted(served.true_hits) == sorted(
                nyc_index.query_exact(lng, lat))

    def test_out_of_domain_is_empty(self, service):
        result = service.query("nyc", 100.0, -45.0)
        assert not result.is_hit

    def test_unknown_index(self, service):
        with pytest.raises(UnknownIndexError):
            service.query("missing", -73.97, 40.75)
        # unknown indexes count as errors in /stats, not silent misses
        assert service.metrics.counter("queries.errors").value >= 1

    def test_query_batch_length_mismatch_rejected(self, service):
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError):
            service.query_batch("nyc", [-73.97, -74.0], [40.75])
        with pytest.raises(InvalidRequestError):
            service.query_batch("nyc", [[-73.97, -74.0]], [[40.75, 40.7]])
        # rejected floods are visible to operators, without polluting
        # the per-point total/error counters (the point count is bogus)
        assert service.metrics.counter("queries.invalid").value == 2
        assert service.metrics.counter("queries.errors").value == 0

    def test_adopted_generation_rewarms_and_invalidates(self, nyc_polygons,
                                                         tmp_path):
        from repro import ACTIndex
        from repro.act.serialize import save_index

        old_index = ACTIndex.build(nyc_polygons, precision_meters=300.0)
        save_index(old_index, tmp_path / "n.npz")
        svc = ACTService()
        svc.registry.register_index("n", old_index)
        with svc:
            first = svc.query("n", -73.97, 40.75)
            svc.registry.adopt("n", tmp_path / "n.npz", 2)
            # the next query sees the registry's new record, drops stale
            # cache entries, and pins the fresh instance
            assert svc.query("n", -73.97, 40.75) == first
            new_index = svc.registry.get("n")
            assert new_index is not old_index
            assert svc._hot["n"][0].index is new_index
            # the new generation rotates the cache keyspace
            assert svc._hot["n"][0].generation == 2


    def test_join_follows_hot_view_after_adopt(self, nyc_polygons,
                                               query_points, tmp_path):
        # joins must resolve through the same pinned view as point
        # queries: after the registry adopts a new generation both paths
        # (and the cache) agree on one instance
        import numpy as np

        from repro import ACTIndex
        from repro.act.serialize import save_index

        old_index = ACTIndex.build(nyc_polygons, precision_meters=300.0)
        save_index(old_index, tmp_path / "n.npz")
        svc = ACTService()
        svc.registry.register_index("n", old_index)
        lngs, lats = query_points
        with svc:
            baseline = svc.join("n", lngs, lats)
            svc.registry.adopt("n", tmp_path / "n.npz", 2)
            counts = svc.join("n", lngs, lats)
            np.testing.assert_array_equal(counts, baseline)
            new_index = svc.registry.get("n")
            assert new_index is not old_index
            # the join re-warmed the pinned view itself — point queries
            # and the cache now share the instance the join ran against
            assert svc._hot["n"][0].index is new_index
            assert svc.query("n", -73.97, 40.75) == new_index.query(
                -73.97, 40.75)


class TestBudgets:
    def test_spent_budget_is_shed(self, service):
        with pytest.raises(BudgetExceededError):
            service.query("nyc", -73.97, 40.75, budget=Budget(-1.0))
        # load shedding is the service doing its job: it must count as a
        # shed, never as an error, or deadline pressure looks like failure
        assert service.metrics.counter("queries.shed").value == 1
        assert service.metrics.counter("queries.errors").value == 0

    def test_batch_shed_counts_whole_batch(self, service):
        with pytest.raises(BudgetExceededError):
            service.query_batch("nyc", [-73.97, -74.0], [40.75, 40.7],
                                budget=Budget(-1.0))
        assert service.metrics.counter("queries.shed").value == 2
        assert service.metrics.counter("queries.errors").value == 0

    def test_default_budget_from_config(self, nyc_index):
        svc = ACTService(config=ServeConfig(default_budget_ms=-1.0))
        svc.registry.register_index("nyc", nyc_index)
        with svc:
            with pytest.raises(BudgetExceededError):
                svc.query("nyc", -73.97, 40.75)


class TestMissRouting:
    def test_every_scalar_miss_answers_inline(self, nyc_index,
                                              query_points):
        svc = ACTService()
        svc.registry.register_index("nyc", nyc_index)
        lngs, lats = query_points
        with svc:
            for lng, lat in zip(lngs[:50], lats[:50]):
                svc.query("nyc", lng, lat)
            # a tight (unspent) budget takes the same path as no budget
            result = svc.query("nyc", -73.97, 40.75, budget=Budget(0.020))
            assert result == nyc_index.query(-73.97, 40.75)
            counters = svc.stats()["metrics"]["counters"]
            # queries.inline_miss counts every scalar cache miss
            assert counters["queries.inline_miss"] > 0
            assert (counters["queries.inline_miss"]
                    + counters["queries.cache_hits"]
                    + counters["queries.out_of_domain"]) == 51

    def test_concurrent_scalar_misses_match_serial(self, nyc_index,
                                                   query_points,
                                                   serial_results):
        import threading

        # no cache: every one of the 4 threads' queries is a miss
        svc = ACTService(config=ServeConfig(cache_capacity=0))
        svc.registry.register_index("nyc", nyc_index)
        lngs, lats = query_points
        requests = list(zip(lngs, lats, serial_results))
        mismatches = []
        errors = []

        def worker(offset):
            for lng, lat, expected in requests[offset::4]:
                try:
                    if svc.query("nyc", lng, lat) != expected:
                        mismatches.append((lng, lat))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

        with svc:
            before = set(threading.enumerate())
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert not mismatches
            # misses were served on the callers' own threads: the
            # service started none
            assert set(threading.enumerate()) <= before


class TestJoin:
    def test_join_matches_count_points(self, service, nyc_index,
                                       query_points):
        import numpy as np

        lngs, lats = query_points
        served = service.join("nyc", lngs, lats)
        np.testing.assert_array_equal(
            served, nyc_index.count_points(lngs, lats))
        served_exact = service.join("nyc", lngs, lats, exact=True)
        np.testing.assert_array_equal(
            served_exact, nyc_index.count_points(lngs, lats, exact=True))

    def test_join_budget_admission(self, service, query_points):
        lngs, lats = query_points
        with pytest.raises(BudgetExceededError):
            service.join("nyc", lngs, lats, budget=Budget(-1.0))
        # a shed join is a shed like any other: counted per point, never
        # as an error or a completed join
        counter = service.metrics.counter
        assert counter("queries.shed").value == len(lngs)
        assert counter("queries.errors").value == 0
        assert counter("joins.total").value == 0

    def test_shed_join_reaches_slowlog(self, nyc_index, query_points):
        lngs, lats = query_points
        svc = ACTService(config=ServeConfig(slow_query_ms=1e-6))
        svc.registry.register_index("nyc", nyc_index)
        with svc:
            with pytest.raises(BudgetExceededError):
                svc.join("nyc", lngs, lats, budget=Budget(-1.0),
                         request_id="shed-join")
            (entry,) = svc.slowlog.entries()
        assert entry["kind"] == "join" and entry["shed"] is True
        assert entry["num_points"] == len(lngs)
        assert entry["request_id"] == "shed-join"

    def test_join_errors_are_counted(self, service, query_points):
        lngs, lats = query_points
        with pytest.raises(UnknownIndexError):
            service.join("missing", lngs, lats)
        assert service.metrics.counter("queries.errors").value == len(lngs)
        assert service.metrics.counter("queries.shed").value == 0

    def test_join_length_mismatch_rejected(self, service):
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError):
            service.join("nyc", [-73.9, -73.95], [40.7])
        with pytest.raises(InvalidRequestError):
            service.join("nyc", [[-73.9, -73.95]], [[40.7, 40.71]])
        counter = service.metrics.counter
        assert counter("queries.invalid").value == 2
        assert counter("joins.points").value == 0
        assert counter("queries.errors").value == 0


class TestStats:
    def test_stats_shape(self, service, query_points):
        lngs, lats = query_points
        for lng, lat in zip(lngs[:20], lats[:20]):
            service.query("nyc", lng, lat)
        service.join("nyc", lngs, lats)
        stats = service.stats()
        assert stats["indexes"][0]["name"] == "nyc"
        assert stats["cache"]["capacity"] == 65536
        assert stats["metrics"]["counters"]["queries.total"] == 20
        assert stats["metrics"]["counters"]["joins.total"] == 1
        assert stats["metrics"]["histograms"][
            "queries.latency_seconds"]["count"] == 20
        assert 0.0 <= (stats["cache_hit_rate"] or 0.0) <= 1.0
        assert set(stats["config"]) == {
            "cache_capacity", "default_budget_ms", "telemetry",
            "trace_sample_interval", "slow_query_ms"}

    def test_close_is_idempotent(self, nyc_index):
        svc = ACTService()
        svc.registry.register_index("nyc", nyc_index)
        svc.query("nyc", -73.97, 40.75)
        svc.close()
        svc.close()
