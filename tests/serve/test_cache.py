"""Tests for the cell-keyed LRU result cache and its admission rule.

Includes the correctness property the cache relies on: ACT answers are
constant within a boundary-level grid cell.
"""

import random
import sys
import threading
import tracemalloc

import numpy as np

from repro.act.index import QueryResult
from repro.grid import cellid
from repro.serve import CellResultCache


def _result(*ids):
    return QueryResult(tuple(ids), ())


def _admit(cache, key, result):
    """Put ``key`` twice: the second put within the doorkeeper's window
    caches it."""
    cache.put(key, result)
    cache.put(key, result)


class TestLRUBehavior:
    def test_get_miss_then_hit(self):
        cache = CellResultCache(capacity=4)
        key = ("idx", 1, 123)
        assert cache.get(key) is None
        _admit(cache, key, _result(1))
        assert cache.get(key) == _result(1)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.rejected == 1

    def test_eviction_drops_least_recently_used(self):
        cache = CellResultCache(capacity=2)
        _admit(cache, ("i", 1, 1), _result(1))
        _admit(cache, ("i", 1, 2), _result(2))
        cache.get(("i", 1, 1))          # 1 becomes most recent
        _admit(cache, ("i", 1, 3), _result(3))  # evicts 2
        assert cache.get(("i", 1, 2)) is None
        assert cache.get(("i", 1, 1)) == _result(1)
        assert cache.get(("i", 1, 3)) == _result(3)
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_zero_capacity_disables(self):
        cache = CellResultCache(capacity=0)
        cache.put(("i", 1, 1), _result(1))
        assert cache.get(("i", 1, 1)) is None
        assert len(cache) == 0

    def test_invalidate_index_only_touches_that_index(self):
        cache = CellResultCache(capacity=8)
        _admit(cache, ("a", 1, 1), _result(1))
        _admit(cache, ("a", 1, 2), _result(2))
        _admit(cache, ("b", 1, 1), _result(3))
        assert cache.invalidate_index("a") == 2
        assert cache.get(("b", 1, 1)) == _result(3)
        assert cache.get(("a", 1, 1)) is None

    def test_invalidate_keep_generation_spares_new_entries(self):
        cache = CellResultCache(capacity=8)
        _admit(cache, ("a", 1, 10), _result(1))
        _admit(cache, ("a", 1, 11), _result(2))
        _admit(cache, ("a", 2, 10), _result(9))  # the reloaded generation
        _admit(cache, ("b", 1, 10), _result(3))
        # a reload sweeps every stale generation of "a" but keeps what
        # generation 2 already warmed (and other indexes untouched)
        assert cache.invalidate_index("a", keep_generation=2) == 2
        assert cache.get(("a", 2, 10)) == _result(9)
        assert cache.get(("a", 1, 10)) is None
        assert cache.get(("b", 1, 10)) == _result(3)
        assert cache.stats()["invalidations"] == 2

    def test_stats_shape(self):
        cache = CellResultCache(capacity=2)
        _admit(cache, ("i", 1, 1), _result(1))
        cache.get(("i", 1, 1))
        cache.get(("i", 1, 9))
        stats = cache.stats()
        assert set(stats) == {"capacity", "size", "hits", "misses",
                              "evictions", "invalidations", "rejected",
                              "hit_rate"}
        assert stats["size"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["rejected"] == 1
        assert stats["hit_rate"] == 0.5


class TestAdmission:
    """Second-hit admission. Counts only: which keys are cached, how
    many were rejected, evicted or allocated — nothing is timed."""

    CAPACITY = 1024

    def test_one_hit_keys_never_fill_or_evict(self):
        # a cyclic sequence twice the capacity: under plain LRU every
        # replay misses and evicts every slot; each key's previous put
        # is two windows back, so only doorkeeper false admits enter
        cache = CellResultCache(capacity=self.CAPACITY)
        keys = [("i", 1, cell) for cell in range(2 * self.CAPACITY)]
        for _ in range(3):
            for key in keys:
                if cache.get(key) is None:
                    cache.put(key, _result(key[2]))
        assert len(cache) <= self.CAPACITY // 16
        assert cache.evictions == 0
        assert cache.rejected >= 3 * len(keys) - self.CAPACITY // 16

    def test_false_admits_stay_under_one_percent(self):
        # never-repeating keys: every admit is a doorkeeper false
        # positive (expected ~0.3 %)
        cache = CellResultCache(capacity=4096)
        first_misses = 8 * 4096
        for cell in range(first_misses):
            cache.put(("i", 1, cell), _result(cell))
        assert len(cache) == first_misses - cache.rejected
        assert len(cache) <= first_misses // 100

    def test_key_put_twice_within_the_window_is_cached(self):
        cache = CellResultCache(capacity=self.CAPACITY)
        key = ("i", 1, -1)
        cache.put(key, _result(1))
        assert cache.get(key) is None
        # the window holds ``capacity`` rejections, this key's included
        for cell in range(self.CAPACITY - 1):
            cache.put(("i", 1, cell), _result(cell))
        cache.put(key, _result(1))
        assert cache.get(key) == _result(1)

    def test_key_older_than_the_window_is_not_cached(self):
        cache = CellResultCache(capacity=self.CAPACITY)
        key = ("i", 1, -1)
        cache.put(key, _result(1))
        cell = 0
        while cache.rejected <= self.CAPACITY:  # one rejection past
            cache.put(("i", 1, cell), _result(cell))
            cell += 1
        rejected = cache.rejected
        cache.put(key, _result(1))
        assert cache.get(key) is None
        assert cache.rejected == rejected + 1

    def test_known_key_is_rewritten_and_refreshed(self):
        cache = CellResultCache(capacity=2)
        _admit(cache, ("i", 1, 1), _result(1))
        _admit(cache, ("i", 1, 2), _result(2))
        cache.put(("i", 1, 1), _result(1, 1))  # one put: already cached
        _admit(cache, ("i", 1, 3), _result(3))  # evicts 2, not 1
        assert cache.get(("i", 1, 1)) == _result(1, 1)
        assert cache.get(("i", 1, 2)) is None

    def test_zero_capacity_allocates_no_doorkeeper(self):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            disabled = CellResultCache(capacity=0)
            small = tracemalloc.get_traced_memory()[0] - start
            sized = CellResultCache(capacity=65536)
            large = tracemalloc.get_traced_memory()[0] - start - small
        finally:
            tracemalloc.stop()
        # an OrderedDict and a few counters, against 4 bytes a slot
        assert small < 4096
        assert 65536 * 4 <= large < 65536 * 4 + 4096
        disabled.put(("i", 1, 1), _result(1))
        disabled.put(("i", 1, 1), _result(1))
        assert disabled.get(("i", 1, 1)) is None
        assert disabled.stats()["rejected"] == 0 and len(sized) == 0

    def test_clear_resets_the_doorkeeper(self):
        cache = CellResultCache(capacity=self.CAPACITY)
        key = ("i", 1, 5)
        cache.put(key, _result(5))
        cache.clear()
        # after a clear the key is new again: one put is not enough
        cache.put(key, _result(5))
        assert cache.get(key) is None
        cache.put(key, _result(5))
        assert cache.get(key) == _result(5)

    def test_invalidate_index_leaves_the_doorkeeper(self):
        cache = CellResultCache(capacity=self.CAPACITY)
        key = ("a", 1, 5)
        _admit(cache, key, _result(5))
        assert cache.invalidate_index("a") == 1
        # the key's bits are still set: its next put re-admits it
        cache.put(key, _result(5))
        assert cache.get(key) == _result(5)


class TestConcurrent:
    """The cache takes no lock: hammer every method from more threads
    than cores under the shortest switch interval and hold it to what
    its docstring promises. Puts come singly (the doorkeeper's
    read-modify-write races) and in pairs (admissions, so the map fills
    and evicts). Operation counts only — nothing is timed."""

    CAPACITY = 32
    THREADS = 8
    OPS = 4000

    def _worker(self, cache, seed, tally, failures):
        rng = random.Random(seed)
        keys = [("i", generation, cell)
                for generation in (1, 2)
                for cell in range(2 * self.CAPACITY)]  # 4x the capacity
        bound = self.CAPACITY + self.THREADS
        try:
            for _ in range(self.OPS):
                op = rng.random()
                key = rng.choice(keys)
                if op < 0.45:
                    tally["gets"] += 1
                    got = cache.get(key)
                    # a value encodes the one key it is ever put under
                    assert got is None or got.true_hits == key[1:], key
                elif op < 0.90:
                    for _ in range(1 + (op < 0.80)):
                        tally["puts"] += 1
                        cache.put(key, QueryResult(key[1:], ()))
                elif op < 0.93:
                    cache.invalidate_index(
                        "i", keep_generation=rng.choice((1, 2)))
                elif op < 0.96:
                    by_generation = cache.entries_by_generation()
                    assert set(by_generation) <= {("i", 1), ("i", 2)}
                    assert sum(by_generation.values()) <= bound
                else:
                    assert cache.stats()["size"] <= bound
                assert len(cache) <= bound
        except BaseException as failure:  # reported by the main thread
            failures.append(failure)
            raise

    def test_hammer(self):
        cache = CellResultCache(capacity=self.CAPACITY)
        tallies = [{"gets": 0, "puts": 0} for _ in range(self.THREADS)]
        failures = []
        threads = [
            threading.Thread(target=self._worker,
                             args=(cache, seed, tallies[seed], failures))
            for seed in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        # at quiescence one more write (a second put) leaves the map
        # within capacity
        for _ in range(2):
            cache.put(("i", 1, -1), QueryResult((1, -1), ()))
        assert len(cache) <= self.CAPACITY
        stats = cache.stats()
        gets = sum(tally["gets"] for tally in tallies)
        puts = sum(tally["puts"] for tally in tallies)
        # plain += counters may lose an increment, never gain one
        assert stats["hits"] + stats["misses"] <= gets
        assert stats["rejected"] + stats["size"] <= puts + 2
        assert stats["hits"] > 0 and stats["misses"] > 0
        assert stats["evictions"] > 0 and stats["invalidations"] > 0
        assert stats["rejected"] > 0


class TestCellConstancy:
    """The invariant that justifies keying results by boundary-level cell:
    every point whose leaf cell shares a boundary-level ancestor gets an
    identical classified answer."""

    def test_results_constant_within_boundary_cell(self, nyc_index, rng_serve):
        grid = nyc_index.grid
        level = nyc_index.boundary_level
        # clustered points so many share a boundary-level cell
        centers = rng_serve.uniform(
            [grid.bounds.min_x, grid.bounds.min_y],
            [grid.bounds.max_x, grid.bounds.max_y],
            size=(20, 2),
        )
        by_cell = {}
        for cx, cy in centers:
            for _ in range(25):
                lng = float(np.clip(cx + rng_serve.normal(0, 1e-3),
                                    grid.bounds.min_x, grid.bounds.max_x))
                lat = float(np.clip(cy + rng_serve.normal(0, 1e-3),
                                    grid.bounds.min_y, grid.bounds.max_y))
                leaf = grid.leaf_cell(lng, lat)
                if leaf is None:
                    continue
                key = cellid.parent(leaf, level)
                by_cell.setdefault(key, []).append(
                    nyc_index.query(lng, lat))
        shared = [results for results in by_cell.values() if len(results) > 1]
        assert shared, "workload produced no co-located points"
        for results in shared:
            assert all(r == results[0] for r in results)
