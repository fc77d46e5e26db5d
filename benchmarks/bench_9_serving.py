"""Serving benchmark — the service and its cell cache vs the naive loop.

Simulates sustained point-query traffic against one pinned index: a hot
request stream (distinct taxi-like locations, each queried several times,
shuffled — the repeat traffic a serving cache exists for) is answered
four ways:

* **naive loop** — one ``ACTIndex.query`` per request, single caller,
  the pre-serve status quo of every entry point;
* **served, cache off** — concurrent clients through
  :class:`~repro.serve.service.ACTService` with the cell cache disabled
  (every request is a scalar miss: one descent on the client's own
  thread plus the service's per-request overhead);
* **served, cache on** — the full stack, at 1 client and at 8.

Reports sustained qps and p50/p99 per-request latency for each
configuration, plus the cache hit rate; the full stack must beat the
naive loop on sustained throughput (asserted).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import config
from repro.bench.reporting import record_row, record_text
from repro.datasets import points
from repro.serve import ACTService, ServeConfig

_TABLE = "Serving: service + cell cache vs naive per-call loop"
_COLUMNS = ["configuration", "qps", "p50 us", "p99 us", "cache hit rate"]

_NUM_DISTINCT = 2_000
_REPEATS = 25
_NUM_CLIENTS = 8

_STATE = {}


def _request_stream():
    """Hot traffic: distinct locations x repeats, deterministically
    shuffled. Repeat queries on hot cells are what the cell cache
    exploits; the distinct set still spans the whole region."""
    if "requests" not in _STATE:
        distinct = config.bench_points(_NUM_DISTINCT)
        lngs, lats = points.taxi_points(distinct, seed=999)
        lngs = np.tile(lngs, _REPEATS)
        lats = np.tile(lats, _REPEATS)
        order = np.random.default_rng(7).permutation(lngs.size)
        _STATE["requests"] = (lngs[order], lats[order])
    return _STATE["requests"]


def _percentiles_us(latencies):
    arr = np.asarray(latencies, dtype=np.float64) * 1e6
    return round(float(np.percentile(arr, 50)), 1), \
        round(float(np.percentile(arr, 99)), 1)


def test_naive_per_call_loop(benchmark, cache):
    index = cache.get("neighborhoods", 15.0)
    lngs, lats = _request_stream()

    def run():
        latencies = []
        query = index.query
        clock = time.perf_counter
        wall_start = clock()
        for lng, lat in zip(lngs, lats):
            start = clock()
            query(lng, lat)
            latencies.append(clock() - start)
        _STATE["naive"] = (clock() - wall_start, latencies)

    benchmark.pedantic(run, rounds=1, iterations=1)
    wall, latencies = _STATE["naive"]
    qps = lngs.size / wall
    _STATE["naive_qps"] = qps
    p50, p99 = _percentiles_us(latencies)
    record_row(_TABLE, _COLUMNS,
               ["naive per-call loop", round(qps), p50, p99, "-"])


def _run_served(index, lngs, lats, cache_capacity, num_clients):
    service = ACTService(config=ServeConfig(cache_capacity=cache_capacity))
    service.registry.register_index("neighborhoods", index)
    barrier = threading.Barrier(num_clients + 1)

    def client(offset):
        barrier.wait()
        query = service.query
        for lng, lat in zip(lngs[offset::num_clients],
                            lats[offset::num_clients]):
            query("neighborhoods", lng, lat)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(num_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start
    histogram = service.metrics.histogram("queries.latency_seconds")
    p50 = round(histogram.percentile(0.50) * 1e6, 1)
    p99 = round(histogram.percentile(0.99) * 1e6, 1)
    hit_rate = service.cache.hit_rate
    service.close()
    return lngs.size / wall, p50, p99, hit_rate


def test_served_concurrent_misses(benchmark, cache):
    index = cache.get("neighborhoods", 15.0)
    lngs, lats = _request_stream()

    def run():
        _STATE["misses_only"] = _run_served(
            index, lngs, lats, cache_capacity=0, num_clients=_NUM_CLIENTS)

    benchmark.pedantic(run, rounds=1, iterations=1)
    qps, p50, p99, _ = _STATE["misses_only"]
    record_row(_TABLE, _COLUMNS,
               [f"served, cache off: concurrent scalar misses "
                f"({_NUM_CLIENTS} clients)",
                round(qps), p50, p99, "0.00"])


def test_served_one_client(benchmark, cache):
    index = cache.get("neighborhoods", 15.0)
    lngs, lats = _request_stream()

    def run():
        _STATE["one_client"] = _run_served(
            index, lngs, lats, cache_capacity=1 << 20, num_clients=1)

    benchmark.pedantic(run, rounds=1, iterations=1)
    qps, p50, p99, hit_rate = _STATE["one_client"]
    _STATE.setdefault("served_qps", []).append(qps)
    record_row(_TABLE, _COLUMNS,
               ["served, cache on (1 client)",
                round(qps), p50, p99, f"{hit_rate:.2f}"])


def test_served_cache_on_concurrent(benchmark, cache):
    index = cache.get("neighborhoods", 15.0)
    lngs, lats = _request_stream()

    def run():
        _STATE["full"] = _run_served(
            index, lngs, lats, cache_capacity=1 << 20,
            num_clients=_NUM_CLIENTS)

    benchmark.pedantic(run, rounds=1, iterations=1)
    qps, p50, p99, hit_rate = _STATE["full"]
    _STATE.setdefault("served_qps", []).append(qps)
    record_row(_TABLE, _COLUMNS,
               [f"served, cache on ({_NUM_CLIENTS} clients)",
                round(qps), p50, p99, f"{hit_rate:.2f}"])
    naive_qps = _STATE.get("naive_qps")
    if naive_qps is not None:
        best = max(_STATE["served_qps"])
        record_text(_TABLE, f"best served speedup over naive loop: "
                            f"{best / naive_qps:.2f}x sustained qps")
        if config.bench_scale() >= 1.0:
            # wall-clock comparison is meaningless on noisy smoke runs
            assert best > naive_qps, (
                f"serving stack (best {best:,.0f} qps) must beat the "
                f"naive loop ({naive_qps:,.0f} qps) on sustained "
                f"throughput"
            )
