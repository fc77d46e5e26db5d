"""Serving fleet — multiprocess qps scaling on the census workload.

The paper scales ACT joins near-linearly across cores; serving from one
GIL-bound Python process cannot. This benchmark measures end-to-end
HTTP throughput of :class:`~repro.serve.fleet.ServingFleet` against the
worker count on a candidate-heavy census workload (exact batch queries,
so each request does real refinement CPU work), with the index loaded
``mmap_mode="r"`` so every worker shares the node-pool pages through
the page cache.

Two measurements share the census workload:

* **worker scaling** — end-to-end HTTP qps against the worker count,
  load generated by forked client processes speaking keep-alive HTTP
  (several more of them than server workers, so the server side is the
  bottleneck). The gate — fleet at 4 workers serves >= 2x the
  single-process qps — needs real parallel hardware, so it is asserted
  only when ``REPRO_SCALE >= 1`` and at least 4 cores are available.
* **transport A/B** — JSON vs the zero-copy binary protocol
  (:mod:`repro.serve.binproto`) on **one** fleet, using the
  placement-bias-free estimator from ``bench_13_observability``: the
  transport is flipped in place between passes over identical batches
  (no fresh-process-per-arm timing — a fleet forked per arm can differ
  by several percent from memory layout alone), each pass is timed in
  fixed chunks, and every chunk keeps its minimum across shuffled-order
  rounds so a transient stall poisons one chunk of one round instead
  of an arm. This measurement uses its own **small fixed batches**
  (``_TRANSPORT_BATCH_POINTS`` points per request, many requests):
  the gate isolates per-request *transport* overhead — the wire-to-core
  gap the protocol exists to close — which the heavy 2,000-point
  scaling batches would mask (at that size both arms converge on the
  same refinement CPU time and the ratio says nothing about the wire).
  The binary arm pipelines frames (its designed usage); the JSON arm
  reuses one keep-alive connection with a pre-encoded body, so
  client-side costs favor JSON and the measured ratio is conservative.
  The gate — binary >= 2x JSON qps — is asserted at full scale on
  >= 4 cores; smoke runs still record both numbers. It used to read
  >= 10x, but that measured a stall, not the protocol: the JSON front
  wrote headers and body in two sends with Nagle on, so every response
  waited out the client's 40 ms delayed ACK. ``REPRO_SCALE=1 pytest
  benchmarks/bench_12_fleet.py -k transport`` on a 2-vCPU VM read
  22.9 JSON qps against ~2 900 binary (x124-131) that way, and with
  one write on a ``TCP_NODELAY`` socket reads 1 040-1 150 JSON qps
  against 2 930-3 060 binary (x2.6-2.8). What the ratio measures now
  is the wire and codec work the binary plane saves. At every scale
  the JSON arm must also reach ``_JSON_QPS_FLOOR`` — the stall, if it
  came back, would cap one keep-alive connection near 25 qps.

* **shard scaling** — the same census workload against *sharded*
  fleets (``shards == workers``): every request is a spanning exact
  batch driven over the binary plane at the per-slot shard sockets,
  so each request scatters across every slice, refines in parallel on
  all shard workers, and gathers back. Unlike the replicated worker
  scaling above (N whole copies, the kernel balances connections),
  this measures the shard *router*: partition + forward + gather must
  beat one process holding the whole index. The gate — a 4-shard
  fleet serves >= 1.8x the 1-shard qps — needs real parallel
  hardware, so it is asserted only at ``REPRO_SCALE >= 1`` on >= 4
  cores; smoke runs still record the numbers.

Results are persisted as ``BENCH_fleet.json`` (uploaded as a CI
artifact) so the qps-vs-workers, qps-per-transport, and
qps-vs-shards trajectories are tracked across PRs.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import random
import time

import pytest

from repro import config
from repro.act.index import ACTIndex
from repro.act.serialize import save_index
from repro.bench.reporting import record_row, record_text, write_bench_json
from repro.datasets import nyc, points
from repro.serve import FleetConfig, IndexRegistry, ServeConfig, ServingFleet
from repro.serve import binproto
from repro.serve.fleet import fleet_available

pytestmark = pytest.mark.skipif(
    not fleet_available(),
    reason="fleet needs the 'fork' start method",
)

_TABLE = "Serving fleet: qps vs worker count (census, exact batches)"
_COLUMNS = ["workers", "requests", "seconds", "qps", "M points/s"]
_TRANSPORT_TABLE = ("Serving fleet: JSON vs binary transport "
                    "(one fleet, chunk-min estimator)")
_TRANSPORT_COLUMNS = ["transport", "requests", "seconds", "qps",
                      "M points/s"]

_SHARD_TABLE = ("Sharded fleet: qps vs shard count "
                "(census, spanning exact batches, binary plane)")
_SHARD_COLUMNS = ["shards", "requests", "seconds", "qps", "M points/s"]

_NUM_POLYGONS = 1000
_PRECISION_M = 300.0  # low precision: refinement dominates, CPU-bound
_BATCH_POINTS = 2000
_BASE_REQUESTS = 96
_CLIENTS = 6  # keep the accept queues full at every worker count
_WORKER_COUNTS = (1, 2, 4)
_SHARD_COUNTS = (1, 4)
_TRANSPORTS = ("json", "binary")
#: Per-request batch for the transport A/B: small enough that the
#: per-request cost is transport overhead, not refinement CPU (the
#: quantity the binary-over-JSON gate is about).
_TRANSPORT_BATCH_POINTS = 100
_TRANSPORT_REQUESTS = 192
#: Rounds of the transport A/B; every chunk keeps its minimum.
_TRANSPORT_ROUNDS = 5
#: In-flight frames the binary arm keeps queued per connection.
_PIPELINE_DEPTH = 8
#: Full-scale gate (>= 4 cores): binary qps over JSON qps on one fleet.
#: x2.6-2.8 measured on a 2-vCPU VM once JSON responses left in one
#: write; the old 10x gate passed on the JSON front's delayed-ACK stall
#: (x124-131 with it), not on the protocol.
_BINARY_SPEEDUP_GATE = 2.0
#: Floor for the JSON arm at any scale: a response that waits out the
#: client's 40 ms delayed ACK caps one keep-alive connection near
#: 25 qps (22.9 measured), the one-write front does ~1 000 (1 017 at
#: REPRO_SCALE=0.02) — 4x margin or more either way.
_JSON_QPS_FLOOR = 100.0

_STATE = {}


@pytest.fixture(scope="module")
def fleet_workload(tmp_path_factory):
    """A serialized census index plus one pre-encoded request body."""
    num = max(100, int(_NUM_POLYGONS * config.bench_scale()))
    polygons = nyc.census_blocks(num, seed=17)
    index = ACTIndex.build(polygons, precision_meters=_PRECISION_M)
    path = tmp_path_factory.mktemp("fleet") / "census.npz"
    save_index(index, path)
    batch = max(50, int(_BATCH_POINTS * min(1.0, config.bench_scale())))
    lngs, lats = points.taxi_points(batch, seed=42)
    body = json.dumps({
        "index": "census",
        "points": [[float(a), float(b)] for a, b in zip(lngs, lats)],
        "exact": True,
    }).encode("utf-8")
    requests = max(8, int(_BASE_REQUESTS * min(1.0, config.bench_scale())))
    return path, body, batch, requests, lngs, lats


def _client_main(host, port, num_requests, body, results):
    """One load generator: keep-alive POSTs, counts 200s."""
    connection = http.client.HTTPConnection(host, port, timeout=300)
    ok = 0
    try:
        for _ in range(num_requests):
            connection.request(
                "POST", "/query", body=body,
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            if response.status == 200:
                ok += 1
    finally:
        connection.close()
        # always report, even on a raised request: a missing put would
        # deadlock the parent's results.get() instead of failing the
        # request-count assertion
        results.put(ok)


def _measure(path, body, num_requests, workers):
    """Serve with ``workers`` processes, hammer, return (seconds, ok)."""
    registry = IndexRegistry()
    registry.register_path("census", path, mmap_mode="r")
    # cache disabled: the repeated batch would otherwise be answered
    # from the cell cache and the measurement would stop exercising
    # descent + refinement
    fleet = ServingFleet(registry, FleetConfig(
        workers=workers,
        serve=ServeConfig(cache_capacity=0),
        stats_interval_s=1.0,
    ))
    ctx = multiprocessing.get_context("fork")
    try:
        fleet.start()
        host, port = fleet.address
        results = ctx.SimpleQueue()
        share = [num_requests // _CLIENTS] * _CLIENTS
        for i in range(num_requests % _CLIENTS):
            share[i] += 1
        clients = [
            ctx.Process(target=_client_main,
                        args=(host, port, share[i], body, results))
            for i in range(_CLIENTS)
        ]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - start
        ok = sum(results.get() for _ in clients)
    finally:
        fleet.shutdown()
    return elapsed, ok


def _shard_client_main(host, port, num_requests, lngs, lats, results):
    """One binary load generator against a single shard socket.

    Pipelines spanning exact batches (the shard worker scatters each
    one across every slice and gathers), counting complete responses.
    """
    ok = 0
    expected = int(lngs.shape[0])
    try:
        with binproto.Client(host, port, timeout=300.0) as client:
            sent = received = 0
            while received < num_requests:
                while (sent < num_requests
                        and sent - received < _PIPELINE_DEPTH):
                    client.send_query("census", lngs, lats, exact=True)
                    sent += 1
                _, batch_results = client.recv_results()
                if len(batch_results) == expected:
                    ok += 1
                received += 1
    finally:
        # always report — see _client_main
        results.put(ok)


def _measure_sharded(path, lngs, lats, num_requests, shards):
    """Sharded fleet (``workers == shards``), spanning binary batches.

    Clients are spread round-robin over the per-slot shard sockets so
    every worker both serves its slice and routes for the others.
    Returns ``(seconds, ok)``.
    """
    registry = IndexRegistry()
    registry.register_path("census", path, mmap_mode="r")
    fleet = ServingFleet(registry, FleetConfig(
        workers=shards,
        shards=shards,
        serve=ServeConfig(cache_capacity=0),
        stats_interval_s=1.0,
    ))
    ctx = multiprocessing.get_context("fork")
    try:
        fleet.start()
        addresses = fleet.shard_addresses
        results = ctx.SimpleQueue()
        share = [num_requests // _CLIENTS] * _CLIENTS
        for i in range(num_requests % _CLIENTS):
            share[i] += 1
        clients = [
            ctx.Process(target=_shard_client_main,
                        args=(*addresses[i % shards], share[i],
                              lngs, lats, results))
            for i in range(_CLIENTS)
        ]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - start
        ok = sum(results.get() for _ in clients)
    finally:
        fleet.shutdown()
    return elapsed, ok


def _json_pass(host, port, body, num_requests, chunk_size):
    """Per-chunk seconds for ``num_requests`` keep-alive JSON batches."""
    connection = http.client.HTTPConnection(host, port, timeout=300)
    chunks = []
    try:
        done = 0
        while done < num_requests:
            n = min(chunk_size, num_requests - done)
            start = time.perf_counter()
            for _ in range(n):
                connection.request(
                    "POST", "/query", body=body,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                assert response.status == 200, response.status
            chunks.append(time.perf_counter() - start)
            done += n
    finally:
        connection.close()
    return chunks


def _binary_pass(host, port, lngs, lats, num_requests, chunk_size):
    """Per-chunk seconds for ``num_requests`` pipelined binary batches.

    Keeps up to ``_PIPELINE_DEPTH`` frames in flight — the protocol's
    designed usage (responses answer strictly in order, so queueing is
    safe) — so the wire and the core overlap instead of alternating.
    """
    chunks = []
    with binproto.Client(host, port, timeout=300.0) as client:
        done = 0
        while done < num_requests:
            n = min(chunk_size, num_requests - done)
            sent = received = 0
            start = time.perf_counter()
            while received < n:
                while sent < n and sent - received < _PIPELINE_DEPTH:
                    client.send_query("census", lngs, lats, exact=True)
                    sent += 1
                _, results = client.recv_results()
                assert len(results) == lngs.shape[0]
                received += 1
            chunks.append(time.perf_counter() - start)
            done += n
    return chunks


def _measure_transports(path, body, lngs, lats, num_requests, workers):
    """Chunk-min A/B of both transports on one live fleet."""
    registry = IndexRegistry()
    registry.register_path("census", path, mmap_mode="r")
    fleet = ServingFleet(registry, FleetConfig(
        workers=workers,
        binary_port=0,
        serve=ServeConfig(cache_capacity=0),
        stats_interval_s=1.0,
    ))
    rng = random.Random(23)
    chunk_size = max(2, num_requests // 12)
    mins = {arm: None for arm in _TRANSPORTS}
    try:
        fleet.start()
        host, port = fleet.address
        bhost, bport = fleet.binary_address
        passes = {
            "json": lambda: _json_pass(host, port, body, num_requests,
                                       chunk_size),
            "binary": lambda: _binary_pass(bhost, bport, lngs, lats,
                                           num_requests, chunk_size),
        }
        for arm in _TRANSPORTS:  # warmup: pins + page faults, untimed
            passes[arm]()
        for _ in range(_TRANSPORT_ROUNDS):
            order = list(_TRANSPORTS)
            rng.shuffle(order)
            for arm in order:
                chunks = passes[arm]()
                mins[arm] = chunks if mins[arm] is None else [
                    min(a, b) for a, b in zip(mins[arm], chunks)]
    finally:
        fleet.shutdown()
    return {arm: num_requests / sum(mins[arm]) for arm in _TRANSPORTS}


@pytest.mark.parametrize("workers", _WORKER_COUNTS)
def test_fleet_throughput(benchmark, fleet_workload, workers):
    path, body, batch, num_requests, _, _ = fleet_workload

    def run():
        _STATE[workers] = _measure(path, body, num_requests, workers)

    benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed, ok = _STATE[workers]
    assert ok == num_requests, \
        f"{num_requests - ok} of {num_requests} requests failed"
    record_row(_TABLE, _COLUMNS, [
        workers, ok, round(elapsed, 3), round(ok / elapsed, 2),
        round(ok * batch / elapsed / 1e6, 3),
    ])


@pytest.mark.parametrize("shards", _SHARD_COUNTS)
def test_sharded_fleet_throughput(benchmark, fleet_workload, shards):
    path, _, batch, num_requests, lngs, lats = fleet_workload

    def run():
        _STATE[("shard", shards)] = _measure_sharded(
            path, lngs, lats, num_requests, shards)

    benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed, ok = _STATE[("shard", shards)]
    assert ok == num_requests, \
        f"{num_requests - ok} of {num_requests} sharded requests failed"
    record_row(_SHARD_TABLE, _SHARD_COLUMNS, [
        shards, ok, round(elapsed, 3), round(ok / elapsed, 2),
        round(ok * batch / elapsed / 1e6, 3),
    ])


def test_transport_throughput(benchmark, fleet_workload):
    """JSON vs binary on one full-scale fleet (chunk-min estimator)."""
    path, _, batch, _, lngs, lats = fleet_workload
    workers = _WORKER_COUNTS[-1]
    # wire-bound request shape: small batches, many requests (see the
    # module docstring — heavy batches would measure refinement CPU,
    # identical for both arms, instead of transport overhead)
    t_batch = min(batch, _TRANSPORT_BATCH_POINTS)
    t_lngs, t_lats = lngs[:t_batch], lats[:t_batch]
    t_body = json.dumps({
        "index": "census",
        "points": [[float(a), float(b)] for a, b in zip(t_lngs, t_lats)],
        "exact": True,
    }).encode("utf-8")
    t_requests = max(16, int(_TRANSPORT_REQUESTS
                             * min(1.0, config.bench_scale())))
    _STATE["transport_shape"] = (t_batch, t_requests)

    def run():
        _STATE["transport"] = _measure_transports(
            path, t_body, t_lngs, t_lats, t_requests, workers)

    benchmark.pedantic(run, rounds=1, iterations=1)
    qps = _STATE["transport"]
    for arm in _TRANSPORTS:
        record_row(_TRANSPORT_TABLE, _TRANSPORT_COLUMNS, [
            arm, t_requests * _TRANSPORT_ROUNDS, round(
                t_requests / qps[arm], 3), round(qps[arm], 2),
            round(qps[arm] * t_batch / 1e6, 3),
        ])
    # no scale skip: the CI smoke run (REPRO_SCALE=0.02) holds it too
    assert qps["json"] >= _JSON_QPS_FLOOR, (
        f"one keep-alive JSON connection must reach >= "
        f"{_JSON_QPS_FLOOR:.0f} qps, got {qps['json']:.1f} — a response "
        f"written in two sends waits out the client's 40 ms delayed ACK "
        f"(~25 qps)"
    )


def test_fleet_scaling_asserted(fleet_workload):
    """The acceptance gate: >= 2x single-process qps at 4 workers."""
    measured = {w: _STATE[w] for w in _WORKER_COUNTS if w in _STATE}
    if len(measured) < len(_WORKER_COUNTS):
        pytest.skip("fleet throughput benchmarks did not run")
    path, body, batch, num_requests, _, _ = fleet_workload
    qps = {w: ok / elapsed for w, (elapsed, ok) in measured.items()}
    speedup = qps[4] / qps[1] if qps[1] else float("inf")
    record_text(_TABLE, (
        f"fleet speedup at 4 workers: {speedup:.2f}x over single-process "
        f"({num_requests} exact batches of {batch:,} points, "
        f"{len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else os.cpu_count()} "
        f"cores available)"
    ))
    shard_qps = {
        s: _STATE[("shard", s)][1] / _STATE[("shard", s)][0]
        for s in _SHARD_COUNTS if ("shard", s) in _STATE
    }
    shard_speedup = None
    if len(shard_qps) == len(_SHARD_COUNTS):
        shard_speedup = (shard_qps[4] / shard_qps[1]
                         if shard_qps[1] else float("inf"))
        record_text(_SHARD_TABLE, (
            f"shard speedup at 4 shards: {shard_speedup:.2f}x over a "
            f"1-shard fleet ({num_requests} spanning exact batches of "
            f"{batch:,} points over the per-slot binary sockets)"
        ))
    transport = _STATE.get("transport", {})
    binary_speedup = None
    if all(arm in transport for arm in _TRANSPORTS):
        t_batch, t_requests = _STATE["transport_shape"]
        binary_speedup = (transport["binary"] / transport["json"]
                          if transport["json"] else float("inf"))
        record_text(_TRANSPORT_TABLE, (
            f"binary transport {binary_speedup:.1f}x JSON qps on one "
            f"{_WORKER_COUNTS[-1]}-worker fleet ({t_requests} exact "
            f"batches of {t_batch:,} points per pass, chunk-min over "
            f"{_TRANSPORT_ROUNDS} rounds, pipeline depth "
            f"{_PIPELINE_DEPTH})"
        ))
    document = {
        "num_polygons": max(100, int(_NUM_POLYGONS * config.bench_scale())),
        "precision_meters": _PRECISION_M,
        "batch_points": batch,
        "requests": num_requests,
        "clients": _CLIENTS,
        "qps_by_workers": {str(w): qps[w] for w in sorted(qps)},
        "speedup_4_workers": speedup,
        "cores": os.cpu_count(),
    }
    if binary_speedup is not None:
        document["transport_qps"] = {
            arm: transport[arm] for arm in _TRANSPORTS}
        document["binary_speedup"] = binary_speedup
        document["transport_batch_points"] = _STATE["transport_shape"][0]
        document["transport_requests"] = _STATE["transport_shape"][1]
    if shard_speedup is not None:
        document["shard_qps_by_shards"] = {
            str(s): shard_qps[s] for s in sorted(shard_qps)}
        document["shard_speedup"] = shard_speedup
    write_bench_json("fleet", document)
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if config.bench_scale() < 1.0:
        pytest.skip("timing assertions need REPRO_SCALE >= 1")
    if cores < 4:
        pytest.skip(f"scaling assertion needs >= 4 cores, have {cores}")
    assert speedup >= 2.0, (
        f"4-worker fleet must serve >= 2x single-process qps on the "
        f"census workload, got {speedup:.2f}x"
    )
    assert binary_speedup is not None, \
        "the transport A/B must have run at full scale"
    assert binary_speedup >= _BINARY_SPEEDUP_GATE, (
        f"the binary transport must serve >= {_BINARY_SPEEDUP_GATE:.0f}x "
        f"JSON qps on the same fleet, got {binary_speedup:.1f}x (x2.6-2.8 "
        f"measured on 2 vCPUs; the old 10x gate measured the JSON "
        f"front's delayed-ACK stall, not the protocol)"
    )
    assert shard_speedup is not None, \
        "the sharded scaling benchmarks must have run at full scale"
    assert shard_speedup >= 1.8, (
        f"a 4-shard fleet must serve >= 1.8x the 1-shard qps on "
        f"spanning exact batches, got {shard_speedup:.2f}x"
    )
