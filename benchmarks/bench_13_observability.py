"""Observability overhead — telemetry must be cheap enough to leave on.

The serving stack ships with telemetry enabled by default: counters and
mergeable latency histograms on every request, deterministic 1-in-N
trace sampling, and the slow-query log. That default is only defensible
if the instrumented hot path costs almost nothing — so this benchmark
serves the census point workload at the three telemetry levels (``off``
— every metrics handle is a no-op, ``counters`` — aggregates only,
``full`` — counters plus sampled tracing at the default 1-in-64
interval) and computes the overhead of each level against ``off``.

Methodology: each measurement pass classifies every point once with a
cleared cell cache (the cache fills as traffic arrives, as in a real
deployment — re-looping the same points would make the cache
artificially 100% hot and shrink the denominator to a dict lookup).
Differences this small drown in two noise sources on shared runners,
so the harness removes both structurally: *instance placement bias*
(two service objects can differ by several percent from memory layout
alone) is eliminated by serving every level from **one**
``ACTService`` whose level is flipped in place with
:meth:`~repro.serve.ACTService.set_telemetry`, and *transient stalls*
(CPU steal, interrupts) are filtered by timing each pass in fixed
chunks and keeping the **per-chunk minimum across rounds** — chunk
``i`` replays identical traffic against identical cache state every
round, so its minimum converges on the true cost while a stall only
poisons one chunk of one round. Level order is shuffled per round.
The gated workload is ``exact=True`` census point classification (the
paper's use case); the approximate path is measured and reported
alongside for reference.

The acceptance gate — full telemetry costs < 5% qps at the default
sampling interval — needs stable timing, so it is asserted only when
``REPRO_SCALE >= 1``; smoke runs still measure and record everything.
Results are persisted as ``BENCH_observability.json`` (uploaded as a
CI artifact) so the overhead trajectory is tracked across PRs.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import config
from repro.act.index import ACTIndex
from repro.bench.reporting import record_row, record_text, write_bench_json
from repro.datasets import nyc, points
from repro.serve import ACTService, ServeConfig

_TABLE = "Observability: serving qps by telemetry level (census points)"
_COLUMNS = ["workload", "telemetry", "queries", "qps", "vs off"]

_NUM_POLYGONS = 500
_PRECISION_M = 300.0
_BASE_QUERIES = 20_000
#: The level every measurement is differenced against.
_BASELINE = "off"
_LEVELS = ("off", "counters", "full")
#: Rounds per workload; every chunk keeps its minimum across rounds.
_ROUNDS = 12
#: Queries per timed chunk (per-chunk minima filter transient stalls).
_CHUNK = 1_000

_STATE = {}


@pytest.fixture(scope="module")
def observability_workload():
    """One prebuilt census index plus a query point stream."""
    num = max(100, int(_NUM_POLYGONS * config.bench_scale()))
    index = ACTIndex.build(nyc.census_blocks(num, seed=23),
                           precision_meters=_PRECISION_M)
    n = max(2_000, int(_BASE_QUERIES * config.bench_scale()))
    lngs, lats = points.taxi_points(n, seed=7)
    return index, list(zip(lngs.tolist(), lats.tolist()))


def _one_pass(service, pairs, telemetry: str, exact: bool) -> list:
    """Per-chunk seconds to classify every point once at ``telemetry``.

    The shared service is flipped to the level in place and its cell
    cache cleared, so each pass replays identical traffic against
    identical starting state: a short warmup slice (the first trickle
    of production traffic) seeds the cache, then the timed chunks
    cover the instrumented hit *and* miss paths in their natural
    ratio.
    """
    service.set_telemetry(telemetry)
    query = service.query
    service.cache.clear()
    for lng, lat in pairs[:max(200, len(pairs) // 20)]:
        query("census", lng, lat, exact=exact)
    service.cache.clear()
    chunks = []
    for c in range(0, len(pairs), _CHUNK):
        chunk = pairs[c:c + _CHUNK]
        start = time.perf_counter()
        for lng, lat in chunk:
            query("census", lng, lat, exact=exact)
        chunks.append(time.perf_counter() - start)
    return chunks


def _measure(index, pairs, exact: bool) -> dict:
    """Chunk-min comparison of all telemetry levels on one service."""
    rng = random.Random(19)
    service = ACTService(config=ServeConfig())
    service.registry.register("census", lambda: index)
    mins = {lvl: None for lvl in _LEVELS}
    try:
        service.query("census", *pairs[0])  # materialize the pin once
        for _ in range(_ROUNDS):
            order = list(_LEVELS)
            rng.shuffle(order)
            for lvl in order:
                chunks = _one_pass(service, pairs, lvl, exact)
                mins[lvl] = chunks if mins[lvl] is None else [
                    min(a, b) for a, b in zip(mins[lvl], chunks)]
    finally:
        service.close()
    totals = {lvl: sum(mins[lvl]) for lvl in _LEVELS}
    overhead = {
        lvl: totals[lvl] / totals[_BASELINE] - 1.0
        for lvl in _LEVELS if lvl != _BASELINE
    }
    qps = {lvl: len(pairs) / totals[lvl] for lvl in _LEVELS}
    return {"overhead": overhead, "qps": qps}


@pytest.mark.parametrize("exact", [False, True],
                         ids=["approx", "exact"])
def test_observability_overhead(benchmark, observability_workload, exact):
    index, pairs = observability_workload
    workload = "exact" if exact else "approx"

    def run():
        _STATE[workload] = _measure(index, pairs, exact)

    benchmark.pedantic(run, rounds=1, iterations=1)
    measured = _STATE[workload]
    for lvl in _LEVELS:
        ratio = measured["overhead"].get(lvl)
        record_row(_TABLE, _COLUMNS, [
            workload, lvl, len(pairs), round(measured["qps"][lvl], 1),
            "baseline" if ratio is None else f"{ratio * 100:+.1f}%",
        ])


def test_observability_overhead_asserted(observability_workload):
    """The acceptance gate: full telemetry costs < 5% qps."""
    if "exact" not in _STATE:
        pytest.skip("observability level benchmarks did not run")
    index, pairs = observability_workload
    exact = _STATE["exact"]
    approx = _STATE.get("approx", exact)
    record_text(_TABLE, (
        f"telemetry overhead vs off (exact census classification): "
        f"counters {exact['overhead']['counters'] * 100:+.1f}%, full "
        f"(sampled tracing) {exact['overhead']['full'] * 100:+.1f}% — "
        f"chunk-min over {len(pairs):,} queries x {_ROUNDS} rounds"
    ))
    write_bench_json("observability", {
        "num_polygons": max(100, int(_NUM_POLYGONS * config.bench_scale())),
        "precision_meters": _PRECISION_M,
        "queries": len(pairs),
        "rounds": _ROUNDS,
        "qps_off": exact["qps"]["off"],
        "qps_counters": exact["qps"]["counters"],
        "qps_full": exact["qps"]["full"],
        "overhead_counters": exact["overhead"]["counters"],
        "overhead_full": exact["overhead"]["full"],
        "qps_off_approx": approx["qps"]["off"],
        "overhead_full_approx": approx["overhead"]["full"],
    })
    if config.bench_scale() < 1.0:
        pytest.skip("timing assertions need REPRO_SCALE >= 1")
    overhead_full = exact["overhead"]["full"]
    for attempt in range(2):
        if overhead_full < 0.05:
            break
        # re-measure before failing: the estimator is robust but a
        # sustained noisy patch on a shared runner can still leak in
        again = _measure(index, pairs, exact=True)
        record_text(_TABLE, (
            f"gate re-measure {attempt + 1}: full "
            f"{again['overhead']['full'] * 100:+.1f}% (previous best "
            f"{overhead_full * 100:+.1f}%)"
        ))
        overhead_full = min(overhead_full, again["overhead"]["full"])
    assert overhead_full < 0.05, (
        f"full telemetry (default sampling) must cost < 5% qps, "
        f"measured {overhead_full * 100:.1f}%"
    )
