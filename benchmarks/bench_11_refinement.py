"""Refinement engine — packed-edge kernel vs grouped-per-polygon.

The candidate-heavy regime is where exact-join refinement dominates: a
*low*-precision ACT over many small polygons classifies most references
as candidates, and the grouped path pays one ``contains_batch`` numpy
dispatch per polygon — thousands of tiny calls when each polygon owns a
handful of candidates. The packed-edge engine
(:class:`~repro.geometry.edge_table.PackedEdgeTable`) evaluates every
pair in one vectorized crossing-number pass.

Measured here, on a census-blocks workload built for candidate volume:

* grouped vs packed refinement over the identical candidate pair set
  (asserted: bit-identical verdicts, >= 2x packed speedup at full
  scale);
* cold start from ``.npz`` with and without ``mmap_mode="r"`` (the
  mmap load defers the node pool to first touch).

Results are also persisted as ``BENCH_refinement.json`` (see
:func:`repro.bench.reporting.write_bench_json`) so the perf trajectory
is tracked across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import config
from repro.act.index import ACTIndex
from repro.act.serialize import load_index, save_index
from repro.bench import throughput_mpts, write_bench_json
from repro.bench.reporting import record_row, record_text
from repro.datasets import nyc, points
from repro.join.executor import refine_pairs

_TABLE = "Refinement engine: grouped vs packed on candidate-heavy joins"
_COLUMNS = ["variant", "pairs", "seconds", "M pairs/s"]
_LOAD_TABLE = "Cold start: eager load vs mmap node pool"
_LOAD_COLUMNS = ["variant", "load s", "first-join s", "total s"]

_NUM_POLYGONS = 2000
_PRECISION_M = 300.0  # deliberately low precision: candidates dominate
_NUM_POINTS = 1_000_000

_STATE = {}


@pytest.fixture(scope="module")
def workload():
    """A low-precision index over many small polygons, plus its
    candidate pair set for a large point batch."""
    num = max(200, int(_NUM_POLYGONS * config.bench_scale()))
    polygons = nyc.census_blocks(num, seed=17)
    index = ACTIndex.build(polygons, precision_meters=_PRECISION_M)
    lngs, lats = points.taxi_points(
        config.bench_points(_NUM_POINTS), seed=42)
    executor = index.executor
    entries = executor.entries(lngs, lats)
    point_idx, polygon_ids = index.core.candidate_pairs(entries)
    _ = executor.edge_table  # built once, outside the timed kernels
    return index, polygons, lngs, lats, point_idx, polygon_ids


def _best(fn, rounds=3):
    best = float("inf")
    out = None
    for _ in range(rounds):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_grouped_refinement(benchmark, workload):
    index, polygons, lngs, lats, point_idx, polygon_ids = workload

    def run():
        seconds, inside = _best(
            lambda: refine_pairs(polygons, point_idx, polygon_ids,
                                 lngs, lats))
        _STATE["grouped"] = (seconds, inside)

    benchmark.pedantic(run, rounds=1, iterations=1)
    seconds, _ = _STATE["grouped"]
    record_row(_TABLE, _COLUMNS, [
        "grouped per polygon", len(point_idx), round(seconds, 4),
        round(throughput_mpts(len(point_idx), seconds), 2),
    ])


def test_packed_refinement(benchmark, workload):
    index, polygons, lngs, lats, point_idx, polygon_ids = workload
    table = index.executor.edge_table

    def run():
        seconds, inside = _best(
            lambda: table.refine(point_idx, polygon_ids, lngs, lats))
        _STATE["packed"] = (seconds, inside)

    benchmark.pedantic(run, rounds=1, iterations=1)
    seconds, _ = _STATE["packed"]
    record_row(_TABLE, _COLUMNS, [
        "packed edge table", len(point_idx), round(seconds, 4),
        round(throughput_mpts(len(point_idx), seconds), 2),
    ])


def test_cold_load_mmap(benchmark, workload, tmp_path_factory):
    """Eager vs mmap cold start: load, then the first exact join."""
    index, polygons, lngs, lats, _, _ = workload
    path = tmp_path_factory.mktemp("refine") / "index.npz"
    save_index(index, path)
    probe = (lngs[:50_000], lats[:50_000])

    def run():
        for variant, mode in (("eager", None), ("mmap", "r")):
            t0 = time.perf_counter()
            loaded = load_index(path, mmap_mode=mode)
            t1 = time.perf_counter()
            loaded.executor.count_points(*probe, exact=True)
            t2 = time.perf_counter()
            _STATE[f"load_{variant}"] = (t1 - t0, t2 - t1)

    benchmark.pedantic(run, rounds=1, iterations=1)
    for variant in ("eager", "mmap"):
        load_s, join_s = _STATE[f"load_{variant}"]
        record_row(_LOAD_TABLE, _LOAD_COLUMNS, [
            variant, round(load_s, 4), round(join_s, 4),
            round(load_s + join_s, 4),
        ])


def test_refinement_speedup_asserted(workload):
    """The acceptance gate: identical verdicts, >= 2x packed speedup."""
    if "grouped" not in _STATE or "packed" not in _STATE:
        pytest.skip("refinement benchmarks did not run")
    index, polygons, lngs, lats, point_idx, polygon_ids = workload
    grouped_s, grouped_inside = _STATE["grouped"]
    packed_s, packed_inside = _STATE["packed"]
    assert np.array_equal(grouped_inside, packed_inside), \
        "packed refinement must be bit-identical to the grouped path"
    speedup = grouped_s / max(packed_s, 1e-9)
    record_text(_TABLE, (
        f"packed speedup {speedup:.2f}x over {len(point_idx):,} candidate "
        f"pairs ({index.num_polygons} polygons, "
        f"precision {_PRECISION_M:g} m)"
    ))
    write_bench_json("refinement", {
        "num_polygons": index.num_polygons,
        "precision_meters": _PRECISION_M,
        "num_points": int(lngs.shape[0]),
        "num_candidate_pairs": int(point_idx.shape[0]),
        "grouped_seconds": grouped_s,
        "packed_seconds": packed_s,
        "packed_speedup": speedup,
        "packed_table_bytes": index.executor.edge_table.size_bytes,
        "load_eager_seconds": _STATE.get("load_eager", (None,))[0],
        "load_mmap_seconds": _STATE.get("load_mmap", (None,))[0],
    })
    if config.bench_scale() < 1.0:
        # smoke runs exercise both kernels; wall-clock gates need the
        # full-scale workload on a quiet machine
        pytest.skip("timing assertions need REPRO_SCALE >= 1")
    assert speedup >= 2.0, (
        f"packed-edge refinement must be >= 2x the grouped path on the "
        f"candidate-heavy workload, got {speedup:.2f}x"
    )
