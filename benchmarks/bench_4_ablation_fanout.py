"""Ablation A1 — trie fanout: height vs memory vs lookup speed.

Section II of the paper derives the lookup cost model
``c_avg = ceil(k_avg / log2(fanout))`` and argues fanout 256 trades
sparsely occupied nodes (memory) for a shallow tree (speed). This
ablation builds the neighborhoods index at 15 m with fanout 4/16/64/256
and measures exactly that trade-off.
"""

import pytest

from repro import ACTIndex
from repro.act.core import SUPPORTED_FANOUTS
from repro.bench import dataset_polygons, throughput_mpts
from repro.bench.reporting import record_row

_COLUMNS = ["fanout", "max node accesses", "trie MB", "indexed cells [M]",
            "lookup M points/s"]

_POLYGONS = None


def _polygons():
    global _POLYGONS
    if _POLYGONS is None:
        _POLYGONS = dataset_polygons("neighborhoods")
    return _POLYGONS


@pytest.mark.parametrize("fanout", SUPPORTED_FANOUTS)
def test_ablation_fanout(benchmark, probe_points, fanout):
    index = ACTIndex.build(_polygons(), precision_meters=15.0,
                           fanout=fanout)
    lngs, lats = probe_points
    result = benchmark.pedantic(
        lambda: index.count_points(lngs, lats),
        rounds=2, iterations=1,
    )
    assert result.sum() >= 0
    mpts = throughput_mpts(len(lngs), benchmark.stats.stats.min)
    benchmark.extra_info.update(fanout=fanout, trie_mb=index.core.size_bytes / 1e6)
    record_row("Ablation A1: fanout trade-off", _COLUMNS, [
        fanout,
        index.core.max_steps,
        index.core.size_bytes / 1e6,
        index.stats.indexed_cells / 1e6,
        mpts,
    ])
