"""Figure 4 — scalability of the ACT-4m join with worker count.

The paper scales C++ threads across 28 physical cores / 56 hyperthreads
and reports near-linear scaling (peak 4.30 B points/s on boroughs),
noting that hyperthread oversubscription helps because lookups are bound
by memory latency.

Python substitution (DESIGN.md): fork-based ``multiprocessing`` workers
over point slices, sharing the built index copy-on-write. The sweep runs
1/2/4/... workers up to twice the visible CPU count; on a single-core
machine the series is expectedly flat.
"""

import multiprocessing

import pytest

from repro.bench import DATASETS
from repro.bench.reporting import record_row, record_text
from repro.join import fork_available, parallel_join

_COLUMNS = ["dataset", "workers", "M points/s", "speedup vs 1"]

_PRECISION = 4.0
_BASE_MPTS = {}


def _worker_counts():
    cpus = multiprocessing.cpu_count()
    return [w for w in (1, 2, 4, 8, 16, 32) if w <= max(2, 2 * cpus)]


@pytest.mark.parametrize("workers", _worker_counts())
@pytest.mark.parametrize("dataset", DATASETS)
def test_figure4_scaling(benchmark, cache, join_points, dataset, workers):
    if workers > 1 and not fork_available():
        pytest.skip("fork start method unavailable")
    lngs, lats = join_points
    index = cache.get(dataset, _PRECISION)

    result = benchmark.pedantic(
        lambda: parallel_join(index, lngs, lats, workers=workers),
        rounds=1, iterations=1,
    )
    mpts = result.stats.throughput_mpts
    base = _BASE_MPTS.setdefault(dataset, mpts) if workers == 1 else \
        _BASE_MPTS.get(dataset, mpts)
    benchmark.extra_info.update(dataset=dataset, workers=workers, mpts=mpts)
    record_row("Figure 4: scalability (ACT-4m)", _COLUMNS,
               [dataset, workers, mpts, mpts / base if base else 1.0])
    if workers == 1 and dataset == DATASETS[0]:
        record_text(
            "Figure 4: scalability (ACT-4m)",
            f"[note] machine exposes {multiprocessing.cpu_count()} CPU(s); "
            "the paper's near-linear scaling needs many physical cores.",
        )
