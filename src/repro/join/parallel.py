"""Multi-worker scaling of the join (the paper's Figure 4, adapted).

The paper scales ACT across 28 cores / 56 hyperthreads with C++ threads
and reports near-linear scaling up to 4.3 B points/s. Python threads
cannot show that because of the GIL, so this module scales with
``multiprocessing`` **fork** workers instead: the index is built once in
the parent and inherited copy-on-write, points are split into per-worker
slices, and each worker runs the vectorized join on its slice (DESIGN.md
documents this substitution).

The parent binds every lazily-built artifact the hot path needs — the
columnar executor and, for exact joins, the packed edge table — *before*
forking, so children inherit them built instead of each constructing its
own copy. Indexes loaded with ``load_index(..., mmap_mode="r")`` compose
particularly well here: the node pool is a file-backed mapping, so
workers share its pages through the page cache without any process ever
re-reading the ``.npz``.

On non-fork platforms the sweep falls back to serial execution and says
so in its results.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from functools import reduce
from typing import List, Optional, Sequence

import numpy as np

from ..act.index import ACTIndex
from .result import JoinResult

#: Worker globals inherited through fork (never pickled).
_SHARED: dict = {}


def _worker_join(bounds: tuple) -> JoinResult:
    start, stop = bounds
    index: ACTIndex = _SHARED["index"]
    # the columnar engine is shared copy-on-write through fork
    return index.executor.join(
        _SHARED["lngs"][start:stop],
        _SHARED["lats"][start:stop],
        exact=_SHARED["exact"],
    )


@dataclass
class ScalingPoint:
    """One measurement of the scaling sweep."""

    workers: int
    seconds: float
    num_points: int

    @property
    def throughput_mpts(self) -> float:
        return self.num_points / self.seconds / 1e6 if self.seconds else 0.0


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def parallel_join(index: ACTIndex, lngs: np.ndarray, lats: np.ndarray,
                  workers: int, exact: bool = False) -> JoinResult:
    """The join split over ``workers`` forked processes, merged.

    Counts and statistics are the workers' results folded with
    :meth:`~repro.join.result.JoinResult.merged`, except that
    ``stats.seconds`` is the wall-clock of the scatter/gather (pool
    start-up excluded) — Figure 4's quantity — not the sum of the
    workers' own times. One worker, or no fork, is the serial join.

    The pre-fork binding discipline is shared with the serving fleet:
    :meth:`~repro.act.index.ACTIndex.prewarm` builds the executor (and,
    for exact joins, the packed edge table) in the parent so every
    worker inherits them copy-on-write instead of redoing the work
    ``workers`` times after the fork.
    """
    lngs = np.asarray(lngs, dtype=np.float64)
    lats = np.asarray(lats, dtype=np.float64)
    n = lngs.shape[0]
    workers = min(workers, n)  # an empty batch has nothing to split
    if workers <= 1 or not fork_available():
        return index.executor.join(lngs, lats, exact=exact)
    index.prewarm(edge_table=exact)
    _SHARED.update(index=index, lngs=lngs, lats=lats, exact=exact)
    step = (n + workers - 1) // workers
    slices = [(i, min(i + step, n)) for i in range(0, n, step)]
    ctx = multiprocessing.get_context("fork")
    try:
        with ctx.Pool(processes=workers) as pool:
            start = time.perf_counter()
            results = pool.map(_worker_join, slices)
            elapsed = time.perf_counter() - start
    finally:
        _SHARED.clear()
    total = reduce(JoinResult.merged, results)
    return JoinResult(total.counts, replace(total.stats, seconds=elapsed))


def scaling_sweep(index: ACTIndex, lngs: np.ndarray, lats: np.ndarray,
                  worker_counts: Optional[Sequence[int]] = None,
                  exact: bool = False) -> List[ScalingPoint]:
    """Measure throughput across worker counts (Figure 4's x-axis)."""
    if worker_counts is None:
        cpus = multiprocessing.cpu_count()
        worker_counts = [w for w in (1, 2, 4, 8, 16, 32) if w <= 2 * cpus]
    forked = fork_available()
    points = []
    for workers in worker_counts:
        stats = parallel_join(index, lngs, lats, workers, exact=exact).stats
        points.append(ScalingPoint(workers if forked else 1, stats.seconds,
                                   stats.num_points))
    return points
