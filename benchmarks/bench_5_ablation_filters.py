"""Ablation A2 — the value of true-hit filtering.

Compares exact joins across filter designs on the neighborhoods dataset:

* classic filter+refine (R-tree over MBRs, every candidate refined);
* interior-rectangle true-hit filtering (one inscribed rect per polygon);
* Magellan-style fixed grid (non-hierarchical, with inside flags);
* ACT exact (hierarchical interior coverings; candidates only at the
  precision boundary);
* ACT approximate (no refinement at all — the paper's contribution).

The table reports throughput and, crucially, the number of PIP
refinements each design pays — the quantity ACT's interior coverings
drive to (near) zero.
"""


from repro.baselines import FixedGridIndex, InteriorRectIndex
from repro.bench import dataset_polygons, throughput_mpts
from repro.bench.reporting import record_row
from repro.join import FilterRefineJoin

_COLUMNS = ["variant", "M points/s", "PIP refinements", "result pairs"]
_TABLE = "Ablation A2: true-hit filtering"

_STATE = {}


def _polygons():
    return _STATE.setdefault("polys", dataset_polygons("neighborhoods"))


def _index(cache):
    return cache.get("neighborhoods", 15.0)


def test_filters_classic_filter_refine(benchmark, probe_points):
    lngs, lats = probe_points
    join = FilterRefineJoin(_polygons())
    result = benchmark.pedantic(lambda: join.join(lngs, lats),
                                rounds=1, iterations=1)
    mpts = throughput_mpts(len(lngs), result.stats.seconds)
    record_row(_TABLE, _COLUMNS, [
        "filter+refine (R-tree MBR)", mpts,
        result.stats.num_refined, result.total_pairs,
    ])


def test_filters_interior_rect(benchmark, probe_points):
    lngs, lats = probe_points
    index = InteriorRectIndex(_polygons())

    def run():
        return index.count_points(lngs, lats, exact=True)

    benchmark.pedantic(run, rounds=1, iterations=1)
    mpts = throughput_mpts(len(lngs), benchmark.stats.stats.min)
    # refinements = candidate references that were not true hits
    refinements = 0
    pairs = 0
    for x, y in zip(lngs.tolist(), lats.tolist()):
        true_hits, candidates = index.query(x, y)
        refinements += len(candidates)
        pairs += len(index.query_exact(x, y))
    record_row(_TABLE, _COLUMNS, [
        "interior-rectangle filter", mpts, refinements, pairs,
    ])


def test_filters_fixed_grid(benchmark, probe_points):
    lngs, lats = probe_points
    index = FixedGridIndex(_polygons(), resolution=256)

    benchmark.pedantic(lambda: index.count_points(lngs, lats, exact=True),
                       rounds=1, iterations=1)
    mpts = throughput_mpts(len(lngs), benchmark.stats.stats.min)
    refinements = 0
    pairs = 0
    for x, y in zip(lngs.tolist(), lats.tolist()):
        true_hits, candidates = index.query(x, y)
        refinements += len(candidates)
        pairs += len(index.query_exact(x, y))
    record_row(_TABLE, _COLUMNS, [
        "fixed grid 256x256 (Magellan-style)", mpts, refinements, pairs,
    ])


def test_filters_act_exact(benchmark, cache, probe_points):
    lngs, lats = probe_points
    executor = _index(cache).executor
    result = benchmark.pedantic(
        lambda: executor.join(lngs, lats, exact=True),
        rounds=2, iterations=1)
    mpts = throughput_mpts(len(lngs), benchmark.stats.stats.min)
    record_row(_TABLE, _COLUMNS, [
        "ACT-15m exact (refine candidates)", mpts,
        result.stats.num_refined, result.total_pairs,
    ])


def test_filters_act_approximate(benchmark, cache, probe_points):
    lngs, lats = probe_points
    executor = _index(cache).executor
    result = benchmark.pedantic(lambda: executor.join(lngs, lats),
                                rounds=2, iterations=1)
    mpts = throughput_mpts(len(lngs), benchmark.stats.stats.min)
    record_row(_TABLE, _COLUMNS, [
        "ACT-15m approximate (no refinement)", mpts,
        0, result.total_pairs,
    ])


def test_filters_act_no_interior(benchmark, probe_points):
    """ACT without interior cells: every hit becomes a candidate."""
    from repro import ACTIndex

    lngs, lats = probe_points
    index = ACTIndex.build(_polygons(), precision_meters=15.0,
                           use_interior=False)
    result = benchmark.pedantic(
        lambda: index.executor.join(lngs, lats, exact=True),
        rounds=1, iterations=1)
    mpts = throughput_mpts(len(lngs), benchmark.stats.stats.min)
    record_row(_TABLE, _COLUMNS, [
        "ACT-15m without interior cells", mpts,
        result.stats.num_refined, result.total_pairs,
    ])
