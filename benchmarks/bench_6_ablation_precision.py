"""Ablation A3 — the precision knob: error bound vs false positives.

Validates the paper's core guarantee empirically across a precision
sweep: the measured worst-case distance of a false-positive join pair
must stay below the configured bound, while the false-positive *rate*
falls as the bound tightens (and cells multiply — the trade the paper's
Table I quantifies).
"""

import pytest

from repro import ACTIndex
from repro.bench import dataset_polygons, workload
from repro.bench.reporting import record_row
from repro.geometry import point_polygon_distance_meters

_COLUMNS = ["bound [m]", "guarantee [m]", "measured max err [m]",
            "false-positive pairs", "fp rate", "indexed cells [M]"]
_TABLE = "Ablation A3: precision sweep (neighborhoods)"

_STATE = {}


def _polygons():
    return _STATE.setdefault("polys", dataset_polygons("neighborhoods"))


@pytest.mark.parametrize("precision", [240.0, 120.0, 60.0, 15.0])
def test_ablation_precision(benchmark, precision):
    polygons = _polygons()
    lngs, lats = workload(30_000, seed=99)

    index = ACTIndex.build(polygons, precision_meters=precision)
    approx = benchmark.pedantic(
        lambda: index.count_points(lngs, lats), rounds=2, iterations=1
    )
    exact = index.count_points(lngs, lats, exact=True)
    fp_pairs = int((approx - exact).sum())
    fp_rate = fp_pairs / max(1, int(approx.sum()))

    # measure actual false-positive distances on a per-point sample
    worst = 0.0
    entries = index.lookup_batch(lngs[:6000], lats[:6000])
    for k, entry in enumerate(entries.tolist()):
        result = index.decode_entry(int(entry))
        if not result.candidates:
            continue
        x = float(lngs[k])
        y = float(lats[k])
        for pid in result.candidates:
            if not polygons[pid].contains(x, y):
                worst = max(worst, point_polygon_distance_meters(
                    polygons[pid], x, y))
    assert worst <= index.guaranteed_precision_meters * 1.001

    record_row(_TABLE, _COLUMNS, [
        precision,
        index.guaranteed_precision_meters,
        worst,
        fp_pairs,
        fp_rate,
        index.stats.indexed_cells / 1e6,
    ])
