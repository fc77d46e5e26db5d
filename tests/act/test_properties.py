"""Full-stack property-based tests of the ACT guarantees.

Hypothesis generates random polygon sets and probe points; for every
combination the three paper guarantees must hold (no false negatives,
precision-bounded false positives, exact true hits). These complement the
fixed-dataset tests in test_index.py with adversarial shapes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ACTIndex
from repro.act.core import SUPPORTED_FANOUTS
from repro.geometry import point_polygon_distance_meters, regular_polygon
from repro.grid.s2like import S2LikeGrid

# polygons live in a small NYC-like window so builds stay fast
_LNG0, _LAT0 = -74.0, 40.7

polygon_specs = st.lists(
    st.tuples(
        st.floats(-0.08, 0.08),   # center lng offset
        st.floats(-0.08, 0.08),   # center lat offset
        st.floats(0.004, 0.05),   # radius (degrees)
        st.integers(3, 12),       # vertex count
        st.floats(0.0, 6.28),     # phase
    ),
    min_size=1, max_size=5,
)

probe_offsets = st.lists(
    st.tuples(st.floats(-0.12, 0.12), st.floats(-0.12, 0.12)),
    min_size=1, max_size=30,
)


def _build_polygons(specs):
    return [
        regular_polygon(_LNG0 + dx, _LAT0 + dy, r, n, phase)
        for dx, dy, r, n, phase in specs
    ]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polygon_specs, probe_offsets)
def test_guarantees_hold_for_random_inputs(specs, probes):
    polygons = _build_polygons(specs)
    index = ACTIndex.build(polygons, precision_meters=150.0)
    bound = index.guaranteed_precision_meters
    for dx, dy in probes:
        x = _LNG0 + dx
        y = _LAT0 + dy
        reported = set(index.query_approx(x, y))
        true_hits = set(index.query(x, y).true_hits)
        truth = {pid for pid, p in enumerate(polygons) if p.contains(x, y)}
        assert truth <= reported                       # no false negatives
        assert true_hits <= truth                      # true hits exact
        for pid in reported - truth:                   # precision bound
            dist = point_polygon_distance_meters(polygons[pid], x, y)
            assert dist <= bound * 1.001


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polygon_specs)
def test_exact_join_equals_bruteforce(specs):
    polygons = _build_polygons(specs)
    index = ACTIndex.build(polygons, precision_meters=200.0)
    rng = np.random.default_rng(7)
    lngs = rng.uniform(_LNG0 - 0.15, _LNG0 + 0.15, 400)
    lats = rng.uniform(_LAT0 - 0.15, _LAT0 + 0.15, 400)
    exact = index.count_points(lngs, lats, exact=True)
    for pid, polygon in enumerate(polygons):
        brute = int(polygon.contains_batch(lngs, lats).sum())
        assert exact[pid] == brute


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polygon_specs, st.sampled_from([400.0, 150.0, 60.0]))
def test_vectorized_equals_scalar_for_random_inputs(specs, precision):
    polygons = _build_polygons(specs)
    index = ACTIndex.build(polygons, precision_meters=precision)
    rng = np.random.default_rng(13)
    lngs = rng.uniform(_LNG0 - 0.15, _LNG0 + 0.15, 200)
    lats = rng.uniform(_LAT0 - 0.15, _LAT0 + 0.15, 200)
    entries = index.lookup_batch(lngs, lats)
    for k in range(200):
        leaf = index.grid.leaf_cell(float(lngs[k]), float(lats[k]))
        want = index.core.lookup_entry(leaf) if leaf is not None else 0
        assert int(entries[k]) == want


@pytest.mark.parametrize("grid_kind", ["planar", "s2like"])
@pytest.mark.parametrize("fanout", SUPPORTED_FANOUTS)
def test_scalar_query_equals_batch_across_grids_and_fanouts(
        grid_kind, fanout, nyc_polygons):
    """Scalar ``ACTIndex.query`` ≡ vectorized ``lookup_batch`` for every
    supported (grid, fanout) combination — one lookup engine, one truth."""
    polygons = nyc_polygons[:6]
    grid = S2LikeGrid() if grid_kind == "s2like" else None
    index = ACTIndex.build(polygons, precision_meters=250.0, grid=grid,
                           fanout=fanout)
    rng = np.random.default_rng(20180416 + fanout)
    lngs = rng.uniform(-74.35, -73.60, 300)
    lats = rng.uniform(40.40, 41.00, 300)
    entries = index.lookup_batch(lngs, lats)
    for k in range(300):
        scalar = index.query(float(lngs[k]), float(lats[k]))
        batched = index.decode_entry(int(entries[k]))
        assert scalar == batched, (grid_kind, fanout, k)
