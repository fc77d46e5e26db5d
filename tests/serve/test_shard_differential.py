"""Array-native shard planning/slicing vs the trie-based oracle.

``repro.serve.shard`` plans and slices on the core's flat arrays;
``_legacy_shard`` is the per-cell Python implementation it replaced.
Everything observable must agree: the planner's spans exactly; per
slice the set of ``(cell, decoded refs)``, the entry count, the node
count and ``total_bytes``; and what a lookup through the slice returns
for owned, unowned and out-of-domain points. (Raw ``TAG_OFFSET``
entries may differ between the two — each numbers its regathered
lookup table in its own order — so those compare decoded.)

The planner works on the node skeleton (one weight per pool row, one
root-to-leaf walk per cut), so the suite also carries two seeded
mutants of it that must not survive; and since a slice reaches a
worker as a file, ``write_slices`` then ``load_index(mmap_mode="r")``
must give back exactly what ``slice_index`` made.
"""

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _legacy_shard as legacy
from repro import ACTIndex
from repro.act import entry as entry_codec
from repro.act import serialize
from repro.act.core import ACTCore
from repro.act.lookup_table import encode_refs
from repro.act.stats import IndexStats
from repro.errors import ServeError
from repro.geometry import regular_polygon
from repro.grid import cellid
from repro.grid.s2like import S2LikeGrid
from repro.serve import shard
from repro.serve.shard import (KEY_MAX, plan_shard_map, shard_keys,
                               slice_index, write_slices)

FANOUTS = (4, 16, 256)
SLOTS = (1, 2, 3, 4, 7, 11)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _cell_set(index):
    """``{(cell, decoded refs)}`` via the oracle's own DFS."""
    core = index.core
    return {(cell, core.decode_entry(entry))
            for cell, entry in legacy.iter_cells(core)}


def _assert_same_slice(got, want):
    assert _cell_set(got) == _cell_set(want)
    assert got.core.num_entries == want.core.num_entries
    assert got.core.num_nodes == want.core.num_nodes
    assert got.core.total_bytes == want.core.total_bytes
    assert got.core.nodes.shape[0] >= 1  # an empty pool is ONE zero row


def _assert_same_entries(got_core, got, want_core, want):
    """Looked-up entries agree: bit for bit, except lookup-table
    offsets, which agree once decoded."""
    offset = (got & np.uint64(3)) == entry_codec.TAG_OFFSET
    assert np.array_equal(offset,
                          (want & np.uint64(3)) == entry_codec.TAG_OFFSET)
    assert np.array_equal(got[~offset], want[~offset])
    for a, b in zip(got[offset].tolist(), want[offset].tolist()):
        assert got_core.decode_entry(a) == want_core.decode_entry(b)


def _check_plan_and_slices(index, slots):
    spans = legacy._plan_one(index, slots)
    shard_map = plan_shard_map({"x": index}, slots)
    assert [(r.cell_lo, r.cell_hi)
            for r in shard_map.ranges["x"]] == spans
    slices = []
    for span in spans:
        sliced = slice_index(index, [span])
        _assert_same_slice(sliced, legacy.slice_index(index, [span]))
        assert sliced.stats.indexed_cells == sliced.core.num_entries
        slices.append(sliced)
    assert (sum(s.core.num_entries for s in slices)
            == index.core.num_entries)
    return shard_map, slices


# ----------------------------------------------------------------------
# The enumeration both are built on
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fanout", FANOUTS)
def test_cell_arrays_match_the_dfs(overlap_polygons, fanout):
    index = ACTIndex.build(overlap_polygons, precision_meters=300.0,
                           fanout=fanout)
    core = index.core
    want = sorted(legacy.iter_cells(core))
    cells, entries = core.cell_arrays()
    assert cells.dtype == entries.dtype == np.uint64
    assert len(cells) == core.num_entries
    assert sorted(zip(cells.tolist(), entries.tolist())) == want
    assert sorted(core.iter_cells()) == want


# ----------------------------------------------------------------------
# Real indexes: polygon sets x grids x fanouts x slot counts
# ----------------------------------------------------------------------
_LNG0, _LAT0 = -74.0, 40.7

polygon_specs = st.lists(
    st.tuples(st.floats(-0.08, 0.08), st.floats(-0.08, 0.08),
              st.floats(0.004, 0.05), st.integers(3, 10),
              st.floats(0.0, 6.28)),
    min_size=1, max_size=5,
)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(polygon_specs, st.sampled_from(["planar", "s2like"]),
       st.sampled_from(FANOUTS), st.sampled_from(SLOTS),
       st.integers(0, 2**32 - 1))
def test_built_indexes_agree(specs, grid_name, fanout, slots, seed):
    polygons = [regular_polygon(_LNG0 + dx, _LAT0 + dy, r, n, phase)
                for dx, dy, r, n, phase in specs]
    grid = S2LikeGrid() if grid_name == "s2like" else None
    index = ACTIndex.build(polygons, precision_meters=250.0, grid=grid,
                           fanout=fanout)
    shard_map, slices = _check_plan_and_slices(index, slots)

    rng = np.random.default_rng(seed)
    lngs = rng.uniform(_LNG0 - 0.15, _LNG0 + 0.15, 300)
    lats = rng.uniform(_LAT0 - 0.15, _LAT0 + 0.15, 300)
    lngs[:20] += 90.0  # far outside the planar grid's domain
    truth = index.lookup_batch(lngs, lats)
    owner = shard_map.route("x", shard_keys(
        index.grid, lngs, lats, index.boundary_level))
    for slot, sliced in enumerate(slices):
        got = sliced.lookup_batch(lngs, lats)
        own = owner == shard_map.ranges["x"][slot].slot
        # owned points answer like the full index, unowned ones miss
        _assert_same_entries(sliced.core, got[own], index.core, truth[own])
        assert not got[~own].any()
        want = legacy.slice_index(
            index, [(shard_map.ranges["x"][slot].cell_lo,
                     shard_map.ranges["x"][slot].cell_hi)])
        _assert_same_entries(sliced.core, got, want.core,
                             want.lookup_batch(lngs, lats))


# ----------------------------------------------------------------------
# Synthetic tries: any face, any level, any boundary level, any spans
# ----------------------------------------------------------------------
def _synthetic_index(cells, fanout, boundary_level, num_faces=6):
    """An index over hand-placed ``(cell, true ids, candidate ids)``."""
    rows = {}
    for cell, true_ids, cand_ids in cells:
        # one overlapping an earlier cell would not be prefix-free
        if not any(cellid.intersects(cell, other) for other in rows):
            rows[cell] = ([entry_codec.make_ref(i, True) for i in true_ids]
                          + [entry_codec.make_ref(i, False)
                             for i in cand_ids])
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(refs) for refs in rows.values()], out=indptr[1:])
    entries, words = encode_refs(indptr, np.asarray(
        [ref for refs in rows.values() for ref in refs], dtype=np.int64))
    core = ACTCore.from_cells(np.asarray(list(rows), dtype=np.uint64),
                              entries, words, fanout, num_faces=num_faces)
    return ACTIndex(None, core, [], IndexStats(), boundary_level)


@st.composite
def synthetic_cells(draw):
    fanout = draw(st.sampled_from(FANOUTS))
    step = (fanout.bit_length() - 1) // 2
    deepest = (cellid.MAX_LEVEL // step) * step
    cells = []
    for _ in range(draw(st.integers(0, 40))):
        # a few narrow subtrees, so cells collide, nest and share keys
        face = draw(st.sampled_from((0, 0, 3, 5)))
        level = draw(st.integers(0, deepest))
        path = draw(st.integers(0, 4**min(level, 3) - 1))
        path <<= 2 * (level - min(level, 3))
        path |= draw(st.integers(0, 3)) if level else 0
        true_ids = draw(st.sets(st.integers(0, 9), max_size=3))
        cand_ids = draw(st.sets(st.integers(10, 19), max_size=3))
        if true_ids or cand_ids:
            cells.append((cellid.from_face_path(face, path, level),
                          sorted(true_ids), sorted(cand_ids)))
    return fanout, cells, draw(st.integers(0, cellid.MAX_LEVEL))


key = st.integers(0, KEY_MAX)
any_spans = st.lists(st.tuples(key, key).map(sorted).map(tuple),
                     min_size=0, max_size=3)


@settings(max_examples=150, deadline=None)
@given(synthetic_cells(), st.sampled_from(SLOTS), any_spans)
def test_synthetic_tries_agree(drawn, slots, spans):
    fanout, cells, boundary_level = drawn
    index = _synthetic_index(cells, fanout, boundary_level)
    _check_plan_and_slices(index, slots)
    # spans no planner would produce: overlapping, splitting cells
    _assert_same_slice(slice_index(index, spans),
                       legacy.slice_index(index, spans))


# ----------------------------------------------------------------------
# Named edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_slice_is_one_zero_row(self, nyc_index):
        first = min(cell for cell, _ in legacy.iter_cells(nyc_index.core))
        span = (0, cellid.range_min(first) >> 1)  # below every cell's key
        sliced = slice_index(nyc_index, [span])
        _assert_same_slice(sliced, legacy.slice_index(nyc_index, [span]))
        assert sliced.core.num_entries == sliced.core.num_nodes == 0
        assert sliced.core.nodes.shape == (1, nyc_index.core.fanout)
        assert not sliced.core.nodes.any() and not sliced.core.roots.any()
        assert sliced.memory_report()["indexed_cells"] == 0

    def test_empty_index(self):
        index = _synthetic_index([], 16, 9)
        assert _check_plan_and_slices(index, 4)[0].ranges["x"][0] \
            .cell_hi == KEY_MAX

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_face_root_that_is_itself_an_entry(self, fanout):
        step = (fanout.bit_length() - 1) // 2
        cells = [(cellid.from_face(1), [7], []),          # root == entry
                 (cellid.from_face(4), [1, 2, 3], [4]),   # ... via table
                 (cellid.from_face_path(2, 0, step), [], [5]),
                 (cellid.from_face_path(3, 0, 2 * step), [6], [8])]
        for boundary_level in (0, step, 11, 30):
            index = _synthetic_index(cells, fanout, boundary_level)
            assert index.core.roots[1] & np.uint64(3)
            for slots in SLOTS:
                _check_plan_and_slices(index, slots)

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_cells_deeper_than_the_boundary_share_a_key(self, fanout):
        step = (fanout.bit_length() - 1) // 2
        deep = 3 * step  # every cell sits below boundary level `step`
        below = 4**(deep - step)  # deep cells under one boundary cell
        cells = [(cellid.from_face_path(0, top * below + sub, deep),
                  [sub % 7], [top])
                 for top in (0, 1, 2, 4**step - 1)
                 for sub in (0, 1, below // 2, below - 1)]
        index = _synthetic_index(cells, fanout, step)
        keys = {cellid.parent(cell, step) for cell, _, _ in cells}
        assert len(keys) < len(cells)  # several cells per key
        for slots in SLOTS:
            shard_map, slices = _check_plan_and_slices(index, slots)
            # one key is never split: no more spans than keys
            assert len(shard_map.ranges["x"]) <= len(keys)

    @pytest.mark.parametrize("num_faces", [6, 8])
    def test_total_weight_past_int64(self, num_faces):
        index = _face_cells(num_faces)
        for slots in SLOTS:
            shard_map, _ = _check_plan_and_slices(index, slots)
            assert len(shard_map.ranges["x"]) == min(slots, num_faces)

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_census_shaped(self, fanout):
        for slots in SLOTS:
            _check_plan_and_slices(_census_shaped(fanout), slots)


def _face_cells(num_faces):
    """Face cells at boundary level 30 weigh 2**60 each: eight of them
    total 2**63, one past what an int64 accumulator holds — and there
    are fewer keys than the larger slot counts ask for."""
    cells = [((face << cellid.POS_BITS) | (1 << (cellid.POS_BITS - 1)),
              [face], []) for face in range(num_faces)]
    return _synthetic_index(cells, 256, 30, num_faces=num_faces)


def _census_shaped(fanout):
    """Slots one level below the boundary level, four to a key — how
    the benchmark's census index sits (fanout 256: boundary level 11,
    slots at level 12) — with keys of 1 to 4 cells and some slots
    refined a step further (pointers below the boundary level)."""
    step = (fanout.bit_length() - 1) // 2
    level = max(2, 4 // step) * step  # a slot level with room for 92 cells
    cells = []
    for key in range(23):
        for sub in range(4):
            path, n = 4 * key + sub, 7 * key + sub
            if n % 5 == 0:
                continue  # keys hold 1 to 4 cells
            if n % 6 == 1:  # this slot points one step further down
                cells += [(cellid.from_face_path(
                    2, (path << 2 * step) + deep, level + step), [n % 9], [])
                    for deep in (0, 4 ** step - 1)]
            else:
                cells.append((cellid.from_face_path(2, path, level),
                              [n % 9], [10 + key % 3]))
    return _synthetic_index(cells, fanout, level - 1)


# ----------------------------------------------------------------------
# Seeded mutants: the suite must tell a wrong planner from the right one
# ----------------------------------------------------------------------
MUTANTS = {
    "no floor past the previous cut": (
        "start, floor = found[0], found[1] + 1",
        "start, floor = found[0], 0"),
    "slots below the boundary level are keys of their own": (
        "per_key = 4 ** max(0, slot_level - bl)",
        "per_key = 1"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_planner_is_killed(mutant, monkeypatch):
    right, wrong = MUTANTS[mutant]
    source = inspect.getsource(shard._plan_one)
    assert source.count(right) == 1  # the mutation still applies
    namespace = dict(vars(shard))
    exec(source.replace(right, wrong), namespace)
    monkeypatch.setattr(shard, "_plan_one", namespace["_plan_one"])
    # killed by the oracle's spans, or before that by ShardMap's own
    # validation (a cut repeated is an inverted range)
    with pytest.raises((AssertionError, ServeError)):
        for index in [_face_cells(8)] + [_census_shaped(f) for f in FANOUTS]:
            for slots in SLOTS:
                _check_plan_and_slices(index, slots)


# ----------------------------------------------------------------------
# A slice is a file: what a worker maps is what the slicer made
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fanout", [16, 256])
def test_written_slices_load_as_sliced(overlap_polygons, fanout, tmp_path):
    index = ACTIndex.build(overlap_polygons, precision_meters=300.0,
                           fanout=fanout)
    shard_map = plan_shard_map({"x": index}, 3, generation=5)
    paths = write_slices(index, shard_map, tmp_path, "x")
    assert paths == {slot: tmp_path / f"slot{slot}.npz" for slot in range(3)}
    rng = np.random.default_rng(fanout)
    box = index.grid.bounds
    lngs = rng.uniform(box.min_x, box.max_x, 500)
    lats = rng.uniform(box.min_y, box.max_y, 500)
    for slot, path in paths.items():
        want = slice_index(index, shard_map.ranges_for_slot("x", slot))
        got = serialize.load_index(path, mmap_mode="r", verify="full")
        assert not got.core.nodes.flags.owndata  # a view of the file
        _assert_same_slice(got, want)
        cells, entries = got.core.cell_arrays()
        want_cells, want_entries = want.core.cell_arrays()
        order, want_order = np.argsort(cells), np.argsort(want_cells)
        assert np.array_equal(cells[order], want_cells[want_order])
        assert np.array_equal(entries[order], want_entries[want_order])
        assert np.array_equal(got.lookup_batch(lngs, lats),
                              want.lookup_batch(lngs, lats))
        assert got.stats.indexed_cells == want.core.num_entries
