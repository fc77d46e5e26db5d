"""The array-native build vs the object-trie build it replaced.

``ACTIndex.build`` now goes coverings -> ``merge_columns`` (sorted
super-covering columns) -> ``encode_refs`` (entries + lookup-table
words) -> ``ACTCore.from_cells`` (the node pool); ``_legacy_build``
keeps what that replaced — dict-of-lists merge, one
``AdaptiveCellTrie.insert`` per cell, one ``LookupTable.intern`` per
set, ``export_arrays``. Everything is held to it **bit for bit**: the
node pool, the roots, the entry count, the lookup-table words (same
sets, same numbering) and the stats counts — on generated cell sets at
every fanout and on the fixture datasets on both grids. ``from_cells``
is also held to being the inverse of ``cell_arrays``. Two mutants —
one line of the *shipped* source replaced each — show the suite
notices the bugs this rewrite invites.
"""

import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import _legacy_build as legacy
from repro.act import lookup_table
from repro.act.builder import ACTBuilder
from repro.act.core import SUPPORTED_FANOUTS, ACTCore, radix_geometry
from repro.act.supercovering import SuperCovering
from repro.grid import cellid
from repro.grid.coverer import Covering, RegionCoverer
from repro.grid.planar import PlanarGrid
from repro.grid.s2like import S2LikeGrid
from repro.serve.shard import plan_shard_map, slice_index


def _mutant(function, old, new):
    """``function`` recompiled from its source with ``old`` (which must
    occur exactly once) replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(source.replace(old, new), namespace)
    made = namespace[function.__name__]
    return getattr(made, "__func__", made)  # a classmethod's function


def assert_same_core(got, want):
    assert got.nodes.dtype == want.nodes.dtype == np.uint64
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.roots, want.roots)
    assert got.num_entries == want.num_entries
    assert got.num_nodes == want.num_nodes
    assert got.lookup_table.words.dtype == np.uint32
    assert np.array_equal(got.lookup_table.words, want.lookup_table.words)


# ----------------------------------------------------------------------
# Generated cell sets: encode + layout
# ----------------------------------------------------------------------
@st.composite
def cell_rows(draw):
    """``(fanout, {cell: packed refs})``, prefix-free: every fanout,
    several faces, face roots themselves, levels on and off the node
    granularity, one reference to many (a polygon under both flags
    too), subtrees narrow enough that cells share nodes and sets."""
    fanout = draw(st.sampled_from(SUPPORTED_FANOUTS))
    deepest = radix_geometry(fanout)[3]
    rows = {}
    for _ in range(draw(st.integers(0, 30))):
        face = draw(st.sampled_from((0, 0, 3, 5)))
        level = draw(st.integers(0, deepest))
        path = draw(st.integers(0, 4**min(level, 3) - 1))
        path <<= 2 * (level - min(level, 3))
        path |= draw(st.integers(0, 3)) if level else 0
        cell = cellid.from_face_path(face, path, level)
        refs = draw(st.lists(st.integers(0, 11), min_size=1, max_size=6))
        if not any(cellid.intersects(cell, other) for other in rows):
            rows[cell] = refs  # packed: ids 0..5, either flag
    return fanout, rows


def build_new(rows, fanout, use_interior, order,
              encode=lookup_table.encode_refs,
              from_cells=ACTCore.from_cells.__func__):
    """The shipped back half over ``rows``; ``order`` permutes what
    ``from_cells`` is handed (it must not care)."""
    cells = sorted(rows)
    counts = [len(rows[cell]) for cell in cells]
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    refs = np.asarray([ref for cell in cells for ref in rows[cell]],
                      dtype=np.int64)
    entries, words = encode(indptr, refs, use_interior)
    order = np.asarray(order, dtype=np.int64)
    return from_cells(ACTCore, np.asarray(cells, dtype=np.uint64)[order],
                      entries[order], words, fanout)


def build_legacy(rows, fanout, use_interior):
    trie = legacy.AdaptiveCellTrie(fanout)
    table = legacy.LookupTable()
    legacy.insert_cells(trie, table, {cell: rows[cell]
                                      for cell in sorted(rows)},
                        use_interior)
    return legacy.core_from_trie(trie, table)


def check_cell_rows(drawn, use_interior, data, **shipped):
    fanout, rows = drawn
    order = data.draw(st.permutations(range(len(rows))))
    got = build_new(rows, fanout, use_interior, order, **shipped)
    want = build_legacy(rows, fanout, use_interior)
    assert_same_core(got, want)
    for cell in rows:
        for leaf in (cellid.range_min(cell), cellid.range_max(cell)):
            assert (got.decode_entry(got.lookup_entry(leaf))
                    == want.decode_entry(want.lookup_entry(leaf)))


@settings(max_examples=200, deadline=None)
@given(cell_rows(), st.booleans(), st.data())
def test_generated_cell_sets_build_identically(drawn, use_interior, data):
    check_cell_rows(drawn, use_interior, data)


def _killed(**shipped):
    """Whether the generated-cell-set check fails for this mutant."""
    @settings(max_examples=200, deadline=None, database=None,
              phases=[Phase.generate], report_multiple_bugs=False)
    @given(cell_rows(), st.booleans(), st.data())
    def run(drawn, use_interior, data):
        check_cell_rows(drawn, use_interior, data, **shipped)
    try:
        run()
    except AssertionError:
        return True
    return False


def test_mutant_short_denormalized_span_is_killed():
    """A cell off the granularity fills ``4**d`` slots, not ``2**d``."""
    assert _killed(from_cells=_mutant(
        ACTCore.from_cells.__func__,
        "span = np.int64(1) << (2 * (home + step - levels))",
        "span = np.int64(1) << (home + step - levels)"))


def test_mutant_lost_true_hit_dominance_is_killed():
    """A polygon referenced under both flags keeps only its true hit."""
    assert _killed(encode=_mutant(
        lookup_table.encode_refs,
        "keys = np.delete(keys, dominated)", "keys = keys[:]"))


# ----------------------------------------------------------------------
# Generated coverings: the merge, conflicts included
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3),          # polygon id
              st.sampled_from((0, 4)),    # face
              st.integers(0, 255),        # i seed (small area -> overlap)
              st.integers(0, 255),        # j seed
              st.integers(0, 10),         # level
              st.booleans()),             # interior flag
    min_size=0, max_size=14))
def test_generated_coverings_merge_identically(specs):
    coverings = [Covering() for _ in range(4)]
    for pid, face, i, j, level, interior in specs:
        cell = cellid.parent(
            cellid.from_face_ij(face, i << 12, j << 12), level)
        (coverings[pid].interior if interior
         else coverings[pid].boundary).append(cell)
    want, want_conflicts = legacy.merge(enumerate(coverings), 28)
    got = SuperCovering.merge(enumerate(coverings), 4, 28)
    got.validate_prefix_free()
    assert got.cells.tolist() == list(want)  # same cells, same order
    assert got.num_conflict_cells == want_conflicts
    for (cell, refs), want_refs in zip(got.items(), want.values()):
        assert sorted(refs) == sorted(want_refs), cellid.to_token(cell)


# ----------------------------------------------------------------------
# The fixture datasets: whole builds, both grids, every fanout
# ----------------------------------------------------------------------
PRECISION = 300.0


@pytest.fixture(scope="module")
def covered(nyc_polygons, overlap_polygons):
    """``{(dataset, grid name): (polygons, grid, coverings)}``: the
    coverings are the build's shared front half, computed once."""
    out = {}
    for name, polygons in (("nyc", nyc_polygons),
                           ("overlap", overlap_polygons)):
        for grid in (PlanarGrid.for_polygons(polygons), S2LikeGrid()):
            level = grid.level_for_precision(PRECISION)
            coverer = RegionCoverer(grid)
            out[name, grid.name] = (polygons, grid, [
                coverer.cover(polygon, level) for polygon in polygons])
    return out


@pytest.mark.parametrize("use_interior", [True, False])
@pytest.mark.parametrize("fanout", SUPPORTED_FANOUTS)
@pytest.mark.parametrize("grid_name", ["planar", "s2like"])
@pytest.mark.parametrize("dataset", ["nyc", "overlap"])
def test_fixture_builds_are_identical(covered, monkeypatch, dataset,
                                      grid_name, fanout, use_interior):
    polygons, grid, coverings = covered[dataset, grid_name]
    by_polygon = {id(p): c for p, c in zip(polygons, coverings)}
    builder = ACTBuilder(grid, fanout=fanout, use_interior=use_interior)
    monkeypatch.setattr(builder, "_cover",
                        lambda polygon, level: by_polygon[id(polygon)])
    result = builder.build(polygons, PRECISION)
    want, table, conflicts = legacy.build(coverings, fanout, use_interior)
    assert_same_core(result.core, want)
    stats = result.stats
    assert stats.indexed_cells == want.num_entries > 0
    assert stats.trie_nodes == want.num_nodes > 0
    assert stats.conflict_cells == conflicts
    assert stats.lookup_table_sets == table.num_unique_sets
    assert stats.lookup_table_bytes == table.size_bytes
    if dataset == "overlap":
        assert conflicts > 0 and table.num_unique_sets > 0


# ----------------------------------------------------------------------
# from_cells is the inverse of cell_arrays
# ----------------------------------------------------------------------
def assert_round_trips(core):
    again = ACTCore.from_cells(*core.cell_arrays(), core.lookup_table.words,
                               core.fanout, num_faces=len(core.roots))
    assert_same_core(again, core)


@pytest.mark.parametrize("fanout", SUPPORTED_FANOUTS)
def test_from_cells_inverts_cell_arrays(overlap_polygons, fanout):
    index = ACTBuilder(PlanarGrid.for_polygons(overlap_polygons),
                       fanout=fanout).build(overlap_polygons, PRECISION)
    assert_round_trips(index.core)


def test_from_cells_inverts_cell_arrays_of_slices(nyc_index, overlap_index):
    for index in (nyc_index, overlap_index):
        shard_map = plan_shard_map({"x": index}, 3)
        for shard in shard_map.ranges["x"]:
            sliced = slice_index(index, [(shard.cell_lo, shard.cell_hi)])
            assert sliced.core.num_entries > 0
            assert_round_trips(sliced.core)
    # ... and of the slice that owns nothing: one zero row
    assert_round_trips(slice_index(nyc_index, []).core)
