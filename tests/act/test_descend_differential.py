"""The join kernels ISSUE 18 rewrote, held to what they replaced.

``_legacy_descend`` keeps the batch walk and the pair refinement the
engine shipped before; the scalar ``cellid.from_face_ij`` is the oracle
of the four-lookup Hilbert encode. Every comparison is bit for bit.
Two mutants — each one line of the *shipped* source replaced — show
the suite notices the bugs these rewrites invite: an orientation bit
lost between two table lookups, and path chunks read through positions
that went stale when the first point finished.
"""

import inspect
import textwrap
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _legacy_descend as legacy
from repro.act import entry as codec
from repro.act.core import SUPPORTED_FANOUTS, ACTCore, radix_geometry
from repro.act.lookup_table import LookupTable
from repro.act.serialize import load_index, save_index
from repro.grid import cellid
from repro.lint.engine import run as lint

IJ_MAX = (1 << cellid.MAX_LEVEL) - 1

faces = st.integers(0, cellid.NUM_FACES - 1)
#: the corners of a face, and everything between
coords = st.one_of(st.sampled_from([0, IJ_MAX]), st.integers(0, IJ_MAX))
face_ij = st.tuples(faces, coords, coords)


def _mutant(function, old, new):
    """``function`` recompiled from its source with ``old`` (which must
    occur exactly once) replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(function.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


# ----------------------------------------------------------------------
# Descent
# ----------------------------------------------------------------------
@st.composite
def cores(draw):
    """A core over a random prefix-free cell set, at any fanout, its
    pool either as built or an unaligned copy (what mapping an unpadded
    archive yields)."""
    fanout = draw(st.sampled_from(SUPPORTED_FANOUTS))
    indexed = {}
    for (face, i, j), level, ref in draw(st.lists(
            st.tuples(face_ij, st.integers(0, radix_geometry(fanout)[3]),
                      st.integers(0, (1 << 31) - 1)), max_size=24)):
        cell = cellid.parent(cellid.from_face_ij(face, i, j), level)
        # one overlapping an earlier cell would not be prefix-free
        if not any(cellid.intersects(cell, other) for other in indexed):
            indexed[cell] = codec.make_payload_1(ref)
    inserted = list(indexed)
    core = ACTCore.from_cells(
        np.asarray(inserted, dtype=np.uint64),
        np.asarray(list(indexed.values()), dtype=np.uint64), (), fanout)
    if draw(st.booleans()):
        raw = np.empty(core.nodes.nbytes + 8, dtype=np.uint8)
        pool = raw[1:1 + core.nodes.nbytes].view(np.uint64)
        pool = pool.reshape(core.nodes.shape)
        pool[...] = core.nodes
        assert not pool.flags.aligned
        core = ACTCore(pool, core.roots, core.lookup_table, core.fanout,
                       num_entries=core.num_entries)
    return core, inserted


def _cells(draw, inserted, max_size=40):
    """A batch of 0, 1 or n cell ids: invalid (0), leaves under indexed
    cells (hits, at every depth below the index), random leaves (mostly
    misses), and arbitrary 61-bit patterns on a real face."""
    kinds = [st.just(0),
             face_ij.map(lambda fij: cellid.from_face_ij(*fij)),
             st.tuples(faces, st.integers(0, (1 << cellid.POS_BITS) - 1))
             .map(lambda fp: (fp[0] << cellid.POS_BITS) | fp[1])]
    if inserted:
        kinds.append(
            st.tuples(st.sampled_from(inserted), st.integers(0, IJ_MAX ** 2))
            .map(lambda ct: cellid.range_min(ct[0])
                 + 2 * (ct[1] % cellid.lsb(ct[0]))))
    return np.asarray(draw(st.lists(st.one_of(kinds), max_size=max_size)),
                      dtype=np.uint64)


def assert_same_walk(descend, core, cells):
    before = cells.copy()
    got = descend(core, cells)
    assert np.array_equal(cells, before), "the batch was written to"
    assert got.dtype == np.uint64
    assert np.array_equal(got, legacy.descend(core, cells))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_descend_matches_legacy_on_random_tries(data):
    core, inserted = data.draw(cores())
    cells = _cells(data.draw, inserted)
    assert_same_walk(ACTCore._descend, core, cells)
    # and the one scalar walk agrees wherever it is defined
    for cell, entry in zip(cells.tolist(), core._descend(cells).tolist()):
        if cell:
            assert core.lookup_entry(cell) == entry


@pytest.fixture(scope="module")
def pools(tmp_path_factory, nyc_index):
    """One real index three ways: as built, mapped from the archive
    ``save_index`` writes (padded, aligned), and mapped from the same
    archive laid out as before the padding (unaligned)."""
    folder = tmp_path_factory.mktemp("pools")
    save_index(nyc_index, folder / "padded.npz")
    legacy.write_unpadded(folder / "padded.npz", folder / "unpadded.npz")
    padded = load_index(folder / "padded.npz", mmap_mode="r").core
    unpadded = load_index(folder / "unpadded.npz", mmap_mode="r").core
    assert padded.nodes.flags.aligned and not unpadded.nodes.flags.aligned
    indexed = [cell for cell, _ in islice(nyc_index.core.iter_cells(), 64)]
    return nyc_index, indexed, (nyc_index.core, padded, unpadded)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_descend_matches_legacy_on_eager_and_mapped_pools(pools, data):
    index, indexed, three = pools
    cells = _cells(data.draw, indexed)
    want = legacy.descend(index.core, cells)
    for core in three:
        assert_same_walk(ACTCore._descend, core, cells)
        assert np.array_equal(core.lookup_entries(cells), want)


def test_descend_matches_legacy_on_a_large_batch(pools, taxi_batch):
    index, _, three = pools
    cells = index.grid.leaf_cells_batch(*taxi_batch)
    assert (cells == 0).any() and (cells != 0).any()
    inside = cells[cells != 0]  # dense from the first step to the last
    for core in three:
        assert_same_walk(ACTCore._descend, core, cells)
        assert_same_walk(ACTCore._descend, core, inside)


def test_pointer_chain_past_max_steps_is_a_miss():
    """A malformed pool whose pointers never end: both walks give up
    after ``max_steps`` and answer 0."""
    fanout = 256
    steps = radix_geometry(fanout)[2]
    nodes = np.empty((steps, fanout), dtype=np.uint64)
    for row in range(steps):
        nodes[row] = codec.make_pointer(min(row + 1, steps - 1))
    roots = np.zeros(cellid.NUM_FACES, dtype=np.uint64)
    roots[0] = codec.make_pointer(0)
    core = ACTCore(nodes, roots, LookupTable(), fanout)
    cells = np.asarray([cellid.from_face_ij(0, 5, 9), 0,
                        cellid.from_face_ij(1, 5, 9)], dtype=np.uint64)
    assert_same_walk(ACTCore._descend, core, cells)
    assert core._descend(cells).tolist() == [0, 0, 0]


def test_mutant_stale_positions_is_killed(pools, taxi_batch):
    """Chunks read at the first ``len(active)`` batch positions instead
    of the active ones: right while every point walks, wrong (but in
    bounds, so silently) from the step after the first one finishes."""
    mutant = _mutant(ACTCore._descend,
                     "chunk = cells[idx] >> np.uint64(shift)",
                     "chunk = cells[:index.size] >> np.uint64(shift)")
    index, _, three = pools
    cells = index.grid.leaf_cells_batch(*taxi_batch)
    assert_same_walk(mutant, three[0], cells[:1])  # a live mutant
    with pytest.raises(AssertionError):
        assert_same_walk(mutant, three[0], cells)


# ----------------------------------------------------------------------
# Hilbert encode
# ----------------------------------------------------------------------
def assert_same_encode(encode, triples):
    f, i, j = (np.asarray(column, dtype=np.int64)
               for column in zip(*triples))
    got = encode(f, i, j)
    assert got.dtype == np.uint64
    assert got.tolist() == [cellid.from_face_ij(*t) for t in triples]


@settings(max_examples=300, deadline=None)
@given(st.lists(face_ij, min_size=1, max_size=30))
def test_from_face_ij_batch_matches_scalar(triples):
    assert_same_encode(cellid.from_face_ij_batch, triples)


def test_from_face_ij_batch_on_every_face_corner(rng):
    triples = [(face, i, j) for face in range(cellid.NUM_FACES)
               for i in (0, IJ_MAX) for j in (0, IJ_MAX)]
    triples += [(int(face), int(i), int(j)) for face, i, j in zip(
        rng.integers(0, cellid.NUM_FACES, 2000),
        rng.integers(0, IJ_MAX + 1, 2000),
        rng.integers(0, IJ_MAX + 1, 2000))]
    assert_same_encode(cellid.from_face_ij_batch, triples)


def test_mutant_orientation_carry_is_killed():
    """The invert bit dropped between two lookups (only swap carried)."""
    mutant = _mutant(cellid.from_face_ij_batch,
                     "bits &= np.uint32(3)", "bits &= np.uint32(1)")
    assert_same_encode(mutant, [(0, 0, 0)])  # a live mutant
    with pytest.raises(AssertionError):
        assert_same_encode(mutant, [(0, IJ_MAX, 0), (3, 12345, 678910)])


# ----------------------------------------------------------------------
# Refinement
# ----------------------------------------------------------------------
def test_refine_pairs_on_duplicated_pairs(overlap_index, taxi_batch):
    """Pairs repeated four times over: one verdict per pair, equal to
    the raw packed kernel's, to what the collapsing path answered, and
    to scalar point-in-polygon."""
    lngs, lats = (np.asarray(column, dtype=np.float64)
                  for column in taxi_batch)
    executor = overlap_index.executor
    point_idx, polygon_ids = overlap_index.core.candidate_pairs(
        executor.entries(lngs, lats))
    assert point_idx.size >= 64
    point_idx = np.tile(point_idx, 4)
    polygon_ids = np.tile(polygon_ids, 4)
    inside = executor.refine_pairs(point_idx, polygon_ids, lngs, lats)
    assert inside.dtype == bool and inside.any() and not inside.all()
    assert np.array_equal(inside, executor.edge_table.refine(
        point_idx, polygon_ids, lngs, lats))
    assert np.array_equal(inside, legacy.refine_pairs(
        executor, point_idx, polygon_ids, lngs, lats))
    assert inside.tolist() == [
        overlap_index.polygons[pid].contains(lngs[k], lats[k])
        for k, pid in zip(point_idx.tolist(), polygon_ids.tolist())]


def test_row_wise_unique_in_refine_pairs_is_flagged(tmp_path):
    """RL003: the collapsing path does not come back unnoticed."""
    source = inspect.getsource(legacy.refine_pairs)
    target = tmp_path / "executor.py"
    target.write_text("import numpy as np\n" + source)
    findings = lint([target], root=tmp_path).findings
    assert [(f.rule, f.line) for f in findings] == [
        ("RL003", 2 + [line.strip() for line in source.splitlines()].index(
            "_, first, inverse = np.unique(keys, axis=0, return_index=True,"))]
    assert "`refine_pairs`" in findings[0].message
