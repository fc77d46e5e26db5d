"""Unit and property tests for the radix tree ``ACTCore.from_cells``
lays out (they predate it: the object trie these were written against
is gone, the behaviours are not)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.act import entry as codec
from repro.act.core import (KEY_BITS, SUPPORTED_FANOUTS, ACTCore,
                            radix_geometry)
from repro.errors import BuildError
from repro.grid import cellid

faces = st.integers(0, 5)
ij30 = st.integers(0, (1 << 30) - 1)


def make_cell(face, i, j, level):
    return cellid.parent(cellid.from_face_ij(face, i, j), level)


def entry_for(pid):
    return codec.make_payload_1(codec.make_ref(pid, True))


def tree(pairs=(), fanout=256):
    """The core over ``(cell, entry)`` pairs, in the order given."""
    pairs = list(pairs)
    return ACTCore.from_cells(
        np.asarray([cell for cell, _ in pairs], dtype=np.uint64),
        np.asarray([entry for _, entry in pairs], dtype=np.uint64),
        (), fanout)


class TestConstruction:
    def test_unsupported_fanout(self):
        with pytest.raises(BuildError):
            tree(fanout=8)
        with pytest.raises(BuildError):
            radix_geometry(512)

    @pytest.mark.parametrize("fanout", SUPPORTED_FANOUTS)
    def test_geometry_parameters(self, fanout):
        core = tree(fanout=fanout)
        assert core.fanout == fanout
        assert 2 ** core.bits_per_step == fanout
        assert core.max_steps == KEY_BITS // core.bits_per_step
        assert core.max_cell_level == core.max_steps * core.levels_per_step
        assert radix_geometry(fanout) == (
            core.bits_per_step, core.levels_per_step, core.max_steps,
            core.max_cell_level)

    def test_paper_default_parameters(self):
        """Fanout 256: 8 bits per node, ceil(60/8)=8 accesses incl. face."""
        core = tree(fanout=256)
        assert core.levels_per_step == 4
        assert core.max_steps == 7
        assert core.max_cell_level == 28

    def test_empty_trie_metrics(self):
        core = tree()
        assert core.num_nodes == 0
        assert core.size_bytes == 0
        assert core.num_entries == 0
        assert core.nodes.shape == (1, 256) and not core.nodes.any()


class TestInsertLookup:
    def test_single_cell(self):
        cell = make_cell(1, 1000, 2000, 12)
        core = tree([(cell, entry_for(5))])
        leaf = cellid.range_min(cell)
        assert core.lookup_entry(leaf) == entry_for(5)
        assert core.lookup_entry(cellid.range_max(cell)) == entry_for(5)

    def test_miss_outside_cell(self):
        cell = make_cell(1, 1000, 2000, 12)
        core = tree([(cell, entry_for(5))])
        outside = cellid.range_max(cell) + 2
        assert core.lookup_entry(outside) == codec.SENTINEL
        assert core.lookup_entry(cellid.from_face_ij(4, 0, 0)) == codec.SENTINEL

    def test_face_root_cell(self):
        core = tree([(cellid.from_face(3), entry_for(9))])
        leaf = cellid.from_face_ij(3, 123, 456)
        assert core.lookup_entry(leaf) == entry_for(9)
        assert core.lookup_entry(cellid.from_face_ij(2, 0, 0)) == 0
        assert core.num_nodes == 0 and core.num_entries == 1

    def test_duplicate_insert_raises(self):
        cell = make_cell(0, 5, 5, 8)
        with pytest.raises(BuildError):
            tree([(cell, entry_for(1)), (cell, entry_for(2))])

    def test_ancestor_conflict_raises(self):
        cell = make_cell(0, 5, 5, 8)
        with pytest.raises(BuildError):
            tree([(cell, entry_for(1)),
                  (cellid.children(cell)[0], entry_for(2))])

    def test_descendant_conflict_raises(self):
        cell = make_cell(0, 5, 5, 8)
        with pytest.raises(BuildError):
            tree([(cellid.children(cell)[0], entry_for(1)),
                  (cell, entry_for(2))])

    def test_distant_descendant_conflict_raises(self):
        """The overlapping pair need not be neighbours in the input, nor
        share a node: a face root over a level-20 cell."""
        with pytest.raises(BuildError):
            tree([(make_cell(2, 9, 9, 20), entry_for(1)),
                  (make_cell(3, 1, 1, 8), entry_for(2)),
                  (cellid.from_face(2), entry_for(3))])

    def test_pointer_entry_rejected(self):
        with pytest.raises(BuildError):
            tree([(make_cell(0, 1, 1, 8), codec.make_pointer(3))])
        with pytest.raises(BuildError):
            tree([(make_cell(0, 1, 1, 8), codec.SENTINEL)])

    def test_too_deep_cell_rejected(self):
        with pytest.raises(BuildError):
            tree([(make_cell(0, 1, 1, 29), entry_for(1))], fanout=256)

    def test_invalid_cells_rejected(self):
        with pytest.raises(BuildError):
            tree([(0, entry_for(1))])  # not a cell id
        with pytest.raises(BuildError):
            tree([(7 << cellid.POS_BITS | 1, entry_for(1))])  # face 7 of 6

    def test_siblings_do_not_conflict(self):
        parent = make_cell(0, 77, 77, 10)
        children = cellid.children(parent)
        core = tree((child, entry_for(k))
                    for k, child in enumerate(children))
        for k, child in enumerate(children):
            assert core.lookup_entry(cellid.range_min(child)) == entry_for(k)


class TestDenormalization:
    def test_unaligned_cell_entry_count(self):
        """A level-9 cell at fanout 256 denormalizes to 4^3 slots."""
        core = tree([(make_cell(0, 50, 60, 9), entry_for(3))])
        assert core.num_entries == 4 ** 3

    def test_unaligned_lookup_hits_everywhere(self, rng):
        cell = make_cell(2, 123456, 654321, 13)
        core = tree([(cell, entry_for(7))])
        lo = cellid.range_min(cell)
        hi = cellid.range_max(cell)
        for _ in range(50):
            leaf = (int(rng.integers(lo, hi + 1)) | 1)
            assert core.lookup_entry(leaf) == entry_for(7)
        assert core.lookup_entry(hi + 2) == codec.SENTINEL
        assert core.lookup_entry(lo - 2) == codec.SENTINEL

    def test_denormalized_range_conflict_detected(self):
        cell = make_cell(0, 99, 99, 9)
        with pytest.raises(BuildError):
            tree([(cellid.children(cell)[1], entry_for(1)),  # level 10
                  (cell, entry_for(2))])

    def test_denormalization_adds_no_nodes(self):
        """The paper trade-off: denormalization replicates payloads but the
        descendants share one node."""
        aligned = tree([(make_cell(0, 4096, 4096, 12), entry_for(1))])
        unaligned = tree([(make_cell(0, 4096, 4096, 13), entry_for(1))])
        assert unaligned.num_nodes == aligned.num_nodes + 1


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(faces, ij30, ij30, st.integers(0, 16)),
                min_size=1, max_size=40),
       st.sampled_from(SUPPORTED_FANOUTS))
def test_trie_equals_bruteforce_cell_map(specs, fanout):
    """ACT lookup == brute-force 'which indexed cell contains this leaf'.

    The cells are made prefix-free first (mirroring the super covering
    contract); lookups of range endpoints and midpoints must agree with
    the brute-force scan for every indexed cell.
    """
    cells = {}
    for face, i, j, level in specs:
        cell = make_cell(face, i, j, min(level, 16))
        cells[cell] = None
    # drop cells nested inside others (prefix-free family)
    unique = sorted(cells, key=cellid.range_min)
    kept = []
    for cell in unique:
        if kept and cellid.range_max(kept[-1]) >= cellid.range_min(cell):
            continue
        kept.append(cell)

    expected = {cell: entry_for(pid) for pid, cell in enumerate(kept)}
    core = tree(expected.items(), fanout)

    probes = []
    for cell in kept:
        lo = cellid.range_min(cell)
        hi = cellid.range_max(cell)
        probes.extend([(lo, expected[cell]), (hi, expected[cell]),
                       (((lo + hi) // 2) | 1, expected[cell])])
        probes.append((hi + 2 if hi + 2 < (1 << 64) else lo - 2, None))
    for leaf, want in probes:
        if not cellid.is_valid(leaf) or not cellid.is_leaf(leaf):
            continue
        got = core.lookup_entry(leaf)
        if want is None:
            brute = next((expected[c] for c in kept
                          if cellid.contains(c, leaf)), codec.SENTINEL)
            assert got == brute
        else:
            assert got == want


class TestIntrospection:
    def test_iter_cells_roundtrip_aligned(self):
        indexed = {
            make_cell(0, 10, 10, 8): entry_for(0),
            make_cell(1, 99, 3, 12): entry_for(1),
            make_cell(5, 7, 7, 4): entry_for(2),
        }
        assert dict(tree(indexed.items()).iter_cells()) == indexed

    def test_iter_cells_expands_denormalized(self):
        core = tree([(make_cell(0, 10, 10, 9), entry_for(0))])
        recovered = list(core.iter_cells())
        assert len(recovered) == 64  # enumerated post-denormalization
        assert all(cellid.level(c) == 12 for c, _ in recovered)

    def test_node_accesses_bounded(self):
        cell = make_cell(0, 10, 10, 16)
        core = tree([(cell, entry_for(0))])
        accesses = core.node_accesses(cellid.range_min(cell))
        assert 1 <= accesses <= core.max_steps

    def test_export_arrays_shapes(self):
        core = tree([(make_cell(0, 10, 10, 8), entry_for(0))])
        assert core.nodes.shape == (core.num_nodes, 256)
        assert core.nodes.dtype == core.roots.dtype == np.uint64
        assert core.roots.shape == (6,)

    def test_size_bytes_layout(self):
        core = tree([(make_cell(0, 10, 10, 8), entry_for(0))])
        assert core.size_bytes == core.num_nodes * 256 * 8
