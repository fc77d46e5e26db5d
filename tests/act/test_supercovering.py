"""Tests for super covering merge and conflict resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.act.supercovering import SuperCovering
from repro.errors import BuildError
from repro.grid import cellid
from repro.grid.coverer import Covering


def make_cell(face, i, j, level):
    return cellid.parent(cellid.from_face_ij(face, i, j), level)


def merge(pairs, g=4, max_level=28):
    """pairs: list of (polygon_id, boundary_cells, interior_cells)."""
    coverings = [(pid, Covering(sorted(b), sorted(i))) for pid, b, i in pairs]
    return SuperCovering.merge(coverings, g, max_level)


def refs_of(sc, cell):
    return sorted(set(dict(sc.items())[cell]))


class TestDedup:
    def test_identical_cells_merge_refs(self):
        cell = make_cell(0, 100, 100, 12)
        sc = merge([(0, [cell], []), (1, [cell], [])])
        assert sc.num_cells == 1
        assert refs_of(sc, cell) == [0 << 1, 1 << 1]

    def test_true_and_candidate_flags_preserved(self):
        cell = make_cell(0, 100, 100, 12)
        sc = merge([(0, [cell], []), (1, [], [cell])])
        assert refs_of(sc, cell) == [0 << 1, (1 << 1) | 1]

    def test_disjoint_cells_pass_through(self):
        a = make_cell(0, 0, 0, 12)
        b = make_cell(3, 500, 500, 12)
        sc = merge([(0, [a], []), (1, [b], [])])
        assert sc.num_cells == 2
        assert sc.num_conflict_cells == 0


class TestConflicts:
    def test_ancestor_descendant_pushdown(self):
        parent = make_cell(0, 64, 64, 10)
        child = cellid.children(parent)[2]
        sc = merge([(0, [], [parent]), (1, [child], [])])
        sc.validate_prefix_free()
        # the child cell must carry both refs
        assert refs_of(sc, child) == [(0 << 1) | 1, 1 << 1]
        # the other three siblings carry only the parent's ref
        for sibling in cellid.children(parent):
            if sibling == child:
                continue
            assert refs_of(sc, sibling) == [(0 << 1) | 1]
        assert sc.num_conflict_cells > 0

    def test_deep_conflict_tiles_remainder(self):
        top = make_cell(0, 0, 0, 8)
        deep = make_cell(0, 0, 0, 12)  # shares the min corner, 4 levels down
        assert cellid.contains(top, deep)
        sc = merge([(0, [], [top]), (1, [deep], [])])
        sc.validate_prefix_free()
        # every emitted cell is within the top cell and refs are complete:
        total_leaves = 0
        for cell, refs in sc.items():
            assert cellid.contains(top, cell)
            assert (0 << 1) | 1 in refs
            total_leaves += 1 << (2 * (cellid.MAX_LEVEL - cellid.level(cell)))
        assert total_leaves == (
            1 << (2 * (cellid.MAX_LEVEL - cellid.level(top)))
        )

    def test_three_level_chain(self):
        a = make_cell(0, 0, 0, 6)
        b = make_cell(0, 0, 0, 9)
        c = make_cell(0, 0, 0, 12)
        sc = merge([(0, [], [a]), (1, [], [b]), (2, [c], [])])
        sc.validate_prefix_free()
        assert refs_of(sc, c) == [0 << 1 | 1, 1 << 1 | 1, 2 << 1]

    def test_validate_detects_overlap(self):
        parent = make_cell(0, 64, 64, 10)
        child = cellid.children(parent)[0]
        sc = SuperCovering(np.asarray([child, parent], dtype=np.uint64),
                           np.asarray([0, 1, 2]), np.asarray([2, 0]),
                           4, 28, 0)
        with pytest.raises(BuildError):
            sc.validate_prefix_free()

    def test_too_deep_cell_rejected(self):
        deep = make_cell(0, 1, 1, 30)
        with pytest.raises(BuildError):
            merge([(0, [deep], [])])


class TestMassConservation:
    """Push-down must preserve exactly which leaves see which references."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 3),          # polygon id
                  st.integers(0, 255),        # i seed (small area -> overlap)
                  st.integers(0, 255),        # j seed
                  st.integers(4, 10),         # level
                  st.booleans()),             # interior flag
        min_size=1, max_size=12,
    ))
    def test_leaf_reference_sets_preserved(self, specs):
        per_polygon = {}
        cells_in = []
        for pid, i, j, level, interior in specs:
            cell = make_cell(0, i << 12, j << 12, level)
            cells_in.append((pid, cell, interior))
            per_polygon.setdefault(pid, ([], []))[
                1 if interior else 0].append(cell)
        # skip inputs where the same polygon overlaps itself (coverer
        # never produces that; merge may legally drop duplicated claims)
        for group in per_polygon.values():
            own = group[0] + group[1]
            own_sorted = sorted(own, key=cellid.range_min)
            for a, b in zip(own_sorted, own_sorted[1:]):
                if cellid.range_max(a) >= cellid.range_min(b):
                    return

        pairs = [(pid, b, i) for pid, (b, i) in per_polygon.items()]
        sc = merge(pairs)
        sc.validate_prefix_free()

        # probe leaves: corners of every input cell
        probes = set()
        for _, cell, _ in cells_in:
            probes.add(cellid.range_min(cell))
            probes.add(cellid.range_max(cell))
            probes.add(((cellid.range_min(cell)
                         + cellid.range_max(cell)) // 2) | 1)
        out = dict(sc.items())
        assert sorted(out, key=cellid.range_min) == sc.cells.tolist()
        for leaf in probes:
            want = set()
            for pid, cell, interior in cells_in:
                if cellid.contains(cell, leaf):
                    want.add((pid << 1) | (1 if interior else 0))
            got = set()
            for cell, refs in out.items():
                if cellid.contains(cell, leaf):
                    got.update(refs)
            assert got == want, f"leaf {leaf:#x}"
