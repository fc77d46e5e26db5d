"""Unit and property tests for the 64-bit cell id algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidCellError
from repro.grid import cellid

faces = st.integers(0, 5)
ij30 = st.integers(0, (1 << 30) - 1)
levels = st.integers(0, 30)


def random_cell(face, i, j, level):
    return cellid.parent(cellid.from_face_ij(face, i, j), level)


class TestConstruction:
    def test_from_face_level_zero(self):
        for face in range(6):
            cell = cellid.from_face(face)
            assert cellid.level(cell) == 0
            assert cellid.face(cell) == face
            assert cellid.is_face(cell)

    def test_from_face_invalid(self):
        with pytest.raises(InvalidCellError):
            cellid.from_face(6)

    def test_leaf_is_level_30(self):
        leaf = cellid.from_face_ij(2, 12345, 67890)
        assert cellid.level(leaf) == 30
        assert cellid.is_leaf(leaf)
        assert cellid.is_valid(leaf)

    @given(faces, ij30, ij30)
    def test_face_ij_roundtrip(self, face, i, j):
        leaf = cellid.from_face_ij(face, i, j)
        assert cellid.to_face_ij(leaf) == (face, i, j)

    @given(faces, ij30, ij30, levels)
    def test_from_face_path_consistent_with_parent(self, face, i, j, level):
        leaf = cellid.from_face_ij(face, i, j)
        ancestor = cellid.parent(leaf, level)
        path, bits = cellid.path_key(ancestor)
        assert bits == 2 * level
        assert cellid.from_face_path(face, path, level) == ancestor


class TestStructure:
    @given(faces, ij30, ij30, st.integers(1, 30))
    def test_parent_contains_child(self, face, i, j, level):
        leaf = cellid.from_face_ij(face, i, j)
        cell = cellid.parent(leaf, level)
        parent = cellid.parent(cell)
        assert cellid.level(parent) == level - 1
        assert cellid.contains(parent, cell)
        assert not cellid.contains(cell, parent)

    @given(faces, ij30, ij30, st.integers(0, 29))
    def test_children_partition_parent(self, face, i, j, level):
        cell = random_cell(face, i, j, level)
        kids = cellid.children(cell)
        assert len(set(kids)) == 4
        lo = cellid.range_min(cell)
        for kid in kids:
            assert cellid.parent(kid, level) == cell
            assert cellid.range_min(kid) == lo
            lo = cellid.range_max(kid) + 2
        assert lo - 2 == cellid.range_max(cell)

    def test_children_of_leaf_raises(self):
        leaf = cellid.from_face_ij(0, 0, 0)
        with pytest.raises(InvalidCellError):
            cellid.children(leaf)

    @given(faces, ij30, ij30)
    def test_range_min_max_are_leaves(self, face, i, j):
        cell = random_cell(face, i, j, 10)
        assert cellid.is_leaf(cellid.range_min(cell))
        assert cellid.is_leaf(cellid.range_max(cell))

    @given(faces, ij30, ij30, levels, faces, ij30, ij30, levels)
    @settings(max_examples=300)
    def test_containment_iff_range_nesting(self, f1, i1, j1, l1,
                                           f2, i2, j2, l2):
        a = random_cell(f1, i1, j1, l1)
        b = random_cell(f2, i2, j2, l2)
        ranges_nested = (cellid.range_min(a) <= cellid.range_min(b)
                         and cellid.range_max(b) <= cellid.range_max(a))
        assert cellid.contains(a, b) == ranges_nested
        assert cellid.intersects(a, b) == (
            cellid.contains(a, b) or cellid.contains(b, a)
        )

    @given(faces, ij30, ij30, st.integers(1, 30))
    def test_child_position_recovers_path(self, face, i, j, level):
        cell = random_cell(face, i, j, level)
        rebuilt = cellid.from_face(face)
        for lvl in range(1, level + 1):
            rebuilt = cellid.child(rebuilt, cellid.child_position(cell, lvl))
        assert rebuilt == cell


class TestValidity:
    def test_zero_invalid(self):
        assert not cellid.is_valid(0)

    def test_bad_face_invalid(self):
        leaf = cellid.from_face_ij(0, 5, 5)
        assert not cellid.is_valid(leaf | (7 << cellid.POS_BITS))

    def test_even_trailing_zero_required(self):
        leaf = cellid.from_face_ij(0, 5, 5)
        assert not cellid.is_valid(leaf << 1)  # odd trailing zeros

    @given(faces, ij30, ij30, levels)
    def test_all_constructed_cells_valid(self, face, i, j, level):
        assert cellid.is_valid(random_cell(face, i, j, level))


class TestDenormalize:
    @given(faces, ij30, ij30, st.integers(0, 26))
    @settings(max_examples=100)
    def test_denormalize_partitions_range(self, face, i, j, level):
        cell = random_cell(face, i, j, level)
        target = min(30, level + 2)
        descendants = cellid.denormalize(cell, target)
        assert len(descendants) == 4 ** (target - level)
        assert descendants == sorted(descendants)
        lo = cellid.range_min(cell)
        for d in descendants:
            assert cellid.level(d) == target
            assert cellid.range_min(d) == lo
            lo = cellid.range_max(d) + 2
        assert lo - 2 == cellid.range_max(cell)

    def test_denormalize_same_level_identity(self):
        cell = random_cell(1, 99, 77, 8)
        assert cellid.denormalize(cell, 8) == [cell]

    def test_denormalize_up_raises(self):
        cell = random_cell(1, 99, 77, 8)
        with pytest.raises(InvalidCellError):
            cellid.denormalize(cell, 7)

    def test_expand_to_level(self):
        cells = [random_cell(0, 1, 1, 4), random_cell(0, 900000, 5, 5)]
        out = cellid.expand_to_level(cells, 6)
        assert len(out) == 16 + 4


class TestTokens:
    @given(faces, ij30, ij30, levels)
    def test_token_roundtrip(self, face, i, j, level):
        cell = random_cell(face, i, j, level)
        assert cellid.from_token(cellid.to_token(cell)) == cell

    def test_zero_token(self):
        assert cellid.to_token(0) == "X"
        assert cellid.from_token("X") == 0

    def test_bad_token_raises(self):
        with pytest.raises(InvalidCellError):
            cellid.from_token("not-hex!")
        with pytest.raises(InvalidCellError):
            cellid.from_token("0" * 17)


class TestBatchOps:
    def test_from_face_ij_batch_matches_scalar(self, rng):
        faces_arr = rng.integers(0, 6, 500)
        i = rng.integers(0, 1 << 30, 500)
        j = rng.integers(0, 1 << 30, 500)
        batch = cellid.from_face_ij_batch(faces_arr, i, j)
        for k in range(0, 500, 11):
            assert int(batch[k]) == cellid.from_face_ij(
                int(faces_arr[k]), int(i[k]), int(j[k])
            )

    def test_level_batch_matches_scalar(self, rng):
        cells = []
        for _ in range(200):
            leaf = cellid.from_face_ij(
                int(rng.integers(0, 6)),
                int(rng.integers(0, 1 << 30)),
                int(rng.integers(0, 1 << 30)),
            )
            cells.append(cellid.parent(leaf, int(rng.integers(0, 31))))
        arr = np.asarray(cells, dtype=np.uint64)
        lv = cellid.level_batch(arr)
        assert lv.tolist() == [cellid.level(c) for c in cells]

    def test_parent_batch_matches_scalar(self, rng):
        leaves = cellid.from_face_ij_batch(
            rng.integers(0, 6, 300),
            rng.integers(0, 1 << 30, 300),
            rng.integers(0, 1 << 30, 300),
        )
        parents = cellid.parent_batch(leaves, 12)
        for k in range(0, 300, 13):
            assert int(parents[k]) == cellid.parent(int(leaves[k]), 12)

    def test_parent_batch_leaves_its_input_alone(self, rng):
        cells = cellid.from_face_ij_batch(
            rng.integers(0, 6, 50), rng.integers(0, 1 << 30, 50),
            rng.integers(0, 1 << 30, 50))
        before = cells.copy()
        cellid.parent_batch(cells, 7)
        cellid.lsb_batch(cells)
        assert np.array_equal(cells, before)

    def test_lsb_and_from_face_batch_match_scalar(self, rng):
        leaves = cellid.from_face_ij_batch(
            rng.integers(0, 6, 200), rng.integers(0, 1 << 30, 200),
            rng.integers(0, 1 << 30, 200))
        cells = cellid.parent_batch(leaves, 9)
        assert (cellid.lsb_batch(cells).tolist()
                == [cellid.lsb(c) for c in cells.tolist()])
        assert (cellid.from_face_batch(np.arange(6)).tolist()
                == [cellid.from_face(f) for f in range(6)])

    @pytest.mark.parametrize("levels", [1, 2, 4])
    def test_descendant_batch_is_denormalize(self, levels):
        for cell in (cellid.from_face(5),
                     cellid.from_face_path(3, 0b1101, 2),
                     cellid.from_face_path(0, 4**26 - 1, 26)):
            want = cellid.denormalize(cell, cellid.level(cell) + levels)
            got = cellid.descendant_batch(
                np.array([[cell]], dtype=np.uint64),
                np.arange(4**levels), levels)
            assert got.shape == (1, 4**levels)
            assert got[0].tolist() == want
