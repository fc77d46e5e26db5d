"""Unit tests for the deduplicated lookup table and the encoder that
writes it."""

import numpy as np
import pytest

from repro.act import entry as codec
from repro.act.lookup_table import LookupTable, encode_refs
from repro.errors import CapacityError


def encode(*rows, use_interior=True):
    """``(entries, table)`` for rows of packed references."""
    rows = [list(row) for row in rows]
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    refs = np.asarray([ref for row in rows for ref in row], dtype=np.int64)
    entries, words = encode_refs(indptr.astype(np.int64), refs,
                                 use_interior)
    return entries.tolist(), LookupTable(words)


def intern(*sets):
    """``(offsets, table)`` for ``(true_ids, candidate_ids)`` sets of
    three or more references."""
    entries, table = encode(*(
        [codec.make_ref(i, True) for i in true_ids]
        + [codec.make_ref(i, False) for i in cand_ids]
        for true_ids, cand_ids in sets))
    assert all(codec.tag(e) == codec.TAG_OFFSET for e in entries)
    return [codec.offset_value(e) for e in entries], table


class TestIntern:
    def test_encoding_layout(self):
        (offset,), table = intern(([3, 1], [7]))
        # [n_true, true..., n_cand, cand...] with sorted ids
        assert table.words.tolist() == [2, 1, 3, 1, 7]
        assert offset == 0

    def test_get_roundtrip(self):
        (offset,), table = intern(([5, 2, 9], [1, 4]))
        true_ids, cand_ids = table.get(offset)
        assert true_ids == (2, 5, 9)
        assert cand_ids == (1, 4)

    def test_deduplication(self):
        (a, b), table = intern(([1, 2], [3]),
                               ([2, 1], [3]))  # same set, different order
        assert a == b
        assert table.num_unique_sets == 1

    def test_distinct_sets_get_new_offsets(self):
        (a, b), table = intern(([1], [2, 3]),
                               ([1, 2], [3]))  # same ids, different split
        assert a != b
        assert table.num_unique_sets == 2

    def test_sets_are_numbered_by_first_use(self):
        sets = [([9], [8, 7]), ([1, 2, 3, 4], []), ([9], [8, 7]),
                ([], [5, 6, 7]), ([1, 2, 3, 4], [])]
        offsets, table = intern(*sets)
        assert offsets == [0, 5, 0, 11, 5]
        assert table.set_starts.tolist() == [0, 5, 11]
        assert [table.get(offset) for offset in (0, 5, 11)] == [
            ((9,), (7, 8)), ((1, 2, 3, 4), ()), ((), (5, 6, 7))]

    def test_empty_sides_allowed(self):
        (offset,), table = intern(([], [4, 5, 6]))
        assert table.get(offset) == ((), (4, 5, 6))

    def test_size_bytes(self):
        _, table = intern(([1], [2, 3]))
        assert table.size_bytes == 4 * len(table.words) == 20

    def test_get_out_of_range(self):
        with pytest.raises(CapacityError):
            LookupTable().get(0)
        _, table = intern(([1], [2, 3]))
        with pytest.raises(CapacityError):
            table.get(99)

    @pytest.mark.parametrize("words", [
        [3, 1, 2],            # true ids run past the end
        [1, 7, 2, 5],         # candidate ids run past the end
        [1, 7],               # no candidate count at all
        [1, 7, 0, 9],         # a trailing word that starts no set
        [4_000_000_000, 1],   # a count past any array
    ])
    def test_words_that_do_not_parse_are_rejected(self, words):
        with pytest.raises(CapacityError):
            LookupTable(np.asarray(words, dtype=np.uint32))


class TestInternRefs:
    def test_splits_by_flag(self):
        entries, table = encode([codec.make_ref(4, True),
                                 codec.make_ref(2, False),
                                 codec.make_ref(7, True)])
        true_ids, cand_ids = table.get(codec.offset_value(entries[0]))
        assert true_ids == (4, 7)
        assert cand_ids == (2,)

    def test_matches_manual_intern(self):
        refs = [codec.make_ref(4, True), codec.make_ref(2, False),
                codec.make_ref(2, False), codec.make_ref(6, False)]
        entries, table = encode(refs, refs[::-1])
        assert entries[0] == entries[1]
        assert table.words.tolist() == intern(([4], [2, 6]))[1].words.tolist()

    def test_true_hit_dominates_its_candidate_twin(self):
        row = [codec.make_ref(4, False), codec.make_ref(4, True),
               codec.make_ref(2, False)]
        (entry,), _ = encode(row)
        assert codec.payload_refs(entry) == (codec.make_ref(2, False),
                                             codec.make_ref(4, True))
        (entry,), _ = encode(row, use_interior=False)  # all demoted
        assert codec.payload_refs(entry) == (codec.make_ref(2, False),
                                             codec.make_ref(4, False))


class TestArray:
    def test_uint32_dtype(self):
        _, table = intern(([1, 2, 3], [4]))
        assert table.words.dtype == np.uint32
        assert table.words.shape == (6,)

    def test_words_are_held_not_copied(self):
        words = np.asarray([1, 7, 2, 5, 6], dtype=np.uint32)
        assert LookupTable(words).words is words
