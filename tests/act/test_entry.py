"""Unit tests for the tagged 8-byte entry codec."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.act import entry as codec
from repro.act.lookup_table import encode_refs
from repro.errors import CapacityError

polygon_ids = st.integers(0, codec.MAX_POLYGON_ID)


class TestRefs:
    @given(polygon_ids, st.booleans())
    def test_ref_roundtrip(self, pid, true_hit):
        ref = codec.make_ref(pid, true_hit)
        assert ref < (1 << 31)
        assert codec.ref_polygon_id(ref) == pid
        assert codec.ref_is_true_hit(ref) == true_hit

    def test_ref_overflow(self):
        with pytest.raises(CapacityError):
            codec.make_ref(1 << 30, True)
        with pytest.raises(CapacityError):
            codec.make_ref(-1, False)

    def test_flag_in_lsb(self):
        assert codec.make_ref(5, True) & 1 == 1
        assert codec.make_ref(5, False) & 1 == 0


class TestEntries:
    def test_sentinel_is_zero_pointer(self):
        assert codec.SENTINEL == 0
        assert codec.tag(codec.SENTINEL) == codec.TAG_POINTER
        assert codec.is_sentinel(codec.SENTINEL)

    @given(st.integers(0, 2 ** 40))
    def test_pointer_roundtrip(self, index):
        entry = codec.make_pointer(index)
        assert codec.tag(entry) == codec.TAG_POINTER
        assert not codec.is_sentinel(entry)
        assert codec.pointer_index(entry) == index

    @given(polygon_ids, st.booleans())
    def test_payload1_roundtrip(self, pid, flag):
        ref = codec.make_ref(pid, flag)
        entry = codec.make_payload_1(ref)
        assert codec.tag(entry) == codec.TAG_PAYLOAD_1
        assert codec.payload_refs(entry) == (ref,)

    @given(polygon_ids, polygon_ids, st.booleans(), st.booleans())
    def test_payload2_roundtrip(self, pid_a, pid_b, fa, fb):
        ref_a = codec.make_ref(pid_a, fa)
        ref_b = codec.make_ref(pid_b, fb)
        entry = codec.make_payload_2(ref_a, ref_b)
        assert codec.tag(entry) == codec.TAG_PAYLOAD_2
        assert codec.payload_refs(entry) == (ref_a, ref_b)
        assert entry < (1 << 64)

    @given(st.integers(0, codec.MAX_OFFSET))
    def test_offset_roundtrip(self, offset):
        entry = codec.make_offset(offset)
        assert codec.tag(entry) == codec.TAG_OFFSET
        assert codec.offset_value(entry) == offset

    def test_offset_overflow(self):
        with pytest.raises(CapacityError):
            codec.make_offset(codec.MAX_OFFSET + 1)

    def test_payload_refs_on_pointer_raises(self):
        with pytest.raises(CapacityError):
            codec.payload_refs(codec.make_pointer(3))


class TestEncodeRefs:
    """The densest encoding per reference count (the table side of
    ``encode_refs`` is in ``test_lookup_table.py``)."""

    @staticmethod
    def encode(refs):
        entries, words = encode_refs(
            np.asarray([0, len(refs)]), np.asarray(refs, dtype=np.int64))
        return int(entries[0]), words.tolist()

    def test_empty_is_sentinel(self):
        assert self.encode([]) == (codec.SENTINEL, [])

    def test_one_inlined(self):
        ref = codec.make_ref(7, True)
        entry, words = self.encode([ref])
        assert entry == codec.make_payload_1(ref) and not words

    def test_two_inlined(self):
        refs = [codec.make_ref(9, False), codec.make_ref(7, True)]
        entry, words = self.encode(refs)
        assert entry == codec.make_payload_2(*sorted(refs)) and not words

    def test_three_use_table(self):
        refs = [codec.make_ref(p, False) for p in (1, 2, 3)]
        entry, words = self.encode(refs)
        assert codec.tag(entry) == codec.TAG_OFFSET
        assert codec.offset_value(entry) == 0
        assert words == [0, 3, 1, 2, 3]
