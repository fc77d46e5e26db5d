"""Tagged 8-byte trie entries and 31-bit polygon references.

The paper (Section II, "Adaptive Cell Trie") stores one of four things in
every 8-byte node slot, discriminated by the two least significant bits:

====  =============================================================
tag   meaning
====  =============================================================
0b00  pointer to a child node (or to the sentinel node = "false hit")
0b01  one inlined payload (a 31-bit polygon reference)
0b10  two inlined payloads (two 31-bit polygon references)
0b11  a 31-bit offset into the lookup table (>= 3 references)
====  =============================================================

A 31-bit *polygon reference* packs an interior flag in its least
significant bit (1 = true hit, 0 = candidate hit) and a 30-bit polygon id
above it, so ACT can index up to 2**30 polygons.

This module is pure bit arithmetic on Python ints; the layouts match the
C++ reference implementation bit for bit so the memory accounting in
:mod:`repro.act.stats` reflects the paper's numbers.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import CapacityError

#: Entry tag values (two least significant bits of a slot).
TAG_POINTER = 0b00
TAG_PAYLOAD_1 = 0b01
TAG_PAYLOAD_2 = 0b10
TAG_OFFSET = 0b11

#: A zero slot is a pointer to the sentinel node: a guaranteed miss.
SENTINEL = 0

#: Maximum polygon id (30 usable payload bits).
MAX_POLYGON_ID = (1 << 30) - 1

#: Maximum lookup-table offset (31 bits).
MAX_OFFSET = (1 << 31) - 1

_REF_MASK = (1 << 31) - 1


# ----------------------------------------------------------------------
# Polygon references (31-bit payloads)
# ----------------------------------------------------------------------
def make_ref(polygon_id: int, is_true_hit: bool) -> int:
    """Pack a polygon id and interior flag into a 31-bit reference."""
    if not 0 <= polygon_id <= MAX_POLYGON_ID:
        raise CapacityError(
            f"polygon id {polygon_id} exceeds the 30-bit payload capacity"
        )
    return (polygon_id << 1) | (1 if is_true_hit else 0)


def ref_polygon_id(ref: int) -> int:
    return ref >> 1


def ref_is_true_hit(ref: int) -> bool:
    return bool(ref & 1)


# ----------------------------------------------------------------------
# Entries (tagged 8-byte slots)
# ----------------------------------------------------------------------
def make_pointer(node_index: int) -> int:
    """Pointer entry to the node-pool slot ``node_index`` (0-based).

    Index 0 of the encoded pointer space is reserved for the sentinel, so
    pool index ``i`` is stored as ``i + 1``.
    """
    return (node_index + 1) << 2


def make_payload_1(ref: int) -> int:
    return ((ref & _REF_MASK) << 2) | TAG_PAYLOAD_1


def make_payload_2(ref_a: int, ref_b: int) -> int:
    return (((ref_b & _REF_MASK) << 33)
            | ((ref_a & _REF_MASK) << 2)
            | TAG_PAYLOAD_2)


def make_offset(offset: int) -> int:
    if not 0 <= offset <= MAX_OFFSET:
        raise CapacityError(f"lookup-table offset {offset} exceeds 31 bits")
    return (offset << 2) | TAG_OFFSET


def tag(entry: int) -> int:
    return entry & 0b11


def is_sentinel(entry: int) -> bool:
    return entry == SENTINEL


def pointer_index(entry: int) -> int:
    """Node-pool index of a pointer entry (callers check the tag)."""
    return (entry >> 2) - 1


def payload_refs(entry: int) -> Tuple[int, ...]:
    """The inlined reference(s) of a payload entry."""
    kind = entry & 0b11
    if kind == TAG_PAYLOAD_1:
        return ((entry >> 2) & _REF_MASK,)
    if kind == TAG_PAYLOAD_2:
        return ((entry >> 2) & _REF_MASK, (entry >> 33) & _REF_MASK)
    raise CapacityError(f"entry {entry:#x} has no inlined payloads")


def offset_value(entry: int) -> int:
    return entry >> 2
