"""64-bit hierarchical cell ids (S2-compatible bit layout).

A cell id packs the path from a quadtree root to a node into a single
unsigned 64-bit integer::

    bits 63..61   face (0..5)
    bits 60..     2 bits per level along the Hilbert curve (level 1..30)
    next bit      sentinel "1" marking the end of the path
    lower bits    zeros

This satisfies the two properties the paper requires of a grid: every node
is uniquely identified by the bit sequence of its root path, and child ids
share their parent's prefix. The sentinel bit makes the level recoverable
and gives every cell a contiguous ``[range_min, range_max]`` interval of
leaf ids, so *containment is an integer range test*.

All functions operate on plain Python ints (masked to 64 bits) so ACT's
inner loops stay allocation-free; batch variants use numpy ``uint64``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..errors import InvalidCellError
from .hilbert import LOOKUP_IJ, LOOKUP_POS, LOOKUP_POS_NP, SWAP_MASK

#: Maximum quadtree depth (S2's 30 levels; leaf cells are ~cm² on Earth).
MAX_LEVEL = 30

#: Bits used by the position part (2 per level plus the sentinel).
POS_BITS = 2 * MAX_LEVEL + 1  # 61

#: Number of cube faces.
NUM_FACES = 6

_MASK64 = (1 << 64) - 1
_LOOKUP_BITS = 4


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def from_face(face: int) -> int:
    """The level-0 cell id of a cube face."""
    if not 0 <= face < NUM_FACES:
        raise InvalidCellError(f"face must be in [0, 6), got {face}")
    return (face << POS_BITS) | (1 << (POS_BITS - 1))


def from_face_ij(face: int, i: int, j: int) -> int:
    """Leaf (level-30) cell id from face and 30-bit (i, j) coordinates."""
    n = face << 60
    bits = face & SWAP_MASK
    for k in range(7, -1, -1):
        bits += ((i >> (k * 4)) & 15) << 6
        bits += ((j >> (k * 4)) & 15) << 2
        bits = LOOKUP_POS[bits]
        n |= (bits >> 2) << (k * 8)
        bits &= 3
    return n * 2 + 1


def from_face_path(face: int, path: int, level: int) -> int:
    """Cell id from a face and an explicit ``2*level``-bit Hilbert path."""
    if not 0 <= level <= MAX_LEVEL:
        raise InvalidCellError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    shift = POS_BITS - 1 - 2 * level
    return (face << POS_BITS) | (path << (shift + 1)) | (1 << shift)


def to_face_ij(cell: int) -> Tuple[int, int, int]:
    """Decode a *leaf-aligned* id into ``(face, i, j)`` of its min-leaf.

    For non-leaf cells, decode :func:`range_min` first (this function
    assumes all path levels are meaningful).
    """
    face_val = cell >> POS_BITS
    bits = face_val & SWAP_MASK
    i = 0
    j = 0
    for k in range(7, -1, -1):
        nbits = MAX_LEVEL - 7 * _LOOKUP_BITS if k == 7 else _LOOKUP_BITS
        bits += ((cell >> (k * 8 + 1)) & ((1 << (2 * nbits)) - 1)) << 2
        bits = LOOKUP_IJ[bits]
        i += (bits >> 6) << (k * 4)
        j += ((bits >> 2) & 15) << (k * 4)
        bits &= 3
    return face_val, i, j


# ----------------------------------------------------------------------
# Structure
# ----------------------------------------------------------------------
def is_valid(cell: int) -> bool:
    """Structural validity: in-range face and a well-formed sentinel bit."""
    if cell <= 0 or cell > _MASK64:
        return False
    if (cell >> POS_BITS) >= NUM_FACES:
        return False
    lsb = cell & (-cell)
    # the sentinel must sit on an even bit position at or below bit 60
    if lsb > (1 << (POS_BITS - 1)):
        return False
    return (lsb.bit_length() - 1) % 2 == 0


def lsb(cell: int) -> int:
    """The sentinel bit (lowest set bit) of the id."""
    return cell & (-cell)


def level(cell: int) -> int:
    """Depth of the cell: 0 for face cells, 30 for leaves."""
    trailing = (cell & (-cell)).bit_length() - 1
    return MAX_LEVEL - (trailing >> 1)


def is_leaf(cell: int) -> bool:
    return bool(cell & 1)


def is_face(cell: int) -> bool:
    return (cell & ((1 << (POS_BITS - 1)) - 1)) == 0


def face(cell: int) -> int:
    return cell >> POS_BITS


def parent(cell: int, parent_level: int | None = None) -> int:
    """Ancestor at ``parent_level`` (immediate parent when omitted)."""
    current = level(cell)
    if parent_level is None:
        parent_level = current - 1
    if not 0 <= parent_level <= current:
        raise InvalidCellError(
            f"parent level {parent_level} invalid for level-{current} cell"
        )
    new_lsb = 1 << (2 * (MAX_LEVEL - parent_level))
    return (cell & ~((new_lsb << 1) - 1) & _MASK64) | new_lsb


def child(cell: int, position: int) -> int:
    """Child at Hilbert position 0..3."""
    if is_leaf(cell):
        raise InvalidCellError(f"leaf cell {cell:#x} has no children")
    if not 0 <= position < 4:
        raise InvalidCellError(f"child position must be 0..3, got {position}")
    old_lsb = cell & (-cell)
    new_lsb = old_lsb >> 2
    return cell - old_lsb + (2 * position + 1) * new_lsb


def children(cell: int) -> Tuple[int, int, int, int]:
    """All four children in Hilbert order."""
    old_lsb = cell & (-cell)
    if old_lsb == 1:
        raise InvalidCellError(f"leaf cell {cell:#x} has no children")
    new_lsb = old_lsb >> 2
    base = cell - old_lsb
    return (base + new_lsb, base + 3 * new_lsb,
            base + 5 * new_lsb, base + 7 * new_lsb)


def child_position(cell: int, at_level: int) -> int:
    """The 2-bit Hilbert position of this cell's ancestor at ``at_level``
    within that ancestor's parent."""
    if not 1 <= at_level <= level(cell):
        raise InvalidCellError(f"level {at_level} out of range for cell")
    return (cell >> (2 * (MAX_LEVEL - at_level) + 1)) & 3


def range_min(cell: int) -> int:
    """Smallest leaf id contained in this cell."""
    return cell - (cell & (-cell)) + 1


def range_max(cell: int) -> int:
    """Largest leaf id contained in this cell."""
    return cell + (cell & (-cell)) - 1


def contains(ancestor: int, descendant: int) -> bool:
    """True when ``descendant``'s leaf range lies within ``ancestor``'s."""
    return range_min(ancestor) <= descendant <= range_max(ancestor)


def intersects(a: int, b: int) -> bool:
    """True when one cell contains the other (the only way cells overlap)."""
    return range_min(a) <= range_max(b) and range_min(b) <= range_max(a)


def denormalize(cell: int, target_level: int) -> List[int]:
    """All descendants of ``cell`` at ``target_level``, in id order.

    This is the paper's *denormalization*: replacing a cell with its
    descendant cells at a deeper level so it can be indexed in a trie with
    coarse level granularity. Returns ``4**(target_level - level)`` cells.

    Descendant ids at a fixed level tile the cell's leaf range with a
    constant stride, so the expansion is pure arithmetic::

        base = range_min(cell) - 1
        descendant_k = base + (2k + 1) * lsb(target_level)
    """
    current = level(cell)
    if target_level < current:
        raise InvalidCellError(
            f"cannot denormalize level-{current} cell to level {target_level}"
        )
    if target_level == current:
        return [cell]
    target_lsb = 1 << (2 * (MAX_LEVEL - target_level))
    base = cell - (cell & (-cell))
    stride = 2 * target_lsb
    count = 1 << (2 * (target_level - current))
    return [base + target_lsb + k * stride for k in range(count)]


def path_key(cell: int) -> Tuple[int, int]:
    """``(path_bits, bit_length)`` of the cell's Hilbert path.

    The path excludes the 3 face bits; ACT dispatches on the face first and
    then consumes the path most-significant-chunk first.
    """
    lvl = level(cell)
    bits = 2 * lvl
    path = (cell >> (POS_BITS - 1 - bits + 1)) & ((1 << bits) - 1) if bits else 0
    return path, bits


def to_token(cell: int) -> str:
    """Compact hex token (trailing zeros stripped), S2-style."""
    if cell == 0:
        return "X"
    return f"{cell:016x}".rstrip("0") or "0"


def from_token(token: str) -> int:
    """Inverse of :func:`to_token`."""
    if token == "X":
        return 0
    if not 1 <= len(token) <= 16:
        raise InvalidCellError(f"bad cell token: {token!r}")
    try:
        return int(token.ljust(16, "0"), 16)
    except ValueError as exc:
        raise InvalidCellError(f"bad cell token: {token!r}") from exc


def sort_key(cell: int) -> int:
    """Cells sorted by ``range_min`` then level — the canonical order used
    by super-covering construction (ancestors sort before descendants)."""
    return (range_min(cell) << 6) | level(cell)


# ----------------------------------------------------------------------
# Vectorized batch operations (numpy, uint64)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _lookup_pos16() -> np.ndarray:
    """``[(i8 << 10) | (j8 << 2) | orientation] -> (pos16 << 2) |
    orientation``: two :data:`LOOKUP_POS` steps composed, so the batch
    encode takes four gathers per point instead of eight. 2**18 uint32
    (1 MiB), built on first use; the broadcast gather writes the table
    directly, so building it never holds more than the table itself."""
    step = LOOKUP_POS_NP.astype(np.uint32).reshape(16, 16, 4)
    # axes (i high, i low, j high, j low, orientation): the high
    # nibbles' lookup picks the orientation the low nibbles start from
    high = step[:, None, :, None, :]
    nibble = np.arange(16)
    table = step[nibble[None, :, None, None, None],
                 nibble[None, None, None, :, None], high & np.uint32(3)]
    table |= (high >> np.uint32(2)) << np.uint32(10)
    return table.reshape(-1)


def from_face_ij_batch(faces: np.ndarray, i: np.ndarray, j: np.ndarray,  # repro-lint: hot
                       ) -> np.ndarray:
    """Vectorized :func:`from_face_ij`: ``i`` and ``j`` must lie in
    ``[0, 2**30)`` (they are narrowed to uint32 without a check)."""
    table = _lookup_pos16()
    i = i.astype(np.uint32, copy=False)
    j = j.astype(np.uint32, copy=False)
    n = faces.astype(np.uint64)
    bits = (n & np.uint64(SWAP_MASK)).astype(np.uint32)
    n <<= np.uint64(60)
    for shift in (24, 16, 8, 0):
        i8 = (i >> np.uint32(shift)) & np.uint32(255)
        i8 <<= np.uint32(10)
        j8 = (j >> np.uint32(shift)) & np.uint32(255)
        j8 <<= np.uint32(2)
        bits |= i8
        bits |= j8
        bits = table[bits]
        pos = (bits >> np.uint32(2)).astype(np.uint64)
        pos <<= np.uint64(2 * shift)
        n |= pos
        bits &= np.uint32(3)
    n <<= np.uint64(1)
    n |= np.uint64(1)
    return n


def from_face_batch(faces: np.ndarray) -> np.ndarray:
    """Vectorized :func:`from_face` (no range check: a trie may be
    built with more root slots than the cube has faces)."""
    return ((np.asarray(faces).astype(np.uint64) << np.uint64(POS_BITS))
            | np.uint64(1 << (POS_BITS - 1)))


def level_batch(cells: np.ndarray) -> np.ndarray:
    """Vectorized :func:`level`."""
    # log2 of the isolated lsb via float conversion is exact for powers of 2
    trailing = np.log2(lsb_batch(cells).astype(np.float64)).astype(np.int64)
    return MAX_LEVEL - (trailing >> 1)


def parent_batch(cells: np.ndarray, parent_level: int) -> np.ndarray:
    """Vectorized :func:`parent` at a fixed level."""
    new_lsb = np.uint64(1 << (2 * (MAX_LEVEL - parent_level)))
    mask = ~((new_lsb << np.uint64(1)) - np.uint64(1))
    out = cells.astype(np.uint64, copy=False) & mask
    out |= new_lsb
    return out


def lsb_batch(cells: np.ndarray) -> np.ndarray:
    """Vectorized :func:`lsb` (one allocation: on millions of cells a
    fresh temporary costs more in page faults than the arithmetic)."""
    low = ~cells.astype(np.uint64, copy=False)
    low += np.uint64(1)
    low &= cells
    return low


def overlaps_batch(cells: np.ndarray) -> np.ndarray:
    """Positions ``k`` at which ``cells[k]`` and ``cells[k + 1]`` overlap
    (one contains, or is, the other), for cells in ascending id order.
    Cells nest or are disjoint, so sorted ids of disjoint cells are
    sorted ranges and anything else puts an overlapping pair side by
    side: the set is prefix-free exactly when this is empty."""
    low = lsb_batch(cells)
    return np.flatnonzero(cells[:-1] + (low[:-1] - np.uint64(1))
                          >= cells[1:] - low[1:])


def descendant_batch(cells: np.ndarray, positions: np.ndarray,
                     levels: int) -> np.ndarray:
    """Vectorized :func:`child`, ``levels`` levels down at once: the
    descendant at Hilbert offset ``positions`` (``< 4**levels``) of each
    cell — the ``k``-th cell of :func:`denormalize`. Broadcasts."""
    low = lsb_batch(cells)
    base = cells - low
    low >>= np.uint64(2 * levels)
    odd = np.asarray(positions).astype(np.uint64)
    odd *= np.uint64(2)
    odd += np.uint64(1)
    out = odd * low
    out += base
    return out


def expand_to_level(cells: List[int], target_level: int) -> List[int]:
    """Denormalize a list of cells (levels <= target) to ``target_level``."""
    out: List[int] = []
    for cell in cells:
        out.extend(denormalize(cell, target_level))
    return out
