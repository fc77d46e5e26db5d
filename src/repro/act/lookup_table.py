"""The lookup table for cells referencing three or more polygons.

Mirrors the paper's encoding: a single ``uint32`` array where each entry
is ``[num_true_hits, true_hit_ids..., num_candidates, candidate_ids...]``
and node slots store offsets into the array. Reference sets recur across
cells (e.g. every cell along a shared border of the same three polygons),
so identical sets are deduplicated and share one offset.

The table is written once, by :func:`encode_refs` — the one place that
turns per-cell reference rows into node entries — and is immutable from
then on: :class:`LookupTable` holds the words as they were encoded,
loaded or mapped, never a copy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import CapacityError
from . import entry as entry_codec

_NO_WORDS = np.empty(0, dtype=np.uint32)


class LookupTable:
    """Deduplicated, uint32-encoded polygon reference sets (immutable).

    :attr:`words` is the encoded array; :attr:`set_starts` the ascending
    word offset of every set, found by one walk over the set headers at
    construction. The walk is what validates the array: a set that runs
    past the end raises :class:`~repro.errors.CapacityError`, and
    :meth:`get` decodes at those offsets only, so no decode ever reads
    out of bounds.
    """

    __slots__ = ("words", "set_starts")

    def __init__(self, words: np.ndarray = _NO_WORDS) -> None:
        self.words = np.asarray(words, dtype=np.uint32)
        self.set_starts = _set_starts(self.words)

    @property
    def num_unique_sets(self) -> int:
        return int(self.set_starts.shape[0])

    @property
    def size_bytes(self) -> int:
        return int(self.words.nbytes)

    def get(self, offset: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Decode ``(true_hit_ids, candidate_ids)`` at ``offset``."""
        starts = self.set_starts
        row = int(np.searchsorted(starts, offset))
        if row == len(starts) or starts[row] != offset:
            raise CapacityError(
                f"lookup-table offset {offset} is not the start of a set")
        words = self.words
        cand_pos = offset + 1 + int(words[offset])
        end = cand_pos + 1 + int(words[cand_pos])
        return (tuple(words[offset + 1:cand_pos].tolist()),
                tuple(words[cand_pos + 1:end].tolist()))


def _set_starts(words: np.ndarray) -> np.ndarray:
    """Word offset of every set: one step per *unique* set, reading only
    its two count words (a memoryview hands them out as plain ints)."""
    view = memoryview(np.ascontiguousarray(words))
    n = len(view)
    starts = []
    offset = 0
    while offset < n:
        starts.append(offset)
        cand_pos = offset + 1 + view[offset]
        if cand_pos >= n:
            break
        offset = cand_pos + 1 + view[cand_pos]
    if offset != n:
        raise CapacityError(
            f"lookup-table set at offset {starts[-1]} overruns the "
            f"{n}-word table")
    return np.asarray(starts, dtype=np.int64)


def encode_refs(indptr: np.ndarray, refs: np.ndarray,  # repro-lint: hot
                use_interior: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Choose the densest encoding for every cell's reference set.

    Row ``k`` of the CSR pair ``(indptr, refs)`` holds cell ``k``'s
    packed references (``polygon_id << 1 | is_true_hit``, in any order,
    repeats allowed). Returns ``(entries, words)``: one encoded entry
    per row and the lookup table they index. A polygon appearing with
    both flags collapses to its true-hit reference (the stronger claim);
    ``use_interior=False`` demotes every reference to a candidate (the
    no-true-hit-filtering ablation). One or two references are inlined
    in ascending order; three or more go through the table, each
    distinct set stored once, numbered in order of first use. A row
    without references encodes as the sentinel.
    """
    counts = np.diff(indptr)
    n = counts.shape[0]
    refs = np.asarray(refs, dtype=np.int64)
    if not use_interior:
        refs = refs & ~np.int64(1)
    # row-major sorted, distinct (row, reference) pairs in one 1-D key
    keys = np.repeat(np.arange(n, dtype=np.int64), counts) << 31
    keys |= refs
    keys = np.unique(keys)
    # a candidate reference directly followed by its own true-hit twin
    dominated = np.flatnonzero((keys[:-1] & 1 == 0)
                               & (keys[1:] == keys[:-1] + 1))
    keys = np.delete(keys, dominated)
    rows = keys >> 31
    refs = (keys & entry_codec.MAX_OFFSET).astype(np.uint64)
    counts = np.bincount(rows, minlength=n)
    first = np.cumsum(counts) - counts

    entries = np.zeros(n, dtype=np.uint64)
    one = np.flatnonzero(counts == 1)
    entries[one] = ((refs[first[one]] << np.uint64(2))
                    | np.uint64(entry_codec.TAG_PAYLOAD_1))
    two = np.flatnonzero(counts == 2)
    entries[two] = ((refs[first[two] + 1] << np.uint64(33))
                    | (refs[first[two]] << np.uint64(2))
                    | np.uint64(entry_codec.TAG_PAYLOAD_2))
    many = np.flatnonzero(counts >= 3)
    if many.size == 0:
        return entries, _NO_WORDS

    # intern per set length: a row's sorted references, viewed as one
    # opaque key, identify its set
    refs32 = refs.astype(np.uint32)
    set_of = np.empty(many.size, dtype=np.int64)  # per row: its set
    set_rows = []                                 # per set: its first row
    num_sets = 0
    for length in np.unique(counts[many]).tolist():
        group = np.flatnonzero(counts[many] == length)
        matrix = refs32[first[many[group], None] + np.arange(length)]
        packed = matrix.view(np.dtype((np.void, 4 * length))).ravel()
        _, index, inverse = np.unique(packed, return_index=True,
                                      return_inverse=True)
        set_of[group] = inverse.ravel() + num_sets
        set_rows.append(many[group[index]])
        num_sets += index.shape[0]
    set_rows = np.concatenate(set_rows)
    # number the sets by the first row that uses each
    order = np.argsort(set_rows)
    set_rows = set_rows[order]
    rank = np.empty(num_sets, dtype=np.int64)
    rank[order] = np.arange(num_sets)

    sizes = counts[set_rows]
    starts = np.cumsum(sizes + 2) - (sizes + 2)
    if starts[-1] > entry_codec.MAX_OFFSET:
        raise CapacityError(
            f"lookup table exceeded the 31-bit offset space at "
            f"{int(starts[-1])}")
    entries[many] = ((starts[rank[set_of]].astype(np.uint64) << np.uint64(2))
                     | np.uint64(entry_codec.TAG_OFFSET))

    # each set's references, true hits first: a stable sort on (set,
    # is-candidate) keeps the ascending ids within each half
    owner = np.repeat(np.arange(num_sets, dtype=np.int64), sizes)
    at = np.arange(owner.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    members = refs32[np.repeat(first[set_rows], sizes) + at]
    is_cand = (members & np.uint32(1)) == 0
    by_half = np.argsort(owner * 2 + is_cand, kind="stable")
    words = np.zeros(int(starts[-1] + sizes[-1] + 2), dtype=np.uint32)
    # word j of the sorted members sits behind its set's true-hit count
    # and, for a candidate, behind the candidate count as well
    words[np.arange(owner.shape[0]) + 2 * owner + 1 + is_cand[by_half]] \
        = members[by_half] >> np.uint32(1)
    num_true = np.bincount(owner[~is_cand], minlength=num_sets)
    words[starts] = num_true
    words[starts + 1 + num_true] = sizes - num_true
    return entries, words
