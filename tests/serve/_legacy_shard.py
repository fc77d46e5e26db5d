"""The trie-based shard planner and slicer, kept as a test-only oracle.

This is the code ``repro.serve.shard`` shipped before planning and
slicing moved onto the flat arrays: ``_cell_interval``, ``_plan_one``,
``_spans_intersect`` and ``slice_index`` verbatim, plus the Python DFS
that ``ACTCore.iter_cells`` used to be (as :func:`iter_cells`, so the
oracle shares no enumeration with the code under test; its one change
is ``from_face_path(face, 0, 0)`` for ``from_face(face)`` — the same
id without the ``face < 6`` check, so the 8-root overflow case can
run through the oracle too). It walks every
cell in Python and re-inserts the owned ones into a fresh
``AdaptiveCellTrie`` + ``LookupTable`` (the object trie and mutable
table of ``tests/_legacy_build.py``) — slow, and obviously right.
``tests/serve/test_shard_differential.py`` holds the array-native
implementation to it.
"""

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from _legacy_build import AdaptiveCellTrie, LookupTable, core_from_trie
from repro.act import entry as entry_codec
from repro.act.core import ACTCore
from repro.act.index import ACTIndex
from repro.grid import cellid

KEY_MAX = (1 << 64) - 1


def iter_cells(core: ACTCore) -> Iterator[Tuple[int, int]]:
    """Yield every indexed ``(cell, entry)`` pair (tests/analysis)."""
    for face, root in enumerate(core._roots_list):
        if root == entry_codec.SENTINEL:
            continue
        if root & 0b11:
            yield cellid.from_face_path(face, 0, 0), root
            continue
        stack = [((root >> 2) - 1, face, 0, 0)]
        while stack:
            node_idx, face_val, path, level = stack.pop()
            row = core.nodes[node_idx].tolist()
            for chunk, entry in enumerate(row):
                if entry == entry_codec.SENTINEL:
                    continue
                child_path = (path << core.bits_per_step) | chunk
                child_level = level + core.levels_per_step
                if entry & 0b11:
                    yield (cellid.from_face_path(
                        face_val, child_path, child_level), entry)
                else:
                    stack.append(((entry >> 2) - 1, face_val,
                                  child_path, child_level))


def _cell_interval(cell: int, boundary_level: int) -> Tuple[int, int, int]:
    """``(lo, hi, weight)`` of one indexed cell in the shard keyspace.

    ``lo``/``hi`` are the boundary-level cell ids of the cell's first
    and last leaf; ``weight`` approximates load by the number of
    boundary-level cells covered. Disjoint cells produce disjoint
    intervals (cell-id ranges nest), except that several cells *deeper*
    than the boundary level under one boundary cell collapse to the
    same single-key interval — the planner merges those.
    """
    level = cellid.level(cell)
    lo = cellid.parent(cellid.range_min(cell), boundary_level)
    hi = cellid.parent(cellid.range_max(cell), boundary_level)
    weight = 4 ** (boundary_level - level) if level <= boundary_level else 1
    return lo, hi, weight


def _plan_one(index: ACTIndex, parts: int) -> List[Tuple[int, int]]:
    """Cut one index's keyspace into ``<= parts`` contiguous spans.

    Spans are split points only — callers attach slots. Always covers
    ``[0, KEY_MAX]``; never splits an indexed cell's interval.
    """
    bl = index.boundary_level
    intervals: Dict[int, Tuple[int, int]] = {}
    for cell, _entry in iter_cells(index.core):
        lo, hi, weight = _cell_interval(cell, bl)
        prev = intervals.get(lo)
        intervals[lo] = (hi, weight + (prev[1] if prev else 0))
    ordered = sorted(
        (lo, hi, weight) for lo, (hi, weight) in intervals.items())
    if not ordered or parts <= 1:
        return [(0, KEY_MAX)]

    total = sum(weight for _, _, weight in ordered)
    cuts: List[int] = []  # first lo of parts 1..k
    acc = 0
    for lo, _hi, weight in ordered:
        # cut *before* this interval once the previous parts hold
        # their fair share; an interval is never split
        target = (len(cuts) + 1) * total / parts
        if acc >= target and len(cuts) < parts - 1:
            cuts.append(lo)
        acc += weight
    spans: List[Tuple[int, int]] = []
    start = 0
    for cut in cuts:
        spans.append((start, cut - 1))
        start = cut
    spans.append((start, KEY_MAX))
    return spans


def _spans_intersect(spans: Sequence[Tuple[int, int]], lo: int,
                     hi: int) -> bool:
    """Whether ``[lo, hi]`` overlaps any owned ``(lo, hi)`` span."""
    for span_lo, span_hi in spans:
        if lo <= span_hi and hi >= span_lo:
            return True
    return False


def slice_index(index: ACTIndex,
                spans: Iterable[Tuple[int, int]]) -> ACTIndex:
    """Rebuild the sub-index owning the given keyspace spans.

    Walks every indexed cell, keeps the ones whose boundary-level key
    interval intersects ``spans``, and re-inserts them into a fresh
    trie with a fresh lookup table (``TAG_OFFSET`` entries re-interned
    so only referenced polygon sets survive; inline payload entries
    copied verbatim). Polygons and stats are shared with the parent
    index — the polygon list is read-only at serve time and refinement
    needs all of it for the ids a slice can still emit.
    """
    owned = sorted((int(lo), int(hi)) for lo, hi in spans)
    core = index.core
    bl = index.boundary_level
    trie = AdaptiveCellTrie(fanout=core.fanout,
                            num_faces=len(core.roots))
    table = LookupTable()
    tag = entry_codec.tag
    for cell, entry in iter_cells(core):
        lo, hi, _weight = _cell_interval(cell, bl)
        if not _spans_intersect(owned, lo, hi):
            continue
        if tag(entry) == entry_codec.TAG_OFFSET:
            true_ids, cand_ids = core.lookup_table.get(
                entry_codec.offset_value(entry))
            entry = entry_codec.make_offset(
                table.intern(true_ids, cand_ids))
        trie.insert(cell, entry)
    sliced_core = core_from_trie(trie, table)
    return ACTIndex(index.grid, sliced_core, index.polygons,
                    index.stats, index.boundary_level)
