"""The columnar ACT core: flat arrays as the canonical representation.

The paper credits ACT's speed to lookups costing "a few basic integer
arithmetics and bitwise operations". :class:`ACTCore` is the form in
which that promise is kept: the radix tree is a ``(num_nodes, fanout)``
uint64 node pool plus six face-root entries, the lookup table a uint32
array with a CSR (indptr/ids) decode built once at construction. Every
query path — scalar point lookups, vectorized batch descents,
per-polygon hit counting, candidate-pair extraction — runs against
these arrays; there is exactly one lookup engine.

The arrays are also the only representation: a build lays the pool out
directly from the sorted super covering (:meth:`ACTCore.from_cells`,
the inverse of :meth:`ACTCore.cell_arrays`), and persistence
(:mod:`repro.act.serialize`) round-trips them verbatim. There is no
pointer structure of Python objects at any stage.

Keys are the Hilbert-path bit sequences of cell ids (the 3 face bits are
dispatched through per-face root slots, so path chunks stay aligned).
With the default fanout of 256, each tree level consumes 8 key bits ≙ 4
grid levels, capping lookups at ``floor(60 / 8) = 7`` node accesses
after the face dispatch. Lookups are **comparison-free** in the
radix-tree sense: no key is ever compared against stored keys; each step
extracts the next chunk of the query cell's path and jumps to that slot.
Only the 2-bit entry tags are inspected to distinguish pointers from
inlined payloads, exactly as the paper describes.

Batch descents are level-synchronous: at each step the still-active
points gather their next entries with one fancy-indexing operation.
Lookup-table (>= 3 reference) entries decode through the CSR arrays with
``searchsorted`` + ranged gathers, so even heavily overlapping polygon
sets stay off the Python interpreter.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Dict, Iterator, Tuple

import numpy as np

from ..errors import BuildError
from ..grid import cellid
from . import entry as entry_codec
from .lookup_table import LookupTable

#: Fanouts supported: 4 ** k keeps chunks aligned to whole grid levels.
SUPPORTED_FANOUTS = (4, 16, 64, 256)

#: Total path bits of a leaf cell (level 30, 2 bits per level).
KEY_BITS = 2 * cellid.MAX_LEVEL

_MASK31 = np.uint64((1 << 31) - 1)
_ZERO = np.uint64(0)
_TAG_MASK = np.uint64(3)
_FIRST_POINTER = np.uint64(4)  # the pointer entry of pool row 0
_KEY_MASK = (1 << KEY_BITS) - 1


def radix_geometry(fanout: int) -> Tuple[int, int, int, int]:
    """``(bits_per_step, levels_per_step, max_steps, max_cell_level)``
    of a tree whose nodes hold ``fanout`` slots: every step consumes
    ``bits_per_step`` key bits ≙ ``levels_per_step`` grid levels, at
    most ``max_steps`` times, so ``max_cell_level`` (28 for fanout 256)
    is the deepest level at which a cell can be indexed."""
    if fanout not in SUPPORTED_FANOUTS:
        raise BuildError(
            f"fanout must be one of {SUPPORTED_FANOUTS}, got {fanout}"
        )
    bits = fanout.bit_length() - 1  # log2(fanout)
    levels = bits // 2
    steps = KEY_BITS // bits
    return bits, levels, steps, steps * levels


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one point lookup.

    ``true_hits`` are guaranteed containments; ``candidates`` are within
    the precision bound of the polygon but possibly outside it.
    """

    true_hits: Tuple[int, ...]
    candidates: Tuple[int, ...]

    @property
    def all_ids(self) -> Tuple[int, ...]:
        """Approximate-join semantics: every reference counts as a hit."""
        return self.true_hits + self.candidates

    @property
    def is_hit(self) -> bool:
        return bool(self.true_hits or self.candidates)


#: Empty result shared by every miss decode.
_MISS = QueryResult((), ())


class ResultBatch(Sequence):
    """The classified results of a point batch, held as columns.

    Exactly the four columns an ``OP_RESULTS`` frame carries: per point
    the number of true hits and of candidates (``true_counts``,
    ``cand_counts``, ``<u4``) and the two flat id columns those counts
    slice (``true_ids``, ``cand_ids``, ``<i8``), each point's ids in
    its own order. Immutable: the columns are read-only views, and
    every method returns a new batch. The columns may *borrow* the
    arrays (or the byte buffer) they were made from — whoever keeps
    writing to those writes to the batch.

    As a ``Sequence`` it reads as the :class:`QueryResult` per point it
    stands for — ``len``, index, slice, iterate, ``==`` against a list
    of results — materialized lazily, for the scalar, JSON and test
    callers; the serving path itself only moves columns.
    """

    __slots__ = ("true_counts", "cand_counts", "true_ids", "cand_ids")
    true_counts: np.ndarray
    cand_counts: np.ndarray
    true_ids: np.ndarray
    cand_ids: np.ndarray

    def __init__(self, true_counts: np.ndarray, cand_counts: np.ndarray,
                 true_ids: np.ndarray, cand_ids: np.ndarray) -> None:
        for name, column, dtype in (("true_counts", true_counts, "<u4"),
                                    ("cand_counts", cand_counts, "<u4"),
                                    ("true_ids", true_ids, "<i8"),
                                    ("cand_ids", cand_ids, "<i8")):
            view = np.asarray(column, dtype=dtype).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ResultBatch is immutable")

    @classmethod
    def from_results(cls, results: Sequence[QueryResult]) -> "ResultBatch":
        """The batch a sequence of per-point results stands for (a
        batch is returned as it is)."""
        if isinstance(results, cls):
            return results
        true_hits = [r.true_hits for r in results]
        candidates = [r.candidates for r in results]
        n = len(true_hits)
        true_counts = np.fromiter(map(len, true_hits), "<u4", n)
        cand_counts = np.fromiter(map(len, candidates), "<u4", n)
        return cls(
            true_counts, cand_counts,
            np.fromiter(chain.from_iterable(true_hits), "<i8",
                        int(true_counts.sum())),
            np.fromiter(chain.from_iterable(candidates), "<i8",
                        int(cand_counts.sum())))

    @classmethod
    def concat(cls, parts: Sequence["ResultBatch"]) -> "ResultBatch":
        """``parts`` one after another, as one batch."""
        if not parts:
            return cls.from_results(())
        return cls(*(np.concatenate([getattr(part, name) for part in parts])
                     for name in cls.__slots__))

    def take(self, positions: np.ndarray) -> "ResultBatch":
        """The points at ``positions`` (any order, repeats allowed)."""
        positions = np.asarray(positions, dtype=np.int64)
        return ResultBatch(
            self.true_counts[positions], self.cand_counts[positions],
            _csr_gather(positions, _indptr(self.true_counts), self.true_ids),
            _csr_gather(positions, _indptr(self.cand_counts), self.cand_ids))

    def candidate_pairs(self) -> Tuple[np.ndarray, np.ndarray]:  # repro-lint: hot
        """``(point_indices, polygon_ids)`` of every candidate reference
        in point order — the pairs an exact query must refine."""
        point_idx = np.repeat(
            np.arange(len(self), dtype=np.int64), self.cand_counts)
        return point_idx, self.cand_ids

    def refined(self, inside: np.ndarray) -> "ResultBatch":
        """The exact batch: each point keeps its true hits, followed by
        the candidates ``inside`` (a mask over :meth:`candidate_pairs`)
        says passed point-in-polygon, in candidate order; no candidates
        remain."""
        n = len(self)
        owner = self.candidate_pairs()[0][inside]
        kept = np.bincount(owner, minlength=n)
        kept_before = np.cumsum(kept) - kept
        true_end = np.cumsum(self.true_counts, dtype=np.int64)
        num_true = self.true_ids.shape[0]
        ids = np.empty(num_true + owner.shape[0], dtype=np.int64)
        # a point's ids land after everything kept for the points before
        # it; its survivors land after its own true hits
        ids[np.arange(num_true) + np.repeat(kept_before, self.true_counts)] \
            = self.true_ids
        ids[np.arange(owner.shape[0]) + true_end[owner]] \
            = self.cand_ids[inside]
        return ResultBatch(self.true_counts + kept.astype("<u4"),
                           np.zeros(n, dtype="<u4"), ids,
                           np.empty(0, dtype=np.int64))

    # -- the lazy per-point view ---------------------------------------
    def __len__(self) -> int:
        return int(self.true_counts.shape[0])

    def __iter__(self) -> Iterator[QueryResult]:
        true_ids = self.true_ids.tolist()
        cand_ids = self.cand_ids.tolist()
        t_at = c_at = 0
        for t_n, c_n in zip(self.true_counts.tolist(),
                            self.cand_counts.tolist()):
            yield QueryResult(tuple(true_ids[t_at:t_at + t_n]),
                              tuple(cand_ids[c_at:c_at + c_n]))
            t_at += t_n
            c_at += c_n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self.take(np.arange(len(self))[k]))
        n = len(self)
        if not -n <= k < n:
            raise IndexError("ResultBatch index out of range")
        return next(iter(self.take([k % n])))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResultBatch):
            return all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in self.__slots__)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (f"ResultBatch({len(self)} points, "
                f"{self.true_ids.shape[0]} true hits, "
                f"{self.cand_ids.shape[0]} candidates)")


def _indptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointers (int64, length ``n + 1``) for per-row counts."""
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class ACTCore:
    """Flat-array ACT serving scalar and batch lookups.

    Parameters
    ----------
    nodes:
        ``(num_nodes, fanout)`` uint64 node pool (one zero row stands in
        for an empty pool).
    roots:
        Per-face root entries (uint64, length = number of faces).
    lookup_table:
        The deduplicated reference sets for >= 3-reference cells.
    fanout:
        Slots per node (must be in :data:`SUPPORTED_FANOUTS`).
    num_entries:
        Number of indexed (post-denormalization) slots, for stats.
    """

    __slots__ = (
        "nodes", "roots", "lookup_table", "fanout", "num_entries",
        "bits_per_step", "levels_per_step", "max_steps", "max_cell_level",
        "_chunk_mask", "_roots_list", "_num_nodes", "_decoded",
        "_set_starts", "_true_indptr", "_true_ids", "_cand_indptr",
        "_cand_ids", "descent_batches", "descent_points",
        "descent_seconds",
    )

    def __init__(self, nodes: np.ndarray, roots: np.ndarray,
                 lookup_table: LookupTable, fanout: int,
                 num_entries: int = 0):
        (self.bits_per_step, self.levels_per_step, self.max_steps,
         self.max_cell_level) = radix_geometry(fanout)
        self.nodes = np.ascontiguousarray(nodes, dtype=np.uint64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != fanout:
            raise BuildError(
                f"node pool shape {self.nodes.shape} does not match "
                f"fanout {fanout}"
            )
        self.roots = np.asarray(roots, dtype=np.uint64)
        self.lookup_table = lookup_table
        self.fanout = fanout
        self.num_entries = num_entries
        self._chunk_mask = np.uint64(fanout - 1)
        # scalar descents index plain ints; keep the roots as a list
        self._roots_list = [int(r) for r in self.roots]
        # an all-zero single row is the canonical empty-pool encoding
        if self.nodes.shape[0] == 1 and not self.nodes.any():
            self._num_nodes = 0
        else:
            self._num_nodes = self.nodes.shape[0]
        # entry -> its decoded result, one shared object per distinct
        # entry value (see decode_entry); dies with the core
        self._decoded: Dict[int, QueryResult] = {}
        # per-core descent telemetry: bare counters the serving layer
        # exports per index generation (racy +=, exactness not needed)
        self.descent_batches = 0
        self.descent_points = 0
        self.descent_seconds = 0.0
        self._build_set_index()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_cells(cls, cells: np.ndarray, entries: np.ndarray,  # repro-lint: hot
                   lookup_words: np.ndarray, fanout: int,
                   num_faces: int = cellid.NUM_FACES) -> "ACTCore":
        """Lay out the node pool for a prefix-free ``(cell, entry)`` set:
        the inverse of :meth:`cell_arrays` / :meth:`node_arrays`.

        Cells may sit at any level up to ``max_cell_level``. One whose
        level is not a multiple of the granularity is **denormalized**
        (paper, Section II): its entry is replicated across the
        contiguous slot range its descendants occupy at the next
        indexable level. Descendants within one granularity step always
        share a single node, so denormalization is a slice fill, never
        extra nodes. Nodes are numbered in preorder, so equal cell sets
        give bit-identical pools.

        Raises :class:`~repro.errors.BuildError` on over-deep levels,
        pointer-tagged entries, and on a cell set that is not
        prefix-free (a duplicate, or a cell inside another) — the super
        covering is responsible for resolving those.
        """
        _, step, _, max_cell_level = radix_geometry(fanout)
        cells = np.asarray(cells, dtype=np.uint64)
        entries = np.asarray(entries, dtype=np.uint64)
        if cells.shape != entries.shape or cells.ndim != 1:
            raise BuildError(
                f"cells {cells.shape} and entries {entries.shape} must "
                f"be equal-length columns")
        order = np.argsort(cells, kind="stable")
        cells, entries = cells[order], entries[order]
        if cells.size and (cells[0] == _ZERO or int(
                cells[-1] >> np.uint64(cellid.POS_BITS)) >= num_faces):
            raise BuildError(
                f"cell ids must be nonzero and on one of {num_faces} faces")
        levels = cellid.level_batch(cells)
        if (levels > max_cell_level).any():
            raise BuildError(
                f"cell level {int(levels.max())} exceeds the deepest "
                f"indexable level {max_cell_level} of fanout {fanout}")
        if ((entries & _TAG_MASK) == _ZERO).any():
            raise BuildError("cannot index a pointer entry")
        clash = cellid.overlaps_batch(cells)
        if clash.size:
            raise BuildError(
                f"cell set not prefix-free: "
                f"{cellid.to_token(int(cells[clash[0]]))} overlaps "
                f"{cellid.to_token(int(cells[clash[0] + 1]))}")

        # every step boundary strictly above a cell roots a node on the
        # way down to it; sorted cells keep each step's ancestors in runs
        node_cells, node_levels = [cells[:0]], [levels[:0]]
        for at in range(0, int(levels.max(initial=0)), step):
            above = cellid.parent_batch(cells[levels > at], at)
            above = above[np.append(True, above[1:] != above[:-1])]
            node_cells.append(above)
            node_levels.append(np.full(above.shape[0], at))
        node_cells = np.concatenate(node_cells)
        node_levels = np.concatenate(node_levels)
        # preorder: by first leaf, an ancestor before what it contains
        preorder = np.lexsort(
            (node_levels, node_cells - cellid.lsb_batch(node_cells)))
        node_cells, node_levels = node_cells[preorder], node_levels[preorder]
        by_id = np.argsort(node_cells)
        num_nodes = node_cells.shape[0]
        pointers = (np.arange(1, num_nodes + 1, dtype=np.uint64)
                    << np.uint64(2))

        # what the slots hold: a cell's entry, or the pointer to a node
        # (which sits where a cell of the node's own level would)
        cells = np.concatenate((cells, node_cells))
        levels = np.concatenate((levels, node_levels))
        values = np.concatenate((entries, pointers))
        # an item lives in the node rooted on the last step boundary
        # strictly above it (a face item in the roots), and fills the
        # slots of its descendants one step below that, from its first
        # leaf's chunk onward
        home = (levels - 1) // step * step
        span = np.int64(1) << (2 * (home + step - levels))
        num_entries = int(span[:entries.shape[0]].sum())
        roots = np.zeros(num_faces, dtype=np.uint64)
        top = levels == 0
        roots[(cells[top] >> np.uint64(cellid.POS_BITS)).astype(np.intp)] \
            = values[top]
        cells, home, span, values = (
            cells[~top], home[~top], span[~top], values[~top])
        holder = by_id[np.searchsorted(node_cells, _ancestors(cells, home),
                                       sorter=by_id)]
        chunk = (cells - cellid.lsb_batch(cells)) >> (
            2 * (cellid.MAX_LEVEL - home - step) + 1).astype(np.uint64)
        start = holder * fanout + (chunk & np.uint64(fanout - 1)).astype(
            np.int64)
        # one fill: the spans in slot order, zeros in the gaps between
        # (np.repeat writes the pool itself; nothing else is pool-sized)
        in_order = np.argsort(start)
        start, span = start[in_order], span[in_order]
        runs = np.zeros(2 * start.shape[0] + 1, dtype=np.uint64)
        runs[1::2] = values[in_order]
        lengths = np.empty(runs.shape[0], dtype=np.int64)
        lengths[1::2] = span
        lengths[0:-1:2] = np.diff(start + span, prepend=0) - span
        lengths[-1] = max(1, num_nodes) * fanout - lengths[:-1].sum()
        nodes = np.repeat(runs, lengths).reshape(-1, fanout)
        return cls(nodes, roots, LookupTable(lookup_words), fanout,
                   num_entries=num_entries)

    def _build_set_index(self) -> None:
        """CSR decode of the lookup table, built once.

        ``_set_starts`` holds the (ascending) word offset of every
        reference set; row ``k`` of the CSR arrays holds that set's true
        hit / candidate polygon ids. Entries map offset -> row with one
        ``searchsorted``.
        """
        words = self.lookup_table.words
        starts = self.lookup_table.set_starts
        num_true = words[starts].astype(np.int64)
        cand_at = starts + 1 + num_true
        # per set, the word range of its true ids, then of its candidates
        bounds = np.stack((starts + 1, cand_at, cand_at + 1,
                           np.append(starts, len(words))[1:]),
                          axis=1).reshape(-1)
        true_range = 4 * np.arange(starts.shape[0])
        self._set_starts = starts
        self._true_indptr = _indptr(num_true)
        self._true_ids = _csr_gather(true_range, bounds, words) \
            .astype(np.int64)
        self._cand_indptr = _indptr(words[cand_at])
        self._cand_ids = _csr_gather(true_range + 2, bounds, words) \
            .astype(np.int64)

    # ------------------------------------------------------------------
    # Structure metrics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def size_bytes(self) -> int:
        """Memory of the C++ layout: 8-byte slots in fixed-size nodes."""
        return self._num_nodes * self.fanout * 8

    @property
    def total_bytes(self) -> int:
        """Node pool plus lookup table."""
        return self.size_bytes + self.lookup_table.size_bytes

    # ------------------------------------------------------------------
    # Scalar lookups
    # ------------------------------------------------------------------
    def lookup_entry(self, leaf_cell: int) -> int:
        """Encoded entry matching the leaf's path, or 0 (miss).

        The descent is comparison-free: each step extracts the next path
        chunk and indexes into the node pool.
        """
        entry = self._roots_list[leaf_cell >> cellid.POS_BITS]
        if entry & 0b11:
            return entry
        if entry == entry_codec.SENTINEL:
            return entry_codec.SENTINEL
        path = (leaf_cell >> 1) & _KEY_MASK
        bits = self.bits_per_step
        mask = self.fanout - 1
        nodes = self.nodes
        shift = KEY_BITS
        for _ in range(self.max_steps):
            shift -= bits
            entry = int(nodes[(entry >> 2) - 1, (path >> shift) & mask])
            if entry & 0b11:
                return entry
            if entry == entry_codec.SENTINEL:
                return entry_codec.SENTINEL
        return entry_codec.SENTINEL

    def node_accesses(self, leaf_cell: int) -> int:
        """Number of node reads a lookup of ``leaf_cell`` performs
        (for reproducing the paper's cost model c_avg)."""
        entry = self._roots_list[leaf_cell >> cellid.POS_BITS]
        if entry & 0b11 or entry == entry_codec.SENTINEL:
            return 0
        path = (leaf_cell >> 1) & _KEY_MASK
        bits = self.bits_per_step
        mask = self.fanout - 1
        nodes = self.nodes
        accesses = 0
        shift = KEY_BITS
        for _ in range(self.max_steps):
            shift -= bits
            accesses += 1
            entry = int(nodes[(entry >> 2) - 1, (path >> shift) & mask])
            if entry & 0b11 or entry == entry_codec.SENTINEL:
                return accesses
        return accesses

    def decode_entry(self, entry: int) -> QueryResult:  # repro-lint: hot
        """The classified :class:`QueryResult` an encoded entry stands for.

        Decoded once per distinct entry value and shared from then on:
        equal entries return the *identical* immutable object. The ACT
        stores each distinct reference set once (inline in the entry, or
        interned in the lookup table), so the memo holds at most
        ``2 * polygons`` inline singles + the distinct inline pairs +
        ``len(lookup_table.set_starts)`` results however many cells the
        traffic touches, and it dies with the core. Unlocked: two threads
        racing on an entry's first use both decode it, to equal results,
        and one of them stays.
        """
        result = self._decoded.get(entry)
        if result is None:
            result = self._decoded[entry] = self._decode(entry)
        return result

    def _decode(self, entry: int) -> QueryResult:
        """Decode one entry from its bits (and the lookup table)."""
        tag = entry & 0b11
        if tag == entry_codec.TAG_POINTER:
            return _MISS
        if tag == entry_codec.TAG_OFFSET:
            return QueryResult(*self.lookup_table.get(entry >> 2))
        refs = entry_codec.payload_refs(entry)
        true_hits = tuple(entry_codec.ref_polygon_id(r) for r in refs
                          if entry_codec.ref_is_true_hit(r))
        candidates = tuple(entry_codec.ref_polygon_id(r) for r in refs
                           if not entry_codec.ref_is_true_hit(r))
        return QueryResult(true_hits, candidates)

    # ------------------------------------------------------------------
    # Batch descent
    # ------------------------------------------------------------------
    def lookup_entries(self, leaf_cells: np.ndarray,  # repro-lint: hot
                       sort_by_cell: bool = False) -> np.ndarray:
        """Encoded entry per leaf cell id (0 = miss / invalid cell).

        The batch descends in arrival order. ``sort_by_cell=True``
        (descend in ascending cell-id order, unpermute on output; same
        answers) lost to that at every batch size measured — the
        argsort alone costs more than the whole unsorted walk — and no
        caller under ``src/`` passes it. It stays only because the
        frozen ``benchmarks/e2e/actbench/ledger.py`` names the keyword;
        ROADMAP item 1 deletes it with that use.
        """
        start = perf_counter()
        if sort_by_cell and leaf_cells.shape[0] > 1:
            cells = leaf_cells.astype(np.uint64, copy=False)
            order = np.argsort(cells, kind="stable")
            entries = self._descend(cells[order])
            out = np.empty_like(entries)
            out[order] = entries
        else:
            out = self._descend(leaf_cells)
        self.descent_batches += 1
        self.descent_points += int(leaf_cells.shape[0])
        self.descent_seconds += perf_counter() - start
        return out

    def _descend(self, leaf_cells: np.ndarray) -> np.ndarray:  # repro-lint: hot
        """The level-synchronous batch walk over the node pool.

        Each step gathers every still-walking point's next entry with
        one flat index: a pointer entry is ``(row + 1) << 2``, so the
        slot ``row * fanout + chunk`` is ``(entry - 4) << (bits - 2) |
        chunk``, and the chunk is read straight off the cell id (the
        path sits one bit above its lsb). The gather is 1-D fancy
        indexing for every pool — ``ndarray.take`` would copy an
        unaligned memory-mapped pool whole on every call.
        """
        cells = leaf_cells.astype(np.uint64, copy=False)
        entries = self.roots[
            (cells >> np.uint64(cellid.POS_BITS)).astype(np.intp)]
        entries[cells == _ZERO] = _ZERO
        active = _is_pointer(entries)
        flat = self.nodes.reshape(-1)
        row_shift = np.uint64(self.bits_per_step - 2)
        shift = KEY_BITS + 1
        for _ in range(self.max_steps):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                return entries
            if idx.size == active.size:
                # everyone is still walking: the batch is its own
                # working set, so no gather in and no scatter back
                idx = slice(None)
            shift -= self.bits_per_step
            index = entries[idx] - _FIRST_POINTER
            index <<= row_shift
            chunk = cells[idx] >> np.uint64(shift)
            chunk &= self._chunk_mask
            index |= chunk
            found = flat[index.view(np.int64)]
            entries[idx] = found
            active[idx] = _is_pointer(found)
        # anything still pointing at a node after max_steps is a miss
        entries[active] = _ZERO
        return entries

    # ------------------------------------------------------------------
    # Batch decoding
    # ------------------------------------------------------------------
    def hit_counts(self, entries: np.ndarray, num_polygons: int,  # repro-lint: hot
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """``(true_counts, candidate_counts)`` per polygon in one pass.

        One decode of the batch serves both the approximate join (sum of
        the two) and true-hit-only accounting, instead of two passes.
        """
        true_counts = np.zeros(num_polygons, dtype=np.int64)
        cand_counts = np.zeros(num_polygons, dtype=np.int64)
        tags = entries & np.uint64(3)

        refs_parts = []
        one = entries[tags == np.uint64(entry_codec.TAG_PAYLOAD_1)]
        if one.size:
            refs_parts.append((one >> np.uint64(2)) & _MASK31)
        two = entries[tags == np.uint64(entry_codec.TAG_PAYLOAD_2)]
        if two.size:
            refs_parts.append((two >> np.uint64(2)) & _MASK31)
            refs_parts.append((two >> np.uint64(33)) & _MASK31)
        if refs_parts:
            refs = np.concatenate(refs_parts)
            ids = (refs >> np.uint64(1)).astype(np.int64)
            is_true = (refs & np.uint64(1)) == np.uint64(1)
            true_counts += np.bincount(ids[is_true], minlength=num_polygons)
            cand_counts += np.bincount(ids[~is_true], minlength=num_polygons)

        offsets = entries[tags == np.uint64(entry_codec.TAG_OFFSET)]
        if offsets.size:
            rows = np.searchsorted(
                self._set_starts,
                (offsets >> np.uint64(2)).astype(np.int64),
            )
            ids = _csr_gather(rows, self._true_indptr, self._true_ids)
            if ids.size:
                true_counts += np.bincount(ids, minlength=num_polygons)
            ids = _csr_gather(rows, self._cand_indptr, self._cand_ids)
            if ids.size:
                cand_counts += np.bincount(ids, minlength=num_polygons)
        return true_counts, cand_counts

    def count_hits(self, entries: np.ndarray, num_polygons: int,
                   include_candidates: bool = True) -> np.ndarray:
        """Per-polygon hit counts over a batch of looked-up entries.

        ``include_candidates=True`` implements the paper's *approximate*
        join (candidate cells count as hits, with the precision bound);
        ``False`` counts only guaranteed true hits.
        """
        true_counts, cand_counts = self.hit_counts(entries, num_polygons)
        if include_candidates:
            return true_counts + cand_counts
        return true_counts

    def pairs(self, entries: np.ndarray, want_true: bool,
              ) -> Tuple[np.ndarray, np.ndarray]:
        """``(point_indices, polygon_ids)`` of references with the given
        interior flag (``want_true=True`` -> true hits, else candidates)."""
        flag = np.uint64(1 if want_true else 0)
        point_idx_parts = []
        polygon_id_parts = []
        tags = entries & np.uint64(3)

        mask1 = tags == np.uint64(entry_codec.TAG_PAYLOAD_1)
        if mask1.any():
            refs = (entries[mask1] >> np.uint64(2)) & _MASK31
            keep = (refs & np.uint64(1)) == flag
            point_idx_parts.append(np.flatnonzero(mask1)[keep])
            polygon_id_parts.append(
                (refs[keep] >> np.uint64(1)).astype(np.int64))

        mask2 = tags == np.uint64(entry_codec.TAG_PAYLOAD_2)
        if mask2.any():
            base = np.flatnonzero(mask2)
            for shift in (2, 33):
                refs = (entries[mask2] >> np.uint64(shift)) & _MASK31
                keep = (refs & np.uint64(1)) == flag
                point_idx_parts.append(base[keep])
                polygon_id_parts.append(
                    (refs[keep] >> np.uint64(1)).astype(np.int64))

        mask3 = tags == np.uint64(entry_codec.TAG_OFFSET)
        if mask3.any():
            base = np.flatnonzero(mask3)
            rows = np.searchsorted(
                self._set_starts,
                ((entries[mask3] >> np.uint64(2))).astype(np.int64),
            )
            indptr = self._true_indptr if want_true else self._cand_indptr
            ids = self._true_ids if want_true else self._cand_ids
            lengths = indptr[rows + 1] - indptr[rows]
            gathered = _csr_gather(rows, indptr, ids)
            if gathered.size:
                point_idx_parts.append(np.repeat(base, lengths))
                polygon_id_parts.append(gathered)

        if not point_idx_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return (np.concatenate(point_idx_parts),
                np.concatenate(polygon_id_parts))

    def candidate_pairs(self, entries: np.ndarray,  # repro-lint: hot
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """``(point_indices, polygon_ids)`` of all *candidate* references.

        These are the pairs an exact join must refine with PIP tests; true
        hits need no refinement by construction.
        """
        return self.pairs(entries, want_true=False)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _slot_tags(self) -> np.ndarray:
        """The 2-bit tag of every pool slot, flat, as ``uint8`` (so a
        scan of the pool never allocates a pool-sized temporary)."""
        flat = self.nodes.reshape(-1)
        tags = np.empty(flat.shape, dtype=np.uint8)
        np.bitwise_and(flat, np.uint64(3), out=tags, casting="unsafe")
        return tags

    def node_entry_counts(self) -> np.ndarray:  # repro-lint: hot
        """Indexed (non-empty, non-pointer) slots per pool row."""
        return np.count_nonzero(
            self._slot_tags().reshape(-1, self.fanout), axis=1)

    def node_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:  # repro-lint: hot
        """``(cells, parent, slot)`` per pool row: the tree's skeleton.

        ``cells[n]`` is the cell node ``n`` roots — slot ``s`` of the
        node is that cell's descendant ``s``, ``levels_per_step`` down.
        The pointer to ``n`` sits in slot ``slot[n]`` of node
        ``parent[n]``, or is face root ``slot[n]`` when ``parent[n]``
        is -1. One tag scan finds the pointer slots; the walk over them
        is level-synchronous and touches each edge once. A row no
        pointer reaches (the empty pool's zero row) keeps cell 0.
        """
        flat = self.nodes.reshape(-1)
        num = self.nodes.shape[0]
        # ascending flat positions, so edges group by parent row: the
        # edges out of row n are first[n]:first[n + 1]
        edges = np.flatnonzero((self._slot_tags() == 0) & (flat != 0))
        first = np.searchsorted(edges, np.arange(num + 1) * self.fanout)
        child = (flat[edges] >> np.uint64(2)).astype(np.int64) - 1
        parent = np.full(num, -1, dtype=np.int64)
        slot = np.zeros(num, dtype=np.int64)
        cells = np.zeros(num, dtype=np.uint64)
        parent[child] = edges // self.fanout
        slot[child] = edges % self.fanout
        faces = np.flatnonzero(((self.roots & np.uint64(3)) == 0)
                               & (self.roots != 0))
        frontier = (self.roots[faces] >> np.uint64(2)).astype(np.int64) - 1
        slot[frontier] = faces
        cells[frontier] = cellid.from_face_batch(faces)
        for _ in range(self.max_steps):
            frontier = _csr_gather(frontier, first, child)
            if frontier.size == 0:
                break
            cells[frontier] = cellid.descendant_batch(
                cells[parent[frontier]], slot[frontier],
                self.levels_per_step)
        return cells, parent, slot

    def cell_arrays(self) -> Tuple[np.ndarray, np.ndarray]:  # repro-lint: hot
        """``(cells, entries)`` of every indexed cell, as arrays.

        The one enumeration of the index: one row per non-empty,
        non-pointer slot (the post-denormalization disjoint cells) and
        per face root that is itself an entry, in no particular order.
        Every pool row is taken to be reachable from the roots, as it
        is in every pool the builder, the loader and the slicer make.
        """
        pos = np.flatnonzero(self._slot_tags())
        entries = self.nodes.reshape(-1)[pos]
        # cellid.descendant_batch(node cell, slot), spelled out: the
        # per-node terms come from the (small) node arrays and the
        # per-entry ones are combined in place, so no more than four
        # entry-sized arrays are ever alive
        node_cells = self.node_arrays()[0]
        low = cellid.lsb_batch(node_cells)
        base = node_cells - low
        low >>= np.uint64(self.bits_per_step)
        odd = pos.view(np.uint64) & self._chunk_mask
        odd *= np.uint64(2)
        odd += np.uint64(1)
        pos >>= self.bits_per_step  # now the node index
        cells = low[pos]
        cells *= odd
        cells += base[pos]
        faces = np.flatnonzero(self.roots & np.uint64(3))
        if faces.size:
            cells = np.concatenate((cellid.from_face_batch(faces), cells))
            entries = np.concatenate((self.roots[faces], entries))
        return cells, entries

    def iter_cells(self) -> Iterator[Tuple[int, int]]:
        """Yield every indexed ``(cell, entry)`` pair (tests/analysis)."""
        return zip(*(column.tolist() for column in self.cell_arrays()))

    def subset_table(self, offsets: np.ndarray,
                     ) -> Tuple[LookupTable, np.ndarray]:
        """``(table, new_offsets)``: a lookup table holding only the
        reference sets at ``offsets`` (ascending, unique) — their word
        ranges gathered in that order — and where each now starts."""
        words = self.lookup_table.words
        indptr = np.append(self._set_starts, len(words))
        rows = np.searchsorted(self._set_starts, offsets)
        lengths = indptr[rows + 1] - indptr[rows]
        table = LookupTable(_csr_gather(rows, indptr, words))
        return table, np.cumsum(lengths) - lengths

    def __repr__(self) -> str:
        return (
            f"ACTCore({self._num_nodes} nodes, fanout={self.fanout}, "
            f"{self.num_entries:,} entries, "
            f"{self.size_bytes / 1e6:.2f} MB)"
        )


def _ancestors(cells: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """:func:`cellid.parent_batch` with a level per cell."""
    low = np.uint64(1) << (2 * (cellid.MAX_LEVEL - levels)).astype(np.uint64)
    return (cells & ~((low << np.uint64(1)) - np.uint64(1))) | low


def _is_pointer(entries: np.ndarray) -> np.ndarray:
    """Mask of the entries that point at a node (tag 0, not a miss)."""
    return ((entries & _TAG_MASK) == _ZERO) & (entries != _ZERO)


def _csr_gather(rows: np.ndarray, indptr: np.ndarray,
                ids: np.ndarray) -> np.ndarray:
    """Concatenated ``ids[indptr[r]:indptr[r+1]]`` for every row in order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(lengths)
    take = (np.arange(total, dtype=np.int64)
            - np.repeat(cum - lengths, lengths)
            + np.repeat(starts, lengths))
    return ids[take]
