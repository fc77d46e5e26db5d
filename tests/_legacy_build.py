"""The build as it ran before ISSUE 19, kept as a test-only oracle.

Until then every build went polygons -> dict-of-lists super covering ->
``AdaptiveCellTrie`` (one ``insert`` per cell into Python lists) ->
``export_arrays`` -> ``ACTCore``, with reference sets interned one at a
time into a mutable ``LookupTable``. The build now emits the core's
arrays directly (``merge_columns`` -> ``encode_refs`` ->
``ACTCore.from_cells``); what it replaced lives on here, verbatim —
the trie, the table, ``entry.encode_refs``, ``ACTBuilder._insert_cells``
(as :func:`insert_cells`), ``SuperCovering.merge`` with its run scan (as
:func:`merge`; the per-run push-down ``_resolve_group`` is still the
shipped one) and ``ACTCore.from_trie`` (as :func:`core_from_trie`) —
slow, and obviously right. ``tests/act/test_build_differential.py``
holds the array build to it bit for bit; ``tests/serve/_legacy_shard.py``
builds its slices with it. It sits in ``tests/`` itself so both
``tests/act`` and ``tests/serve`` import it.
"""

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.act import entry as entry_codec
from repro.act.core import ACTCore
from repro.act.lookup_table import LookupTable as WordTable
from repro.act.supercovering import _resolve_group
from repro.errors import BuildError, CapacityError
from repro.grid import cellid
from repro.grid.coverer import Covering

#: Fanouts supported: 4 ** k keeps chunks aligned to whole grid levels.
SUPPORTED_FANOUTS = (4, 16, 64, 256)

#: Total path bits of a leaf cell (level 30, 2 bits per level).
KEY_BITS = 2 * cellid.MAX_LEVEL


class AdaptiveCellTrie:
    """Radix tree mapping grid cells to encoded polygon-reference entries.

    Parameters
    ----------
    fanout:
        Slots per node; must be a power of four so that each trie level
        consumes an integral number of grid levels. The paper's default
        (and ours) is 256.
    num_faces:
        Number of root slots (6 for spherical grids, 1 suffices for
        planar grids but 6 is kept for a uniform layout).
    """

    __slots__ = ("fanout", "bits_per_step", "levels_per_step", "max_steps",
                 "max_cell_level", "_roots", "_nodes", "num_entries")

    def __init__(self, fanout: int = 256, num_faces: int = cellid.NUM_FACES):
        if fanout not in SUPPORTED_FANOUTS:
            raise BuildError(
                f"fanout must be one of {SUPPORTED_FANOUTS}, got {fanout}"
            )
        self.fanout = fanout
        self.bits_per_step = fanout.bit_length() - 1  # log2(fanout)
        self.levels_per_step = self.bits_per_step // 2
        self.max_steps = KEY_BITS // self.bits_per_step
        #: deepest level at which cells can be indexed (28 for fanout 256)
        self.max_cell_level = self.max_steps * self.levels_per_step
        self._roots: List[int] = [entry_codec.SENTINEL] * num_faces
        self._nodes: List[List[int]] = []
        self.num_entries = 0

    # ------------------------------------------------------------------
    # Structure metrics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def size_bytes(self) -> int:
        """Memory of the C++ layout: 8-byte slots in fixed-size nodes."""
        return self.num_nodes * self.fanout * 8

    def align_level_up(self, level: int) -> int:
        """Smallest indexable level >= ``level`` (granularity rounding)."""
        step = self.levels_per_step
        aligned = ((level + step - 1) // step) * step
        if aligned > self.max_cell_level:
            raise BuildError(
                f"level {level} not indexable with fanout {self.fanout} "
                f"(deepest indexable level is {self.max_cell_level})"
            )
        return aligned

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, cell: int, entry: int) -> None:
        """Insert an encoded entry for a conflict-free cell at any level.

        Cells whose level is not a multiple of the granularity are
        **denormalized on insertion** (paper, Section II): the entry is
        replicated across the contiguous slot range its descendant cells
        occupy at the next indexable level. Descendants within one
        granularity step always share a single node, so denormalization is
        a slice fill, never extra nodes.

        Raises :class:`~repro.errors.BuildError` on over-deep levels,
        duplicate cells, or ancestor/descendant conflicts — the super
        covering is responsible for producing a prefix-free cell set.
        """
        level = cellid.level(cell)
        if level > self.max_cell_level:
            raise BuildError(
                f"cell level {level} exceeds the deepest indexable level "
                f"{self.max_cell_level} of a fanout-{self.fanout} trie"
            )
        if entry_codec.tag(entry) == entry_codec.TAG_POINTER:
            raise BuildError("cannot insert a pointer entry")
        face = cellid.face(cell)
        path, key_bits = cellid.path_key(cell)
        bits = self.bits_per_step
        steps = key_bits // bits
        remainder_bits = key_bits - steps * bits

        if steps == 0 and remainder_bits == 0:
            if self._roots[face] != entry_codec.SENTINEL:
                raise BuildError(f"conflicting insert at face root {face}")
            self._roots[face] = entry
            self.num_entries += 1
            return

        # descend/create internal nodes chunk by chunk (inlined hot loop);
        # after the loop, (container, index) addresses the slot reached by
        # consuming every *full* chunk of the key
        mask = self.fanout - 1
        nodes = self._nodes
        container: List[int] = self._roots
        index = face
        for step in range(steps):
            slot = container[index]
            if slot == entry_codec.SENTINEL:
                node = [entry_codec.SENTINEL] * self.fanout
                nodes.append(node)
                container[index] = (len(nodes) << 2)  # make_pointer inlined
            elif slot & 0b11:
                raise BuildError(
                    "conflicting insert: an ancestor cell already carries a "
                    "payload on this path (super covering not prefix-free)"
                )
            else:
                node = nodes[(slot >> 2) - 1]
            container = node
            index = (path >> (key_bits - (step + 1) * bits)) & mask

        if remainder_bits == 0:
            # exactly aligned: a single terminal slot
            if container[index] != entry_codec.SENTINEL:
                raise BuildError(
                    f"conflicting insert: slot for cell "
                    f"{cellid.to_token(cell)} already holds an entry"
                )
            container[index] = entry
            self.num_entries += 1
            return

        # unaligned: resolve one more node — the partial-chunk slots of
        # this cell's descendants all live there
        slot = container[index]
        if slot == entry_codec.SENTINEL:
            node = [entry_codec.SENTINEL] * self.fanout
            nodes.append(node)
            container[index] = (len(nodes) << 2)
        elif slot & 0b11:
            raise BuildError(
                "conflicting insert: an ancestor cell already carries a "
                "payload on this path (super covering not prefix-free)"
            )
        else:
            node = nodes[(slot >> 2) - 1]
        # denormalize: fill the contiguous descendant slot range
        free_bits = bits - remainder_bits
        base = (path & ((1 << remainder_bits) - 1)) << free_bits
        span = 1 << free_bits
        segment = node[base:base + span]
        if any(s != entry_codec.SENTINEL for s in segment):
            raise BuildError(
                f"conflicting insert: denormalized range of cell "
                f"{cellid.to_token(cell)} overlaps existing entries"
            )
        node[base:base + span] = [entry] * span
        self.num_entries += span

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup_entry(self, leaf_cell: int) -> int:
        """Encoded entry matching the leaf's path, or the sentinel (miss).

        The descent is comparison-free: each step extracts the next path
        chunk and indexes into the current node.
        """
        face = leaf_cell >> cellid.POS_BITS
        entry = self._roots[face]
        if entry_codec.tag(entry) != entry_codec.TAG_POINTER:
            return entry
        if entry == entry_codec.SENTINEL:
            return entry_codec.SENTINEL
        path = (leaf_cell >> 1) & ((1 << KEY_BITS) - 1)
        bits = self.bits_per_step
        mask = self.fanout - 1
        nodes = self._nodes
        shift = KEY_BITS
        for _ in range(self.max_steps):
            shift -= bits
            node = nodes[(entry >> 2) - 1]
            entry = node[(path >> shift) & mask]
            t = entry & 0b11
            if t != entry_codec.TAG_POINTER:
                return entry
            if entry == entry_codec.SENTINEL:
                return entry_codec.SENTINEL
        return entry_codec.SENTINEL

    def node_accesses(self, leaf_cell: int) -> int:
        """Number of node reads the lookup of ``leaf_cell`` performs
        (for reproducing the paper's cost model c_avg)."""
        face = leaf_cell >> cellid.POS_BITS
        entry = self._roots[face]
        if entry_codec.tag(entry) != entry_codec.TAG_POINTER or \
                entry == entry_codec.SENTINEL:
            return 0
        path = (leaf_cell >> 1) & ((1 << KEY_BITS) - 1)
        bits = self.bits_per_step
        mask = self.fanout - 1
        accesses = 0
        shift = KEY_BITS
        for _ in range(self.max_steps):
            shift -= bits
            node = self._nodes[(entry >> 2) - 1]
            accesses += 1
            entry = node[(path >> shift) & mask]
            if (entry & 0b11) != entry_codec.TAG_POINTER or \
                    entry == entry_codec.SENTINEL:
                return accesses
        return accesses

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def iter_cells(self) -> Iterator[Tuple[int, int]]:
        """Yield every indexed ``(cell, entry)`` pair (tests/serialization)."""
        for face, root in enumerate(self._roots):
            if root == entry_codec.SENTINEL:
                continue
            if entry_codec.tag(root) != entry_codec.TAG_POINTER:
                yield cellid.from_face(face), root
                continue
            stack = [(entry_codec.pointer_index(root), face, 0, 0)]
            while stack:
                node_idx, face_val, path, level = stack.pop()
                node = self._nodes[node_idx]
                for chunk in range(self.fanout):
                    entry = node[chunk]
                    if entry == entry_codec.SENTINEL:
                        continue
                    child_path = (path << self.bits_per_step) | chunk
                    child_level = level + self.levels_per_step
                    if entry_codec.tag(entry) == entry_codec.TAG_POINTER:
                        stack.append((entry_codec.pointer_index(entry),
                                      face_val, child_path, child_level))
                    else:
                        yield (cellid.from_face_path(
                            face_val, child_path, child_level), entry)

    def export_arrays(self):
        """Node pool as a ``(num_nodes, fanout)`` uint64 array plus the
        root entries — the input to :class:`repro.act.core.ACTCore`."""
        table = np.zeros((max(1, len(self._nodes)), self.fanout),
                         dtype=np.uint64)
        for idx, node in enumerate(self._nodes):
            table[idx, :] = node
        roots = np.asarray(self._roots, dtype=np.uint64)
        return table, roots


class LookupTable:
    """Deduplicated, uint32-encoded polygon reference sets."""

    __slots__ = ("_data", "_offsets")

    def __init__(self) -> None:
        self._data: List[int] = []
        self._offsets: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}

    def iter_sets(self) -> Iterator[
            Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
        """Yield ``(offset, true_ids, candidate_ids)`` for every encoded
        set, in storage order — the one walk of the encoding shared by
        the dedup map and the core's CSR decode."""
        offset = 0
        n = len(self._data)
        while offset < n:
            true_ids, cand_ids = self.get(offset)
            yield offset, true_ids, cand_ids
            offset += 2 + len(true_ids) + len(cand_ids)

    def __len__(self) -> int:
        """Number of uint32 words in the encoded array."""
        return len(self._data)

    @property
    def num_unique_sets(self) -> int:
        return len(self._offsets)

    @property
    def size_bytes(self) -> int:
        return 4 * len(self._data)

    def intern(self, true_ids: Iterable[int], candidate_ids: Iterable[int]) -> int:
        """Offset of the (deduplicated) reference set, appending if new."""
        offsets = self._offsets
        true_key = tuple(sorted(true_ids))
        cand_key = tuple(sorted(candidate_ids))
        key = (true_key, cand_key)
        offset = offsets.get(key)
        if offset is not None:
            return offset
        offset = len(self._data)
        if offset > entry_codec.MAX_OFFSET:
            raise CapacityError(
                f"lookup table exceeded the 31-bit offset space at {offset}"
            )
        self._data.append(len(true_key))
        self._data.extend(true_key)
        self._data.append(len(cand_key))
        self._data.extend(cand_key)
        offsets[key] = offset
        return offset

    def intern_refs(self, refs: Sequence[int]) -> int:
        """Offset for packed 31-bit references (splits true/candidate)."""
        true_ids = [entry_codec.ref_polygon_id(r) for r in refs
                    if entry_codec.ref_is_true_hit(r)]
        cand_ids = [entry_codec.ref_polygon_id(r) for r in refs
                    if not entry_codec.ref_is_true_hit(r)]
        return self.intern(true_ids, cand_ids)

    def get(self, offset: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Decode ``(true_hit_ids, candidate_ids)`` at ``offset``."""
        data = self._data
        if not 0 <= offset < len(data):
            raise CapacityError(f"lookup-table offset {offset} out of range")
        n_true = data[offset]
        true_ids = tuple(data[offset + 1:offset + 1 + n_true])
        cand_pos = offset + 1 + n_true
        n_cand = data[cand_pos]
        cand_ids = tuple(data[cand_pos + 1:cand_pos + 1 + n_cand])
        return true_ids, cand_ids

    def as_array(self) -> np.ndarray:
        """The encoded table as a ``uint32`` numpy array."""
        return np.asarray(self._data, dtype=np.uint32)


def encode_refs(refs: List[int], table_offset_for) -> int:
    """Choose the densest encoding for a reference set.

    One or two references are inlined; three or more go through the lookup
    table, with ``table_offset_for`` mapping the set to its offset.
    """
    if not refs:
        return entry_codec.SENTINEL
    if len(refs) == 1:
        return entry_codec.make_payload_1(refs[0])
    if len(refs) == 2:
        return entry_codec.make_payload_2(refs[0], refs[1])
    return entry_codec.make_offset(table_offset_for(refs))


def insert_cells(trie: AdaptiveCellTrie, lookup_table: LookupTable,
                 cells: Dict[int, List[int]], use_interior: bool) -> None:
    """Encode packed reference lists and insert them into the trie.

    Reference lists come from the super covering as packed 31-bit ints
    (``polygon_id << 1 | is_true``). A polygon appearing with both
    flags collapses to its true-hit reference (the stronger claim);
    with ``use_interior=False`` every reference is demoted to a
    candidate (the no-true-hit-filtering ablation).
    """
    insert = trie.insert
    for cell, packed in cells.items():
        if len(packed) == 1:
            ref = packed[0] if use_interior else packed[0] & ~1
            insert(cell, entry_codec.make_payload_1(ref))
            continue
        unique = set(packed)
        if not use_interior:
            unique = {ref & ~1 for ref in unique}
        else:
            # true hit dominates a duplicate candidate reference
            unique -= {ref & ~1 for ref in unique if ref & 1}
        refs = sorted(unique)
        if len(refs) == 1:
            insert(cell, entry_codec.make_payload_1(refs[0]))
        elif len(refs) == 2:
            insert(cell, entry_codec.make_payload_2(refs[0], refs[1]))
        else:
            insert(cell, entry_codec.make_offset(
                lookup_table.intern_refs(refs)))


def merge(coverings: Iterable[Tuple[int, Covering]], max_cell_level: int,
          ) -> Tuple[Dict[int, List[int]], int]:
    """``(cell -> packed references, conflict cells)``: the dict-of-lists
    super covering, its cells in ascending order."""
    refs_by_cell: Dict[int, List[int]] = {}
    for polygon_id, covering in coverings:
        for cell, is_interior in covering.all_cells():
            if cellid.level(cell) > max_cell_level:
                raise BuildError(
                    f"covering cell at level {cellid.level(cell)} "
                    f"exceeds max indexable level {max_cell_level}"
                )
            packed = (polygon_id << 1) | (1 if is_interior else 0)
            refs = refs_by_cell.get(cell)
            if refs is None:
                refs_by_cell[cell] = [packed]
            else:
                refs.append(packed)

    order = sorted(
        refs_by_cell,
        key=lambda c: ((c - (c & -c)) << 6) | cellid.level(c),
    )
    out: Dict[int, List[int]] = {}
    conflict_cells = 0
    i = 0
    n = len(order)
    while i < n:
        cell = order[i]
        group_end = i + 1
        max_range = cellid.range_max(cell)
        while group_end < n and \
                cellid.range_min(order[group_end]) <= max_range:
            next_max = cellid.range_max(order[group_end])
            if next_max > max_range:
                max_range = next_max
            group_end += 1
        if group_end == i + 1:
            out[cell] = refs_by_cell[cell]
        else:
            before = len(out)
            _resolve_group(
                [(c, refs_by_cell[c]) for c in order[i:group_end]], out)
            conflict_cells += len(out) - before - (group_end - i)
        i = group_end
    return out, max(0, conflict_cells)


def core_from_trie(trie: AdaptiveCellTrie,
                   lookup_table: LookupTable) -> ACTCore:
    """Export a built trie into its canonical flat-array form."""
    nodes, roots = trie.export_arrays()
    return ACTCore(nodes, roots, WordTable(lookup_table.as_array()),
                   trie.fanout, num_entries=trie.num_entries)


def build(coverings: Sequence[Covering], fanout: int = 256,
          use_interior: bool = True) -> Tuple[ACTCore, LookupTable, int]:
    """``(core, table, conflict cells)``: the build's back half as it
    ran, from the per-polygon coverings on."""
    trie = AdaptiveCellTrie(fanout)
    cells, conflict_cells = merge(enumerate(coverings),
                                  trie.max_cell_level)
    table = LookupTable()
    insert_cells(trie, table, cells, use_interior)
    return core_from_trie(trie, table), table, conflict_cells
