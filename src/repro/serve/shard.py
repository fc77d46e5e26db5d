"""Shard planning for the serving fleet: keyspace, map, and slicing.

A sharded fleet partitions work twice: **by index name** (each name's
keyspace is assigned to worker slots independently, offset so distinct
names spread across distinct slots) and, within one index, **by
boundary-level cell-id range**. The grid's space-filling order makes a
contiguous cell-id range spatially coherent, so a worker that owns one
owns a compact region — and memory-maps only that region's node-pool
slice (see :func:`write_slices`).

Three layers live here:

* the **shard keyspace** — :func:`shard_keys` computes one ``uint64``
  key per probe point. It deliberately pins the *base-class*
  :meth:`~repro.grid.base.HierarchicalGrid.point_keys` implementation
  (boundary-level cell ids via ``cellid.parent_batch``) rather than a
  grid's override: the planar grid overrides ``point_keys`` with a
  packed ``(i, j)`` encoding that is *not* a cell id and is not
  contiguous per cell, which would break range routing. Cell-id order
  is the one total order every grid shares.
* the **shard map** — :class:`ShardMap` is a generation-tagged,
  immutable assignment ``name -> ((cell_lo, cell_hi, slot), ...)``
  whose ranges cover the full ``uint64`` keyspace (out-of-domain
  points hash to ``INVALID_KEY`` = all-ones and land in the last
  range like any other key). Each generation directory of a sharded
  fleet records its name's ranges (``shard_map.json``, see
  :mod:`repro.serve.statedir`), so rebalancing is just another
  generation swap: the parent cuts every name again under the next map
  generation and publishes the directories in one replace.
* the **planner and cutter** — both work on the index's flat arrays,
  never on a trie. :func:`plan_shard_map` weighs each indexed cell by
  the number of boundary-level cells it covers and cuts the keyspace
  into contiguous equal-weight parts (never splitting a cell, so each
  indexed cell has exactly one owner), working on the node skeleton —
  one weight per pool row — rather than per entry;
  :func:`slice_index` masks and compacts — the owned entries, the
  nodes on a path to one, the lookup-table sets they reference — into
  a genuine sub-index; and :func:`write_slices`, its one caller,
  writes every slot's slice into a directory as :func:`slice_file`.
  A slice is a file: whoever holds the full generation cuts once, and
  a worker maps only its own slot's archive, so per-worker resident
  bytes shrink with the shard count instead of every worker holding —
  or even touching — every node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..act import serialize
from ..act.core import ACTCore
from ..act.index import ACTIndex
from ..errors import InvalidRequestError, ServeError, UnknownIndexError
from ..grid import cellid
from ..grid.base import HierarchicalGrid

__all__ = [
    "KEY_MAX", "ShardRange", "ShardMap", "shard_keys", "plan_shard_map",
    "slice_index", "slice_file", "write_slices",
]

#: Largest value in the shard keyspace (``INVALID_KEY`` lands here).
KEY_MAX = (1 << 64) - 1


def shard_keys(grid: HierarchicalGrid, lngs: np.ndarray,
               lats: np.ndarray, level: int) -> np.ndarray:
    """Boundary-level cell-id key per point (the routing keyspace).

    Always the base-class cell-id path — never a grid's packed-key
    override — so keys order identically to the cell-id intervals the
    planner cuts. Out-of-domain points map to all-ones.
    """
    return HierarchicalGrid.point_keys(
        grid,
        np.asarray(lngs, dtype=np.float64),
        np.asarray(lats, dtype=np.float64),
        level,
    )


@dataclass(frozen=True)
class ShardRange:
    """One owned keyspace interval: ``cell_lo <= key <= cell_hi``."""

    cell_lo: int
    cell_hi: int
    slot: int


class ShardMap:
    """Immutable, generation-tagged shard assignment for a fleet.

    ``ranges`` maps index name to a tuple of :class:`ShardRange`
    sorted by ``cell_lo``, disjoint, and covering ``[0, 2**64 - 1]``
    exactly — every key has exactly one owning slot.
    """

    def __init__(self, generation: int,
                 ranges: Mapping[str, Sequence[ShardRange]],
                 num_slots: int):
        self.generation = int(generation)
        self.num_slots = int(num_slots)
        self.ranges: Dict[str, Tuple[ShardRange, ...]] = {
            name: tuple(sorted(rs, key=lambda r: r.cell_lo))
            for name, rs in ranges.items()
        }
        self._validate()
        # searchsorted tables: per name, the range los and owner slots.
        self._los: Dict[str, np.ndarray] = {}
        self._slots: Dict[str, np.ndarray] = {}
        for name, rs in self.ranges.items():
            self._los[name] = np.array(
                [r.cell_lo for r in rs], dtype=np.uint64)
            self._slots[name] = np.array(
                [r.slot for r in rs], dtype=np.int64)

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for name, rs in self.ranges.items():
            if not rs:
                raise ServeError(
                    f"shard map has no ranges for index {name!r}")
            if rs[0].cell_lo != 0:
                raise ServeError(
                    f"shard ranges for {name!r} do not start at 0")
            if rs[-1].cell_hi != KEY_MAX:
                raise ServeError(
                    f"shard ranges for {name!r} do not end at 2**64-1")
            for prev, cur in zip(rs, rs[1:]):
                if cur.cell_lo != prev.cell_hi + 1:
                    raise ServeError(
                        f"shard ranges for {name!r} have a gap or "
                        f"overlap at {cur.cell_lo:#x}")
            for r in rs:
                if r.cell_lo > r.cell_hi:
                    raise ServeError(
                        f"inverted shard range for {name!r}: "
                        f"{r.cell_lo:#x} > {r.cell_hi:#x}")
                if not 0 <= r.slot < self.num_slots:
                    raise ServeError(
                        f"shard range for {name!r} names slot "
                        f"{r.slot}, fleet has {self.num_slots}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self.ranges)

    def route(self, name: str, keys: np.ndarray) -> np.ndarray:
        """Owning slot per key (int64 array, same length as ``keys``).

        Total: every ``uint64`` key routes somewhere, including the
        all-ones out-of-domain key (owned by the last range, whose
        worker answers it with the usual empty result).
        """
        los = self._los.get(name)
        if los is None:
            raise UnknownIndexError(f"no shard ranges for index {name!r}")
        idx = np.searchsorted(los, np.asarray(keys, dtype=np.uint64),
                              side="right") - 1
        return self._slots[name][idx]

    def route_one(self, name: str, key: int) -> int:
        """Owning slot for a single key (scalar convenience)."""
        return int(self.route(name, np.array([key], dtype=np.uint64))[0])

    def ranges_for_slot(self, name: str, slot: int,
                        ) -> Tuple[Tuple[int, int], ...]:
        """The ``(lo, hi)`` intervals of ``name`` owned by ``slot``."""
        rs = self.ranges.get(name)
        if rs is None:
            raise UnknownIndexError(f"no shard ranges for index {name!r}")
        return tuple((r.cell_lo, r.cell_hi) for r in rs
                     if r.slot == slot)

    # ------------------------------------------------------------------
    # Wire form (shard_map.json / JSON admin surface)
    # ------------------------------------------------------------------
    def to_wire(self) -> dict:
        return {
            "generation": self.generation,
            "num_slots": self.num_slots,
            "ranges": {
                name: [[r.cell_lo, r.cell_hi, r.slot] for r in rs]
                for name, rs in self.ranges.items()
            },
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "ShardMap":
        return cls(
            generation=int(wire["generation"]),
            num_slots=int(wire["num_slots"]),
            ranges={
                name: [ShardRange(int(lo), int(hi), int(slot))
                       for lo, hi, slot in rows]
                for name, rows in wire["ranges"].items()
            },
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(rs)}r" for name, rs in sorted(
                self.ranges.items()))
        return (f"ShardMap(gen={self.generation}, "
                f"slots={self.num_slots}, {parts})")


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def _slot_weights(slots: np.ndarray, entry_weight: np.uint64,  # repro-lint: hot
                  subtree: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(weight, is_pointer)`` per slot of one row: an entry weighs
    ``entry_weight``, a pointer its child row's ``subtree``, a miss 0."""
    tags = slots & np.uint64(3)
    pointer = (tags == 0) & (slots != 0)
    weight = np.where(tags != 0, entry_weight, np.uint64(0))
    weight[pointer] = subtree[
        (slots[pointer] >> np.uint64(2)).astype(np.int64) - 1]
    return weight, pointer


def _plan_one(index: ACTIndex, parts: int) -> List[Tuple[int, int]]:  # repro-lint: hot
    """Cut one index's keyspace into ``<= parts`` contiguous spans.

    Spans are split points only — callers attach slots. Always covers
    ``[0, KEY_MAX]``; never splits an indexed cell's interval.

    Plans on the node skeleton, never per entry. An indexed slot
    weighs the boundary-level cells it covers (at least 1), which is
    one number per pool row; a row's subtree weight is its own slots'
    plus its children's, accumulated up ``parent[]``. Keys are the
    boundary-level cells in id order, which is slot order at every
    row: part ``k`` starts at the first key whose exclusive prefix
    weight reaches its fair share (and passes the previous cut), found
    by one root-to-leaf walk that skips whole subtrees by their weight.
    ``uint64`` throughout: the total can pass ``2**63``.
    """
    core, bl = index.core, index.boundary_level
    step = core.levels_per_step
    node_cells, parent, _ = core.node_arrays()
    # a row no pointer reaches holds nothing: give it a face's level
    node_level = cellid.level_batch(np.where(
        node_cells != 0, node_cells, np.uint64(1 << (cellid.POS_BITS - 1))))
    slot_weight = np.uint64(1) << (
        2 * np.maximum(bl - node_level - step, 0)).astype(np.uint64)
    subtree = core.node_entry_counts().astype(np.uint64) * slot_weight
    for level in range(int(node_level.max(initial=0)), 0, -step):
        rows = np.flatnonzero(node_level == level)
        np.add.at(subtree, parent[rows], subtree[rows])
    key_low = 1 << (2 * (cellid.MAX_LEVEL - bl))  # a boundary cell's lsb
    root_weight = np.uint64(1 << (2 * bl))
    total = sum(_slot_weights(core.roots, root_weight, subtree)[0].tolist())
    if parts <= 1 or total == 0:
        return [(0, KEY_MAX)]

    def first_key(slots: np.ndarray, cell: int, slot_level: int,
                  entry_weight: np.uint64, before: np.uint64,
                  need: np.uint64) -> Optional[Tuple[int, int]]:
        """``(key, exclusive prefix weight)`` of the first key under
        this row whose prefix is at least ``need`` (``before`` is the
        row's own); ``None`` when every key under it falls short."""
        weight, pointer = _slot_weights(slots, entry_weight, subtree)
        # slots below the boundary level share their boundary cell's key
        per_key = 4 ** max(0, slot_level - bl)
        if per_key > 1:
            weight = weight.reshape(-1, per_key).sum(axis=1)
        starts = before + np.cumsum(weight) - weight
        # the unit `need` falls in, then (its keys all short, or `need`
        # strictly inside one key) the next one that holds anything
        for unit in np.flatnonzero(
                (weight > 0) & (starts + weight > need)).tolist():
            slot = unit * per_key
            if per_key == 1 and slot_level < bl and pointer[slot]:
                row = int(slots[slot] >> np.uint64(2)) - 1
                found = first_key(core.nodes[row], int(node_cells[row]),
                                  slot_level + step, slot_weight[row],
                                  starts[unit], need)
                if found is not None:
                    return found
            elif starts[unit] >= need:
                # atomic: an entry, or a pointer at or below the
                # boundary level (its whole subtree is one key)
                low = cell & -cell
                base = (cell - low + slot * (low >> (2 * step - 1)) if cell
                        else slot << cellid.POS_BITS)
                return (base & -(key_low << 1)) | key_low, int(starts[unit])
        return None

    spans: List[Tuple[int, int]] = []
    start, floor = 0, 1
    for k in range(1, parts):
        # cut *before* the first key that finds the earlier parts
        # holding their fair share, and past the previous cut
        need = max(floor, math.ceil(k * total / parts))
        found = first_key(core.roots, 0, 0, root_weight, np.uint64(0),
                          np.uint64(need))
        if found is None:
            break
        spans.append((start, found[0] - 1))
        start, floor = found[0], found[1] + 1
    spans.append((start, KEY_MAX))
    return spans


def plan_shard_map(indexes: Mapping[str, ACTIndex], num_slots: int,  # repro-lint: hot
                   generation: int = 1) -> ShardMap:
    """Plan a :class:`ShardMap` over materialized indexes.

    Each index is cut into up to ``num_slots`` contiguous equal-weight
    keyspace spans (weight = boundary-cell coverage, so dense regions
    split finer). Span *k* of the name at position *i* in sorted name
    order goes to slot ``(i + k) % num_slots`` — the offset spreads
    single-span (small) indexes across distinct slots.
    """
    if num_slots < 1:
        raise InvalidRequestError("shard planning needs >= 1 slot")
    ranges: Dict[str, List[ShardRange]] = {}
    for pos, name in enumerate(sorted(indexes)):
        spans = _plan_one(indexes[name], num_slots)
        ranges[name] = [
            ShardRange(lo, hi, (pos + k) % num_slots)
            for k, (lo, hi) in enumerate(spans)
        ]
    return ShardMap(generation=generation, ranges=ranges,
                    num_slots=num_slots)


# ----------------------------------------------------------------------
# Slicing
# ----------------------------------------------------------------------
def _span_masks(cells: np.ndarray, boundary_level: int,
                owned: Sequence[Tuple[int, int]],
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(meets, inside)`` per cell: whether its key interval — the
    boundary-level ids of its first and last leaf — overlaps any owned
    span, and whether it lies wholly within one."""
    low = cellid.lsb_batch(cells)
    lo = cellid.parent_batch(cells - low, boundary_level)
    low -= np.uint64(1)
    low += cells
    hi = cellid.parent_batch(low, boundary_level)
    meets = np.zeros(lo.shape, dtype=bool)
    inside = np.zeros(lo.shape, dtype=bool)
    for span in owned:
        span_lo, span_hi = np.uint64(span[0]), np.uint64(span[1])
        meets |= (lo <= span_hi) & (hi >= span_lo)
        inside |= (lo >= span_lo) & (hi <= span_hi)
    return meets, inside


def slice_index(index: ACTIndex, spans: Iterable[Tuple[int, int]],  # repro-lint: hot
                skeleton: Optional[Tuple[np.ndarray, np.ndarray,
                                         np.ndarray]] = None) -> ACTIndex:
    """The sub-index owning the given keyspace spans, by mask-and-compact.

    An entry is owned when its key interval intersects ``spans``; a
    node is kept when it is on a path to an owned entry. That is
    decided a node at a time: one whose own interval lies inside a
    span keeps every slot, one that meets no span is dropped, and only
    the few straddling a span edge are masked slot by slot. The kept
    rows are gathered once (~1/N of the pool), pointers renumbered,
    and the lookup table regathered from the sets still referenced.
    Polygons are shared with the parent (read-only when serving, and
    refinement needs them all); ``stats`` is a copy for the slice.

    The indexed cells are disjoint and the planner never splits a
    cell's interval, so slices over a partition of the keyspace
    partition the entries: ``sum(slice.num_entries) == full.num_entries``.

    ``skeleton`` is ``index.core.node_arrays()``, for a caller cutting
    the same index more than once.
    """
    owned = sorted((int(lo), int(hi)) for lo, hi in spans)
    core, bl = index.core, index.boundary_level
    node_cells, parent, parent_slot = (
        core.node_arrays() if skeleton is None else skeleton)
    meets, inside = _span_masks(node_cells, bl, owned)
    meets &= node_cells != 0  # rows no pointer reaches
    rows = np.flatnonzero(meets)
    pool = core.nodes[rows]
    roots = core.roots.copy()
    roots[~_span_masks(cellid.from_face_batch(np.arange(roots.size)),
                       bl, owned)[0]] = 0
    # rows straddling a span edge: mask slot by slot. A pointer slot's
    # cell is its child's, so the one interval test serves both kinds
    part = np.flatnonzero(~inside[rows])
    block = pool[part]
    block[~_span_masks(cellid.descendant_batch(
        node_cells[rows[part], None], np.arange(core.fanout),
        core.levels_per_step), bl, owned)[0]] = 0
    pool[part] = block
    # a straddling row left empty is on no path to an owned entry:
    # drop it and the pointer to it, which may in turn empty its parent
    new_row = np.cumsum(meets) - 1
    alive = np.ones(rows.size, dtype=bool)
    for _ in range(core.max_steps):
        dead = part[alive[part] & ~pool[part].any(axis=1)]
        if dead.size == 0:
            break
        alive[dead] = False
        dead = rows[dead][parent[rows[dead]] >= 0]  # below a pool row
        pool[new_row[parent[dead]], parent_slot[dead]] = 0
    if not alive.all():
        pool, rows = pool[alive], rows[alive]
    if rows.size == 0:
        pool = np.zeros((1, core.fanout), dtype=np.uint64)
    # renumber pointers in pool rows and face roots (dropped row -> 0)
    remap = np.zeros(core.nodes.shape[0], dtype=np.uint64)
    remap[rows] = np.arange(1, rows.size + 1, dtype=np.uint64)
    flats, three = (pool.reshape(-1), roots), np.uint64(3)
    offset_at, entries = [], 0
    for flat in flats:
        # uint8 tags: a pool-sized uint64 temporary is first-touch
        # page faults, which cost more than the scan
        tags = np.empty(flat.shape, dtype=np.uint8)
        np.bitwise_and(flat, three, out=tags, casting="unsafe")
        ptr = np.flatnonzero((tags == 0) & (flat != 0))
        flat[ptr] = remap[(flat[ptr] >> np.uint64(2)).astype(np.int64)
                          - 1] << np.uint64(2)
        offset_at.append(np.flatnonzero(tags == 3))
        entries += int(np.count_nonzero(tags))
    # regather the lookup-table sets still referenced; repoint at them
    old = np.concatenate([flat[at] for flat, at in zip(flats, offset_at)])
    used, inverse = np.unique(old >> np.uint64(2), return_inverse=True)
    table, starts = core.subset_table(used.astype(np.int64))
    moved = (starts.astype(np.uint64)[inverse] << np.uint64(2)) | three
    flats[0][offset_at[0]], flats[1][offset_at[1]] = np.split(
        moved, offset_at[0].shape)
    sliced = ACTCore(pool, roots, table, core.fanout, num_entries=entries)
    stats = replace(index.stats, indexed_cells=entries, trie_entries=entries,
                    trie_nodes=sliced.num_nodes, trie_bytes=sliced.size_bytes,
                    lookup_table_bytes=table.size_bytes,
                    lookup_table_sets=int(used.size))
    return ACTIndex(index.grid, sliced, index.columns, stats,
                    index.boundary_level)


def slice_file(slot: int) -> str:
    """A slot's slice archive, inside the directory it was cut into."""
    return f"slot{slot}.npz"


def write_slices(index: ACTIndex, shard_map: ShardMap,  # repro-lint: hot
                 directory: Union[str, Path], name: str,
                 timings: Optional[Dict[str, float]] = None,
                 ) -> Dict[int, Path]:
    """Cut ``index`` — index ``name`` — for every slot of ``shard_map``
    and write each slice into ``directory`` as :func:`slice_file`;
    returns ``{slot: path}``.

    The one place a slice is made: the writer of a generation directory
    (:func:`repro.serve.statedir.write_generation`) calls this once,
    and every worker memory-maps only its own slot's archive. The
    skeleton is computed once for all slots; archives are written
    temp + rename, so a reader never sees a partial one. ``timings``
    accumulates ``cut_s`` / ``write_s`` for the caller's log line.
    """
    skeleton = index.core.node_arrays()
    paths: Dict[int, Path] = {}
    for slot in range(shard_map.num_slots):
        start = time.perf_counter()
        try:
            sliced = slice_index(
                index, shard_map.ranges_for_slot(name, slot),
                skeleton=skeleton)
            cut = time.perf_counter()
            paths[slot] = serialize.save_index_atomic(
                sliced, Path(directory) / slice_file(slot))
        except Exception as exc:
            raise ServeError(
                f"slot {slot}: {type(exc).__name__}: {exc}") from exc
        if timings is not None:
            timings["cut_s"] = timings.get("cut_s", 0.0) + cut - start
            timings["write_s"] = (timings.get("write_s", 0.0)
                                  + time.perf_counter() - cut)
    return paths
