"""Super covering: merging per-polygon coverings into one cell set.

Section II of the paper: *"Once the coverings of every polygon have been
computed, we merge these individual coverings into a super covering that
represents all polygons. This step involves removing duplicate cells and
resolving conflicts between overlapping cells. The latter may require
additional refinement steps and potentially increases the total number of
cells."*

Concretely:

* cells shared by several polygons are **deduplicated** into one cell with
  a merged reference set;
* ancestor/descendant **conflicts** (one polygon's coarse cell containing
  another's finer cells — typical for overlapping geofences) are resolved
  by pushing the ancestor's references down: the ancestor is re-tiled into
  aligned sub-cells, merging into existing descendants and materializing
  the sibling cells that tile the remainder.

The result is a **prefix-free** cell set: no cell is an ancestor of
another, so an ACT lookup returns at most one cell — exactly the paper's
lookup contract. (Cells keep their covering level here; the ones off
the node granularity are denormalized when
:meth:`~repro.act.core.ACTCore.from_cells` lays the pool out.)

The merge runs on columns: the coverings are concatenated into one cell
column and one reference column, sorted once, and equal cells grouped.
The sort also lays every containment chain out as a consecutive run, so
only those (rare) runs go through the per-cell push-down. References are
carried as packed 31-bit ints (``polygon_id << 1 | is_true``, the same
layout :mod:`repro.act.entry` inlines into node slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Sequence,
                    Set, Tuple)

import numpy as np

from ..errors import BuildError
from ..grid import cellid
from ..grid.coverer import Covering
from .core import _csr_gather, _indptr

#: Packed reference: ``polygon_id << 1 | is_true_hit``.
PackedRef = int


@dataclass
class _LaminarNode:
    """One conflicted cell in a containment (laminar) tree."""

    cell: int
    refs: Set[PackedRef]
    children: List["_LaminarNode"] = field(default_factory=list)


class SuperCovering:
    """The merged, prefix-free cell set for a set of polygons.

    Held as CSR columns: :attr:`cells` (``uint64``, ascending — for
    disjoint cells that is also the order of their ranges) and, for cell
    ``k``, its packed references ``refs[indptr[k]:indptr[k + 1]]``
    (possibly repeating a polygon across true/candidate flags — the
    encoder normalizes).
    """

    __slots__ = ("cells", "indptr", "refs", "levels_per_step",
                 "max_cell_level", "num_conflict_cells")

    def __init__(self, cells: np.ndarray, indptr: np.ndarray,
                 refs: np.ndarray, levels_per_step: int,
                 max_cell_level: int, num_conflict_cells: int):
        self.cells = cells
        self.indptr = indptr
        self.refs = refs
        self.levels_per_step = levels_per_step
        self.max_cell_level = max_cell_level
        self.num_conflict_cells = num_conflict_cells

    @property
    def num_cells(self) -> int:
        return int(self.cells.shape[0])

    def items(self) -> Iterator[Tuple[int, List[PackedRef]]]:
        """Yield ``(cell, packed references)`` per cell (tests, demos)."""
        refs = self.refs.tolist()
        bounds = self.indptr.tolist()
        for k, cell in enumerate(self.cells.tolist()):
            yield cell, refs[bounds[k]:bounds[k + 1]]

    @classmethod
    def merge(cls, coverings: Iterable[Tuple[int, Covering]],
              levels_per_step: int, max_cell_level: int) -> "SuperCovering":
        """Merge ``(polygon_id, covering)`` pairs into a super covering.

        ``levels_per_step`` is the node granularity ``g`` (4 for fanout
        256). Cells keep their covering level; the ones off the
        granularity are denormalized when the node pool is laid out.
        """
        cells = [np.empty(0, dtype=np.uint64)]
        refs = [np.empty(0, dtype=np.int64)]
        for polygon_id, covering in coverings:
            for is_interior, part in enumerate((covering.boundary,
                                                covering.interior)):
                cells.append(np.asarray(part, dtype=np.uint64))
                refs.append(np.full(len(part),
                                    (polygon_id << 1) | is_interior))
        cells, indptr, refs, conflict_cells = merge_columns(
            np.concatenate(cells), np.concatenate(refs), max_cell_level)
        return cls(cells, indptr, refs, levels_per_step, max_cell_level,
                   conflict_cells)

    def validate_prefix_free(self) -> None:
        """Assert no indexed cell contains another (tests call this)."""
        cells = np.sort(self.cells)
        clash = cellid.overlaps_batch(cells)
        if clash.size:
            prev, curr = cells[clash[0]:clash[0] + 2].tolist()
            raise BuildError(
                f"super covering not prefix-free: "
                f"{cellid.to_token(prev)} overlaps {cellid.to_token(curr)}"
            )


def merge_columns(cells: np.ndarray, refs: np.ndarray, max_cell_level: int,  # repro-lint: hot
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(cells, indptr, refs, conflict_cells)`` of the prefix-free cell
    set covering what the ``(cell, packed reference)`` rows cover.

    Cells are laminar (any two are nested or disjoint), so sorting by
    first leaf with coarser cells first puts equal cells side by side
    and turns containment chains into consecutive runs. Equal cells
    become one row; conflict-free cells — the overwhelmingly common case
    — are then already final, and each conflict run is re-tiled by
    :func:`_resolve_group`.
    """
    if cells.size == 0:
        return cells, np.zeros(1, dtype=np.int64), refs, 0
    low = cellid.lsb_batch(cells)
    if int(low.min()) < 1 << 2 * (cellid.MAX_LEVEL - max_cell_level):
        raise BuildError(
            f"covering cell at level "
            f"{int(cellid.level_batch(cells).max())} exceeds max "
            f"indexable level {max_cell_level}"
        )
    order = np.lexsort((~low, cells - low))
    cells, low, refs = cells[order], low[order], refs[order]
    first = np.flatnonzero(np.append(True, cells[1:] != cells[:-1]))
    cells, low = cells[first], low[first]
    indptr = np.append(first, order.shape[0])

    # a run continues while the next cell starts inside the range the
    # run has covered so far
    reach = np.maximum.accumulate(cells + (low - np.uint64(1)))
    run_start = np.flatnonzero(
        np.append(True, cells[1:] - low[1:] >= reach[:-1]))
    run_size = np.diff(np.append(run_start, cells.shape[0]))
    conflicted = np.flatnonzero(run_size > 1)
    if conflicted.size == 0:
        return cells, indptr, refs, 0

    resolved: Dict[int, List[PackedRef]] = {}
    grown = 0
    cell_list, ref_list, bounds = (cells.tolist(), refs.tolist(),
                                   indptr.tolist())
    for start, size in zip(run_start[conflicted].tolist(),
                           run_size[conflicted].tolist()):
        before = len(resolved)
        _resolve_group(
            [(cell_list[k], ref_list[bounds[k]:bounds[k + 1]])
             for k in range(start, start + size)], resolved)
        grown += len(resolved) - before - size

    # splice: the untouched rows plus the re-tiled ones, back in order
    keep = np.repeat(run_size == 1, run_size)
    new_counts = np.fromiter(map(len, resolved.values()), np.int64,
                             len(resolved))
    counts = np.concatenate((np.diff(indptr)[keep], new_counts))
    cells = np.concatenate((
        cells[keep], np.fromiter(resolved.keys(), np.uint64, len(resolved))))
    refs = np.concatenate((
        refs[np.repeat(keep, np.diff(indptr))],
        np.fromiter(chain.from_iterable(resolved.values()), np.int64,
                    int(new_counts.sum()))))
    order = np.argsort(cells, kind="stable")
    return (cells[order], _indptr(counts[order]),
            _csr_gather(order, _indptr(counts), refs), max(0, grown))


def _resolve_group(group: Sequence[Tuple[int, List[PackedRef]]],
                   out: Dict[int, List[PackedRef]]) -> None:
    """Push ancestor references down through one laminar conflict group."""
    root_cell, root_refs = group[0]
    root = _LaminarNode(root_cell, set(root_refs))
    stack = [root]
    for cell, refs in group[1:]:
        while not cellid.contains(stack[-1].cell, cell):
            stack.pop()
        node = _LaminarNode(cell, set(refs))
        stack[-1].children.append(node)
        stack.append(node)
    _emit(root.cell, frozenset(root.refs), root.children, out)


def _emit(cell: int, refs: FrozenSet[PackedRef],
          children: List[_LaminarNode],
          out: Dict[int, List[PackedRef]]) -> None:
    """Tile ``cell`` with its conflicting descendants pushed-down into it.

    ``refs`` are the references inherited from ``cell`` and all of its
    resolved ancestors; they apply to every part of the cell not claimed
    by a descendant.
    """
    if not children:
        if refs:
            _merge_out(out, cell, refs)
        return
    if not refs:
        # nothing to push down: descendants resolve independently
        for child in children:
            _emit(child.cell, frozenset(child.refs), child.children, out)
        return

    # split the cell one level and distribute (cells may sit at any level
    # since denormalization happens when the node pool is laid out)
    target_level = cellid.level(cell) + 1
    for slot in cellid.denormalize(cell, target_level):
        slot_min = cellid.range_min(slot)
        slot_max = slot_min + 2 * (slot & -slot) - 2
        sub = [c for c in children
               if slot_min <= cellid.range_min(c.cell) <= slot_max]
        if not sub:
            _merge_out(out, slot, refs)
        elif len(sub) == 1 and sub[0].cell == slot:
            node = sub[0]
            _emit(slot, refs | node.refs, node.children, out)
        else:
            # the slot itself is not a recorded cell: recurse with the
            # inherited refs (non-empty here) over the surviving nodes
            _emit(slot, refs, sub, out)


def _merge_out(out: Dict[int, List[PackedRef]], cell: int,
               refs: Iterable[PackedRef]) -> None:
    existing = out.get(cell)
    if existing is None:
        out[cell] = list(refs)
    else:
        existing.extend(refs)
