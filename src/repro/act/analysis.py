"""Index introspection and space analysis.

The paper's evaluation reasons about *why* ACT behaves the way it does:
interior cells sit at coarse levels (cache-resident upper nodes), boundary
cells concentrate at the precision level, and fanout-256 nodes are sparsely
occupied. This module computes those distributions from a built index so
the claims can be inspected (and are asserted in tests):

* :func:`level_histogram` — indexed cells per grid level, split into
  true-hit and candidate slots;
* :func:`node_occupancy` — distribution of non-empty slots per node;
* :func:`interior_area_fraction` — fraction of each polygon's area covered
  by its interior cells (the paper's "majority of the interior area");
* :func:`summarize` — one dict with the headline numbers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..geometry.polygon import Polygon
from ..grid import cellid
from ..grid.base import HierarchicalGrid
from ..grid.coverer import Covering
from . import entry as entry_codec
from .core import ACTCore
from .index import ACTIndex


def level_histogram(core: ACTCore) -> Dict[int, Tuple[int, int]]:
    """``{level: (true_hit_slots, candidate_slots)}`` over indexed cells.

    Levels reflect the post-denormalization placement (the node depth a
    lookup actually touches).
    """
    cells, entries = core.cell_arrays()
    levels = cellid.level_batch(cells)
    tags = entries & np.uint64(3)
    # an inline payload counts as a true-hit slot when any of its refs
    # is one (the flag is a ref's bit 0; a 2-payload's second ref sits
    # 31 bits above its first); offset entries are mixed, so they count
    # conservatively, as candidates
    first = ((entries >> np.uint64(2)) & np.uint64(1)) == 1
    second = ((entries >> np.uint64(33)) & np.uint64(1)) == 1
    is_true = (((tags == entry_codec.TAG_PAYLOAD_1) & first)
               | ((tags == entry_codec.TAG_PAYLOAD_2) & (first | second)))
    true_slots = np.bincount(levels[is_true], minlength=cellid.MAX_LEVEL + 1)
    cand_slots = np.bincount(levels[~is_true], minlength=cellid.MAX_LEVEL + 1)
    return {int(level): (int(true_slots[level]), int(cand_slots[level]))
            for level in np.flatnonzero(true_slots + cand_slots)}


def node_occupancy(core: ACTCore) -> Dict[str, float]:
    """Slot-occupancy statistics over all nodes (sparsity of fanout 256)."""
    if core.num_nodes == 0:
        return {"nodes": 0, "mean": 0.0, "median": 0.0, "max": 0}
    fills = np.count_nonzero(core.nodes, axis=1)
    return {
        "nodes": int(core.num_nodes),
        "mean": float(fills.mean()),
        "median": float(np.median(fills)),
        "max": int(fills.max()),
        "occupancy": float(fills.mean()) / core.fanout,
    }


def interior_area_fraction(covering: Covering, polygon: Polygon,
                           grid: HierarchicalGrid) -> float:
    """Fraction of the polygon's area covered by interior (true-hit) cells.

    The paper: ACT "improves the ratio of true hits by covering the
    majority of the interior area of polygons using interior cells".
    """
    if polygon.area <= 0.0:
        return 0.0
    interior_area = sum(
        grid.cell_rect(cell).area for cell in covering.interior
    )
    return min(1.0, interior_area / polygon.area)


def summarize(index: ACTIndex) -> Dict[str, object]:
    """Headline introspection numbers for one index."""
    histogram = level_histogram(index.core)
    occupancy = node_occupancy(index.core)
    total_true = sum(t for t, _ in histogram.values())
    total_cand = sum(c for _, c in histogram.values())
    coarse_true = sum(
        t for level, (t, _) in histogram.items()
        if level <= index.boundary_level - 2
    )
    return {
        "indexed_cells": index.stats.indexed_cells,
        "levels": sorted(histogram),
        "true_hit_slots": total_true,
        "candidate_slots": total_cand,
        "true_slot_fraction": (
            total_true / max(1, total_true + total_cand)
        ),
        "coarse_true_slots": coarse_true,
        "node_occupancy": occupancy,
        "boundary_level": index.boundary_level,
        "bytes_per_indexed_cell": (
            index.core.size_bytes / max(1, index.stats.indexed_cells)
        ),
    }
