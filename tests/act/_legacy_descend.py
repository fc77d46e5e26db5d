"""What the join engine shipped before ISSUE 18, kept as test oracles.

:func:`descend` is ``ACTCore._descend`` verbatim from before the walk
computed one flat index per step and went dense while every point is
active: separate row and chunk indices into a 2-D gather, paths masked
up front — slower, and obviously right. :func:`refine_pairs` is
``JoinExecutor.refine_pairs`` from when it collapsed bit-equal
candidate pairs with a row-wise ``np.unique`` before refining (its
helper inlined); RL003 must keep flagging it. :func:`write_unpadded`
rewrites an index archive the way ``save_index`` laid it out before the
node pool's local header was padded. ``test_descend_differential.py``
and ``test_serialize.py`` hold the shipped code to these.
"""

import zipfile

import numpy as np

from repro.act.core import KEY_BITS
from repro.grid import cellid

_MASK60 = np.uint64((1 << KEY_BITS) - 1)


def descend(core, leaf_cells: np.ndarray) -> np.ndarray:
    """The level-synchronous batch walk over the node pool."""
    cells = leaf_cells.astype(np.uint64, copy=False)
    valid = cells != 0
    faces = (cells >> np.uint64(cellid.POS_BITS)).astype(np.int64)
    faces[~valid] = 0
    entries = core.roots[faces]
    entries[~valid] = 0
    paths = (cells >> np.uint64(1)) & _MASK60

    active = valid & ((entries & np.uint64(3)) == 0) & (entries != 0)
    shift = KEY_BITS
    table = core.nodes
    for _ in range(core.max_steps):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        shift -= core.bits_per_step
        node_idx = ((entries[idx] >> np.uint64(2))
                    - np.uint64(1)).astype(np.int64)
        chunk = ((paths[idx] >> np.uint64(shift))
                 & core._chunk_mask).astype(np.int64)
        found = table[node_idx, chunk]
        entries[idx] = found
        active[idx] = ((found & np.uint64(3)) == 0) & (found != 0)
    # anything still pointing at a node after max_steps is a miss
    entries[active] = 0
    return entries


def refine_pairs(executor, point_idx: np.ndarray, polygon_ids: np.ndarray,  # repro-lint: hot
                 lngs: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """PIP verdict per candidate pair, unique pairs refined once."""
    if point_idx.shape[0] >= 64:
        keys = np.empty((point_idx.shape[0], 3), dtype=np.uint64)
        keys[:, 0] = lngs[point_idx].view(np.uint64)
        keys[:, 1] = lats[point_idx].view(np.uint64)
        keys[:, 2] = polygon_ids.astype(np.uint64, copy=False)
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        if first.shape[0] != point_idx.shape[0]:
            inside = executor.edge_table.refine(
                point_idx[first], polygon_ids[first], lngs, lats)
            return inside[inverse.reshape(-1)]
    return executor.edge_table.refine(point_idx, polygon_ids, lngs, lats)


def write_unpadded(source, target, skip=(), comment=True) -> None:
    """Copy the archive ``source`` to ``target`` member by member
    (those named in ``skip`` left out) with no zip extra fields: same
    order and compression, but the stored node pool lands wherever the
    headers before it leave it. ``comment=False`` drops the archive
    comment, and with it the integrity manifest."""
    with zipfile.ZipFile(source) as src, \
            zipfile.ZipFile(target, "w", allowZip64=True) as dst:
        if comment:
            dst.comment = src.comment
        for info in src.infolist():
            if info.filename in skip:
                continue
            out = zipfile.ZipInfo(info.filename, date_time=info.date_time)
            out.compress_type = info.compress_type
            with dst.open(out, "w") as fp:
                fp.write(src.read(info.filename))
