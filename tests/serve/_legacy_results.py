"""The per-result loops of the serving path, kept as a test-only oracle.

This is the code ``repro.serve`` shipped while everything after
``query_batch`` traded in ``List[QueryResult]``: ``binproto``'s
``encode_results``/``decode_results`` bodies and ``ACTService.
_refine_batch`` verbatim (the latter as a function of the executor's
``refine_pairs``), the router's ``merge`` closure as :func:`scatter`,
and the JSON front's row comprehension as :func:`json_rows`. One Python
object per point, one ``append`` per id — slow, and obviously right.
``tests/serve/test_result_batch.py`` holds :class:`~repro.act.core.
ResultBatch` and the codec built on it to these.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.act.core import QueryResult
from repro.serve.binproto import (_RES, OP_RESULTS, FrameError,
                                  encode_header)


def encode_results(results: Sequence[QueryResult],  # repro-lint: hot
                   request_id: int = 0) -> bytes:
    """An ``OP_RESULTS`` frame: per-point hit counts + flat id columns."""
    n = len(results)
    true_counts = np.empty(n, dtype="<u4")
    cand_counts = np.empty(n, dtype="<u4")
    true_parts: List[int] = []
    cand_parts: List[int] = []
    for i, result in enumerate(results):
        true_counts[i] = len(result.true_hits)
        cand_counts[i] = len(result.candidates)
        true_parts.extend(result.true_hits)
        cand_parts.extend(result.candidates)
    true_ids = np.asarray(true_parts, dtype="<i8")
    cand_ids = np.asarray(cand_parts, dtype="<i8")
    payload_len = (_RES.size + 8 * n
                   + 8 * (true_ids.shape[0] + cand_ids.shape[0]))
    return b"".join((
        encode_header(OP_RESULTS, 0, request_id, payload_len),
        _RES.pack(n, true_ids.shape[0], cand_ids.shape[0], 0),
        true_counts.tobytes(),
        cand_counts.tobytes(),
        true_ids.tobytes(),
        cand_ids.tobytes(),
    ))


def decode_results(payload) -> List[QueryResult]:
    """Reassemble :class:`QueryResult` per point from an ``OP_RESULTS``
    payload (strict: every count is checked against the byte budget)."""
    if len(payload) < _RES.size:
        raise FrameError("truncated results payload")
    n, total_true, total_cand, _ = _RES.unpack_from(payload, 0)
    ids_at = _RES.size + 8 * n
    expect = ids_at + 8 * (total_true + total_cand)
    if len(payload) != expect:
        raise FrameError(
            f"results payload of {len(payload)} bytes does not match "
            f"its declared shape ({expect} bytes)")
    true_counts = np.frombuffer(payload, dtype="<u4", count=n,
                                offset=_RES.size)
    cand_counts = np.frombuffer(payload, dtype="<u4", count=n,
                                offset=_RES.size + 4 * n)
    if (int(true_counts.sum()) != total_true
            or int(cand_counts.sum()) != total_cand):
        raise FrameError("results payload counts disagree with totals")
    true_ids = np.frombuffer(payload, dtype="<i8", count=total_true,
                             offset=ids_at)
    cand_ids = np.frombuffer(payload, dtype="<i8", count=total_cand,
                             offset=ids_at + 8 * total_true)
    out: List[QueryResult] = []
    t_at = c_at = 0
    true_list = true_ids.tolist()
    cand_list = cand_ids.tolist()
    for i in range(n):
        t_n = int(true_counts[i])
        c_n = int(cand_counts[i])
        out.append(QueryResult(tuple(true_list[t_at:t_at + t_n]),
                               tuple(cand_list[c_at:c_at + c_n])))
        t_at += t_n
        c_at += c_n
    return out


def refine_batch(refine_pairs: Callable[..., np.ndarray],
                 results: List[QueryResult], lngs: np.ndarray,
                 lats: np.ndarray) -> List[QueryResult]:
    """Exact-mode refinement: true hits, then the candidates
    ``refine_pairs(point_idx, polygon_ids, lngs, lats)`` keeps, in
    candidate order."""
    point_parts: List[int] = []
    id_parts: List[int] = []
    for k, result in enumerate(results):
        for pid in result.candidates:
            point_parts.append(k)
            id_parts.append(pid)
    surviving: Dict[int, List[int]] = {}
    if point_parts:
        point_idx = np.asarray(point_parts, dtype=np.int64)
        polygon_ids = np.asarray(id_parts, dtype=np.int64)
        inside = refine_pairs(point_idx, polygon_ids, lngs, lats)
        for k, pid in zip(point_idx[inside].tolist(),
                          polygon_ids[inside].tolist()):
            surviving.setdefault(k, []).append(pid)
    return [
        QueryResult(r.true_hits + tuple(surviving.get(k, ())), ())
        for k, r in enumerate(results)
    ]


def scatter(n: int, legs: Sequence[Tuple[np.ndarray, List[QueryResult]]],
            ) -> List[Optional[QueryResult]]:
    """The router's gather: each leg's answers written back, one at a
    time, to the request positions ``pos`` they were routed from."""
    out: List[Optional[QueryResult]] = [None] * n
    for pos, part in legs:
        for k, result in zip(pos.tolist(), part):
            out[k] = result
    return out


def json_rows(results: Sequence[QueryResult]) -> List[dict]:
    """The ``results`` rows of a ``POST /query`` response."""
    return [
        {
            "true_hits": list(r.true_hits),
            "candidates": list(r.candidates),
            "polygon_ids": list(r.all_ids),
            "is_hit": r.is_hit,
        }
        for r in results
    ]
