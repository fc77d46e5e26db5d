"""Correct answers, computed apart from the path under test.

Every reply of every pass is compared with the full index's in-process
answer: ``ACTIndex.query_batch`` plus packed refinement for point
queries, pair extraction for joins (a different decode path from the
``hit_counts`` the join under test runs). A sample of each sequence is
also checked against ``baselines.scan`` brute force: exact answers must
equal it, approximate answers must contain it (no false negatives).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.act.core import QueryResult
from repro.act.index import ACTIndex
from repro.baselines.scan import ScanJoin

from .inputs import Request
from .targets import Workload


class OracleError(AssertionError):
    """The index disagrees with brute force: no reply can be judged."""


def candidate_pair_arrays(results: Sequence[QueryResult],
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """``(point_indices, polygon_ids)`` of every candidate reference,
    in point order — the pairs an exact query must refine."""
    point_idx = [k for k, r in enumerate(results) for _ in r.candidates]
    polygon_ids = [pid for r in results for pid in r.candidates]
    return (np.asarray(point_idx, dtype=np.int64),
            np.asarray(polygon_ids, dtype=np.int64))


def _exact_results(index: ACTIndex, results: List[QueryResult],
                   lngs: np.ndarray, lats: np.ndarray) -> List[QueryResult]:
    """Keep true hits; keep the candidates that pass point-in-polygon."""
    point_idx, polygon_ids = candidate_pair_arrays(results)
    kept: List[List[int]] = [[] for _ in results]
    if point_idx.size:
        inside = index.executor.refine_pairs(point_idx, polygon_ids,
                                             lngs, lats)
        for k, pid in zip(point_idx[inside].tolist(),
                          polygon_ids[inside].tolist()):
            kept[k].append(pid)
    return [QueryResult(r.true_hits + tuple(extra), ())
            for r, extra in zip(results, kept)]


def expected_reply(index: ACTIndex, workload: Workload,
                   request: Request) -> Any:
    lngs, lats = request
    if workload.kind == "join":
        _, polygon_ids = index.executor.pairs(lngs, lats,
                                              exact=workload.exact)
        return np.bincount(polygon_ids, minlength=index.num_polygons)
    results = index.query_batch(lngs, lats)
    if workload.exact:
        results = _exact_results(index, results, lngs, lats)
    return results


def _normalized(results: Sequence[QueryResult]) -> List[tuple]:
    return [(tuple(sorted(r.true_hits)), tuple(sorted(r.candidates)))
            for r in results]


def reply_matches(workload: Workload, reply: Any, expected: Any) -> bool:
    """Whether one reply is right. Polygon ids compare as sets: the
    order inside one point's answer is not part of the contract."""
    if workload.kind == "join":
        return bool(np.array_equal(reply, expected))
    return (reply == expected
            or _normalized(reply) == _normalized(expected))


def check_against_scan(index: ACTIndex, workload: Workload,
                       requests: Sequence[Request],
                       expected: Sequence[Any], sample: int) -> int:
    """Brute-force check of the first ``sample`` points; returns how
    many were checked. Raises :class:`OracleError` on disagreement."""
    scan = ScanJoin(index.polygons)
    checked = 0
    for request, answer in zip(requests, expected):
        if checked >= sample:
            break
        take = min(sample - checked, request[0].shape[0])
        lngs, lats = request[0][:take], request[1][:take]
        checked += take
        if workload.kind == "join":
            # counts are per request, so recount just the sampled points
            answer = expected_reply(index, workload, (lngs, lats))
            truth = scan.count_points(lngs, lats)
            ok = (np.array_equal(answer, truth) if workload.exact
                  else bool(np.all(answer >= truth)))
        else:
            member = scan.membership_matrix(lngs, lats)
            truths = [set(np.flatnonzero(row).tolist()) for row in member]
            ok = all(
                set(r.all_ids) == truth if workload.exact
                else set(r.all_ids) >= truth
                for r, truth in zip(answer, truths))
        if not ok:
            raise OracleError(
                f"{workload.name}: the index's answer disagrees with "
                f"brute-force point-in-polygon")
    return checked
