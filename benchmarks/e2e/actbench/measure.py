"""The untraced run: cold starts, verified passes, end-to-end metrics.

One closed-loop client — this process, one connection, one request in
flight — replays the workload's fixed sequence. Every reply of every
pass is checked, outside the timed region. The first pass warms up
(caches, page cache, lazy imports in the server) and is not timed;
the passes after it are repeated until ``--seconds`` have gone by, and
each request keeps its fastest latency (see ``estimators``).
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.act.index import ACTIndex

from . import sut
from .estimators import per_request_min, summarize
from .inputs import Request, Scale, sequence
from .oracle import check_against_scan, expected_reply, reply_matches
from .targets import RequestFailed, Workload, start_target

#: A cold start is not repeated once this many seconds went into
#: starts (the sharded fleet takes ~18 s to come up; one start of it
#: is all a run can afford).
SETUP_BUDGET_S = 10.0
#: The per-request minimum needs at least two timed passes.
MIN_PASSES = 2
#: JSON requests sent before timing starts (the cell cache is warmed
#: over the binary plane; these only settle the HTTP connection).
HTTP_WARMUP_REQUESTS = 10


@dataclass
class Tally:
    """Requests attempted, and how many failed: an error, a shed or a
    wrong answer each count once."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Prepared:
    """A workload's inputs and oracle answers for one seed."""

    workload: Workload
    artifact: Path
    index: ACTIndex
    requests: List[Request]
    expected: List[Any]
    scan_checked: int

    @property
    def points(self) -> List[int]:
        return [int(r[0].shape[0]) for r in self.requests]


def prepare(workload: Workload, scale: Scale, seed: int) -> Prepared:
    artifact = sut.ensure_artifact(scale)
    index = sut.load_index(artifact)
    requests = sequence(workload.name, scale, seed, index.polygons)
    expected = [expected_reply(index, workload, r) for r in requests]
    checked = check_against_scan(index, workload, requests, expected,
                                 scale.scan_sample)
    # the requests and answers live as long as the run: keep the
    # collector from walking them every time the client's own decoding
    # (or the mirror service) fills a generation
    gc.collect()
    gc.freeze()
    return Prepared(workload, artifact, index, requests, expected, checked)


def checked_call(call: Callable[[Request], Any], workload: Workload,
                 request: Request, expected: Any, tally: Tally,
                 traced: bool = False) -> Tuple[Optional[Any], float]:
    """One request: ``(what call returned, seconds)``, tallied.

    ``traced`` says ``call`` is a target's ``call_traced``, whose
    result carries the reply first. A failed request returns ``None``.
    """
    tally.attempted += 1
    start = perf_counter()
    try:
        result = call(request)
    except RequestFailed:
        result = None
    elapsed = perf_counter() - start
    if result is not None:
        reply = result[0] if traced else result
        if not reply_matches(workload, reply, expected):
            result = None
    if result is None:
        tally.failed += 1
    return result, elapsed


def run_pass(call: Callable[[Request], Any], prepared: Prepared,
             tally: Tally, limit: Optional[int] = None) -> List[float]:
    """Latency of each request of one pass over the sequence."""
    return [
        checked_call(call, prepared.workload, request, answer, tally)[1]
        for request, answer in zip(prepared.requests[:limit],
                                   prepared.expected[:limit])
    ]


def cold_starts(prepared: Prepared, tally: Tally, repeats: int):
    """``(target, seconds of each start)``.

    A start runs from the artifact on disk to the first verified
    answer: process spawn, imports, ``load_index``, prewarm, fleet
    fork and shard slicing, ``/readyz``, one request. The target of
    the last start is the one the passes then measure.
    """
    times: List[float] = []
    target = None
    while len(times) < repeats and sum(times) < SETUP_BUDGET_S:
        if target is not None:
            target.stop()
        start = perf_counter()
        target = start_target(prepared.artifact, prepared.workload)
        try:
            checked_call(target.call, prepared.workload,
                         prepared.requests[0], prepared.expected[0], tally)
        except BaseException:
            target.stop()
            raise
        times.append(perf_counter() - start)
    return target, times


def warm_up(target, prepared: Prepared, tally: Tally) -> None:
    if prepared.workload.kind == "http":
        target.warm_cache(prepared.requests)
        run_pass(target.call, prepared, tally, limit=HTTP_WARMUP_REQUESTS)
    else:
        run_pass(target.call, prepared, tally)


def end_to_end(workload: Workload, scale: Scale, seed: int,
               seconds: float) -> Dict[str, Any]:
    prepared = prepare(workload, scale, seed)
    tally = Tally()
    target, setups = cold_starts(prepared, tally, scale.cold_starts)
    try:
        warm_up(target, prepared, tally)
        passes: List[List[float]] = []
        began = perf_counter()
        while (len(passes) < MIN_PASSES
               or perf_counter() - began < seconds):
            passes.append(run_pass(target.call, prepared, tally))
        peak_rss = target.peak_rss_mib()
    finally:
        target.stop()
    metrics = summarize(per_request_min(passes), prepared.points)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": len(passes),
        "samples": len(prepared.requests),
        "cold_starts": len(setups),
        "scan_checked_points": prepared.scan_checked,
    }
