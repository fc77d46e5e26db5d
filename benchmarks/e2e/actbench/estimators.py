"""The estimators every timing metric of the benchmark goes through.

On the 2-core shared box this benchmark was defined on, a median over
five passes of one fixed request sequence moved 25 % between two
identical sets; the per-request *minimum across passes* moved at most
8 %. So a workload replays one fixed sequence several times, each
request keeps the fastest latency it ever showed, and throughput and
percentiles are computed from those minima.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only with at least this many samples
#: strictly beyond it; with fewer, its value is one or two outliers.
MIN_SAMPLES_BEYOND = 10


def per_request_min(passes: Sequence[Sequence[float]]) -> List[float]:
    """Fastest latency of each request across ``passes``.

    Every pass must time the same request sequence, so position ``i``
    is the same request in each.
    """
    if not passes:
        raise ValueError("need at least one pass")
    length = len(passes[0])
    if any(len(p) != length for p in passes):
        raise ValueError("passes time different request sequences")
    return [min(column) for column in zip(*passes)]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or ``None`` when it is withheld.

    Withheld means fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond the rank (the median is never withheld).
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be inside (0, 1), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def summarize(minima: Sequence[float], points: Sequence[int],
              ) -> Dict[str, Optional[float]]:
    """``points_per_s``, ``req_p50_ms`` and ``req_p95_ms`` of one run.

    ``minima`` are per-request-min latencies in seconds, ``points``
    the number of correctly answered points of each request.
    """
    if len(minima) != len(points):
        raise ValueError("one point count per request")
    p95 = percentile(minima, 0.95)
    return {
        "points_per_s": sum(points) / sum(minima),
        "req_p50_ms": percentile(minima, 0.50) * 1e3,
        "req_p95_ms": None if p95 is None else p95 * 1e3,
    }


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median.

    The repeatability rule compares this with a metric's bound.
    ``None`` with fewer than two values or a zero median.
    """
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)
