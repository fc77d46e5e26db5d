"""Fixed-bucket, exactly-mergeable histograms with log-spaced bounds.

The reservoir histogram the serving metrics used to carry cannot be
merged: two workers' sample rings are windows over different traffic,
so the only honest fleet-wide figure was the worst worker's percentile
— an upper bound. A fixed-bucket histogram is closed under addition:
with identical bounds, summing bucket counts yields *exactly* the
histogram of the concatenated samples, so fleet quantiles computed from
the merged buckets carry the same (bounded, known) bucket-resolution
error as any single worker's.

Bounds are log-spaced because latencies are: the default ladder spans
10 µs to 100 s with a constant relative resolution (``per_decade``
buckets per factor of ten), so a 200 µs cache hit and a 2 s cold join
are both resolved to within the same ~35% ratio, which is what p99
tracking needs. All observations above the top bound land in a
``+Inf`` overflow bucket whose quantile estimate falls back to the
exact tracked maximum.

Snapshots are plain dicts (JSON-friendly — they ride the fleet's
file-backed ``snapshots/`` channel) and carry the bounds, so
:func:`merge_histogram_snapshots` can refuse to merge histograms with
different bucket ladders instead of silently mixing them.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def log_bounds(lo: float = 1e-5, hi: float = 100.0,
               per_decade: int = 5) -> Tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` to ``hi`` inclusive.

    ``per_decade`` buckets per factor of ten; bounds are rounded to a
    stable short decimal form so snapshots serialized through JSON
    compare equal to freshly computed ladders.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    decades = math.log10(hi / lo)
    steps = int(round(decades * per_decade))
    bounds = [float(f"{lo * 10 ** (i / per_decade):.6g}")
              for i in range(steps + 1)]
    # rounding can collapse or overshoot the last step; pin the ends
    bounds[0] = lo
    bounds[-1] = hi
    return tuple(bounds)


#: The default ladder for ``*_seconds`` latency metrics: 10 µs .. 100 s,
#: 5 buckets per decade (~58% bucket width, <~26% quantile error).
DEFAULT_LATENCY_BOUNDS = log_bounds(1e-5, 100.0, per_decade=5)


def quantile_from_buckets(q: float, bounds: Sequence[float],
                          bucket_counts: Sequence[int],
                          observed_max: float = 0.0) -> float:
    """Estimate the ``q``-quantile (0..1) from cumulative-able buckets.

    ``bucket_counts`` has ``len(bounds) + 1`` entries (the last is the
    +Inf overflow). Within the located bucket the estimate interpolates
    linearly between the bucket's lower and upper bound; the overflow
    bucket answers with the exact ``observed_max``. Estimates are
    clamped to ``observed_max`` so a nearly-empty histogram never
    reports a quantile above anything it saw.
    """
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    cumulative = 0
    for i, count in enumerate(bucket_counts):
        if not count:
            continue
        if cumulative + count >= rank:
            if i >= len(bounds):  # overflow bucket
                return observed_max
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            fraction = (rank - cumulative) / count
            estimate = lower + (upper - lower) * fraction
            if observed_max:
                estimate = min(estimate, observed_max)
            return estimate
        cumulative += count
    return observed_max  # unreachable when counts sum to total


class MergeableHistogram:
    """Fixed-bucket histogram of float samples (seconds).

    ``observe`` is the hot path: one ``bisect`` over a small tuple of
    bounds plus four *unlocked* attribute updates. Under the GIL each
    ``+=`` is a load/add/store that can only lose an update if a thread
    switch lands exactly between the load and the store — rare, and a
    lost sample merely undercounts a telemetry aggregate (the same racy
    ``+=`` trade the descent counters in :mod:`repro.act.core` make).
    Taking a lock here costs more than the rest of ``observe`` combined,
    and telemetry stays on by default only because it is nearly free.
    ``snapshot`` derives its ``count`` from the bucket sum so the
    Prometheus invariant (``+Inf`` cumulative == ``_count``) holds even
    when a racing observe has bumped one but not yet the other.
    ``merge_snapshot`` (cold path) still locks against itself.
    """

    __slots__ = ("_lock", "bounds", "_counts", "total", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(DEFAULT_LATENCY_BOUNDS if bounds is None else bounds)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bounds must be non-empty and strictly increasing: "
                f"{bounds!r}"
            )
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: +Inf overflow
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        # Lock-free on purpose — see the class docstring.
        self._counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def count(self) -> int:
        """Total observations — derived from the buckets so there is one
        source of truth (a separate counter could drift under races)."""
        return sum(self._counts)

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile(self, q: float) -> float:
        """The estimated ``q``-quantile (0..1); 0.0 when empty."""
        with self._lock:
            counts = list(self._counts)
            observed_max = self.max
        return quantile_from_buckets(q, self.bounds, counts, observed_max)

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        with self._lock:
            counts = list(self._counts)
            observed_max = self.max
        return [quantile_from_buckets(q, self.bounds, counts, observed_max)
                for q in qs]

    def bucket_counts(self) -> List[int]:
        """A copy of the per-bucket counts (last entry is +Inf)."""
        with self._lock:
            return list(self._counts)

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold a :meth:`snapshot` (same bounds) into this histogram."""
        if tuple(snapshot["bounds"]) != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        counts = snapshot["bucket_counts"]
        with self._lock:
            for i, count in enumerate(counts):
                self._counts[i] += int(count)
            self.total += float(snapshot["sum"])
            self.max = max(self.max, float(snapshot["max"]))

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view: exact count/sum/max, buckets, and the
        p50/p90/p99/p999 estimates the ``/stats`` consumers read."""
        with self._lock:
            counts = list(self._counts)
            total = self.total
            observed_max = self.max
        # Derived, not self.count: under racy observes the bucket sum is
        # the one figure guaranteed consistent with the buckets we just
        # copied, which is what the +Inf == _count exposition rule needs.
        count = sum(counts)
        p50, p90, p99, p999 = (
            quantile_from_buckets(q, self.bounds, counts, observed_max)
            for q in (0.50, 0.90, 0.99, 0.999)
        )
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "max": observed_max,
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "p999": p999,
            "bounds": list(self.bounds),
            "bucket_counts": counts,
        }


def merge_histogram_snapshots(snapshots: Iterable[Dict],
                              ) -> Optional[Dict[str, object]]:
    """Bucket-wise merge of histogram snapshots with identical bounds.

    Returns a snapshot of the same shape (quantiles recomputed from the
    merged buckets), or ``None`` when ``snapshots`` is empty. Snapshots
    lacking buckets (e.g. published by an old-format worker mid-rolling
    upgrade) are skipped rather than poisoning the merge; mismatched
    bounds raise ``ValueError`` because averaging across different
    ladders would be silently wrong.
    """
    merged: Optional[MergeableHistogram] = None
    for snapshot in snapshots:
        bounds = snapshot.get("bounds")
        if not bounds or "bucket_counts" not in snapshot:
            continue
        if merged is None:
            merged = MergeableHistogram(bounds)
        merged.merge_snapshot(snapshot)
    return merged.snapshot() if merged is not None else None
