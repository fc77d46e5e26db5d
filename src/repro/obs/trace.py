"""Request IDs, per-stage span recording, and the slow-query log.

The serving pipeline spans several hops (admission → cache probe →
descent → refine → serialize), all on the thread that handles the
request. A :class:`Trace` is the request-scoped record of where that
time went:

* **Request IDs** are minted at admission for *every* request (cheap: a
  per-process prefix plus an incrementing counter, no randomness on the
  hot path) and returned in ``X-Request-Id`` so fleet-mode failures are
  attributable to a worker PID + request.
* **Stage recording** is stamp-based, not nested spans: the trace keeps
  one "last mark" timestamp and ``stamp("descent")`` records the time
  since the previous mark under that name. Stages therefore tile the
  request wall-clock — their sum tracks end-to-end latency by
  construction, which is what makes per-stage breakdowns trustworthy.
* **Sampling** is deterministic (every Nth admission per process), so
  the unsampled hot path pays a single integer increment and the
  sampled rate is exact rather than probabilistic.
* The :class:`SlowQueryLog` keeps a bounded ring of the most recent
  over-threshold requests — full per-stage traces when the request was
  sampled, bare envelopes (id, kind, latency) when it was not — so "why
  was this slow" has an answer without grepping logs.

Budget interplay (the SLO-propagation contract): when a request carries
both a trace and a :class:`~repro.serve.budget.Budget`, every budget
checkpoint records the budget remaining at that hop into the trace, so
a shed request's trace shows which stage spent the budget.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Per-process request-id prefix; lazily (re)computed after fork so
#: sibling fleet workers never collide.
_PREFIX_STATE: Dict[str, object] = {"pid": None, "prefix": ""}
_COUNTER = itertools.count(1)


def _prefix() -> str:
    pid = os.getpid()
    if _PREFIX_STATE["pid"] != pid:
        # 4 random bytes disambiguate pid reuse across fleet restarts
        _PREFIX_STATE["prefix"] = f"{pid:x}-{os.urandom(4).hex()}"
        _PREFIX_STATE["pid"] = pid
    return _PREFIX_STATE["prefix"]  # type: ignore[return-value]


def mint_request_id() -> str:
    """A process-unique request id: ``<pid>-<boot-nonce>-<seq>``."""
    return f"{_prefix()}-{next(_COUNTER):x}"


class Trace:
    """Per-request stage recorder (created only for sampled requests).

    Not thread-safe by design: only the thread handling the request
    touches it.
    """

    __slots__ = ("request_id", "kind", "started", "_last", "stages",
                 "budget_marks")

    def __init__(self, request_id: str, kind: str = "query") -> None:
        self.request_id = request_id
        self.kind = kind
        self.started = time.perf_counter()
        self._last = self.started
        #: ``(stage name, seconds)`` in arrival order; names repeat
        #: across retries.
        self.stages: List[Tuple[str, float]] = []
        #: ``(hop name, budget remaining in seconds)`` checkpoints.
        self.budget_marks: List[Tuple[str, float]] = []

    def stamp(self, name: str) -> None:
        """Record the time since the previous mark as stage ``name``."""
        now = time.perf_counter()
        self.stages.append((name, now - self._last))
        self._last = now

    def note_budget(self, hop: str, remaining: float) -> None:
        self.budget_marks.append((hop, remaining))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def to_dict(self) -> Dict[str, object]:
        """The wire/slow-log view (milliseconds, like ``budget_ms``)."""
        total = self.elapsed()
        stages = [
            {"stage": name, "ms": seconds * 1e3}
            for name, seconds in self.stages
        ]
        out: Dict[str, object] = {
            "request_id": self.request_id,
            "kind": self.kind,
            "total_ms": total * 1e3,
            "stage_sum_ms": sum(s * 1e3 for _, s in self.stages),
            "stages": stages,
        }
        if self.budget_marks:
            out["budget_remaining_ms"] = [
                {"hop": hop, "ms": remaining * 1e3}
                for hop, remaining in self.budget_marks
            ]
        return out


class Tracer:
    """Deterministic 1-in-N trace sampler.

    ``sample_interval=64`` traces every 64th admission per process;
    ``0`` disables sampling (forced traces still work); ``1`` traces
    everything. The unsampled path costs one *unlocked* integer
    increment — the "bare counters on the hot path" bar the serving
    stack holds itself to. A racing thread can occasionally make the
    effective rate 1-in-63 or 1-in-65 for a moment; sampling does not
    need to be exact, only cheap and roughly deterministic.
    """

    __slots__ = ("sample_interval", "_admissions")

    def __init__(self, sample_interval: int = 64) -> None:
        if sample_interval < 0:
            raise ValueError(
                f"sample_interval must be >= 0, got {sample_interval}"
            )
        self.sample_interval = sample_interval
        self._admissions = 0

    def sample(self, request_id: Optional[str] = None, kind: str = "query",
               force: bool = False) -> Optional[Trace]:
        """A :class:`Trace` for this admission, or ``None`` (unsampled).

        ``force=True`` (client asked for a breakdown) always traces and
        does not consume the sampling phase.
        """
        if force:
            return Trace(request_id or mint_request_id(), kind)
        interval = self.sample_interval
        if interval <= 0:
            return None
        self._admissions += 1
        if self._admissions % interval:
            return None
        return Trace(request_id or mint_request_id(), kind)


class SlowQueryLog:
    """Bounded ring of the most recent over-threshold requests.

    ``threshold_s <= 0`` disables recording entirely (the hot path then
    pays one float compare). Entries are plain dicts: the full trace
    breakdown when the slow request happened to be sampled, otherwise a
    bare envelope — either way carrying the request id, kind, latency,
    and this worker's pid so fleet operators can attribute the entry.
    """

    __slots__ = ("threshold_s", "_lock", "_entries", "dropped", "recorded")

    def __init__(self, threshold_s: float = 0.25,
                 capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold_s = threshold_s
        self._lock = threading.Lock()
        self._entries: Deque[Dict] = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0

    def maybe_record(self, elapsed_s: float, kind: str,
                     request_id: Optional[str] = None,
                     trace: Optional[Trace] = None,
                     extra: Optional[Dict] = None) -> bool:
        """Record one finished request if it crossed the threshold."""
        if self.threshold_s <= 0 or elapsed_s < self.threshold_s:
            return False
        if trace is not None:
            entry = trace.to_dict()
        else:
            entry = {
                "request_id": request_id,
                "kind": kind,
                "total_ms": elapsed_s * 1e3,
            }
        entry["pid"] = os.getpid()
        entry["unix_time"] = time.time()
        if extra:
            entry.update(extra)
        with self._lock:
            if len(self._entries) == self._entries.maxlen:
                self.dropped += 1
            self._entries.append(entry)
            self.recorded += 1
        return True

    def entries(self) -> List[Dict]:
        """Newest-last copy of the retained entries."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> int:
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            return n

    def stats(self) -> Dict[str, float]:
        with self._lock:
            size = len(self._entries)
        return {
            "threshold_ms": self.threshold_s * 1e3,
            "capacity": self._entries.maxlen or 0,
            "size": size,
            "recorded": self.recorded,
            "dropped": self.dropped,
        }
