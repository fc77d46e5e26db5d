"""Spans recorded by the traced pass, and the arithmetic on them.

A span is ``(name, start, end, parent, request)``. The traced pass
measures each layer by calling its public functions from the benchmark
process, so the children of a request are *replays*: their durations
are real, their position is synthesized — :func:`lay_out` places them
end to end from the parent's start, in pipeline order. What a parent
does not hand to a child is its self time; for the wire span of a
request that remainder is the front's overhead (socket, event loop or
thread, header parsing), which nothing outside the server can time
directly.

Span names are the stage vocabulary ``repro.obs.Trace.stamp`` uses,
extended for the layers it does not reach yet. Spans added inside
``src/`` later must reuse them:

``request`` (the wire span), ``client_encode``, ``wire_read``,
``frame_decode``, ``admission``, ``route``, ``scatter``, ``service``,
``cell_key``, ``cache_probe``, ``leaf_cells``, ``descent``,
``entry_decode``, ``cache_put``, ``hit_counts``, ``candidate_pairs``,
``refine``, ``gather``, ``encode``, ``client_decode``.

``wire_read``, ``admission``, ``scatter`` and ``gather`` happen inside
the server and cannot be timed from outside; they are reserved.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(name, duration, children)`` — one node of a request's span tree
#: before it is placed on the timeline.
Node = Tuple[str, float, Sequence["Node"]]


class TilingError(AssertionError):
    """Child spans do not fit inside their parent."""


class SpanLog:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], request: int) -> int:
        """Record one span; returns its id (its index in the log)."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        if parent is not None and not 0 <= parent < len(self.spans):
            raise ValueError(f"span {name!r} names unknown parent {parent}")
        self.spans.append(Span(name, start, end, parent, request))
        return len(self.spans) - 1

    def lay_out(self, request: int, node: Node, start: float,
                parent: Optional[int] = None) -> int:
        """Place ``node`` at ``start`` and its children end to end
        inside it, recursively; returns the span id of ``node``."""
        name, duration, children = node
        span_id = self.add(name, start, start + duration, parent, request)
        cursor = start
        for child in children:
            self.lay_out(request, child, cursor, span_id)
            cursor += child[1]
        return span_id

    def _children(self) -> Dict[int, List[Span]]:
        by_parent: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                by_parent.setdefault(span.parent, []).append(span)
        return by_parent

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part of its interval that
        its child spans cover (overlaps between children count once,
        anything a child spends outside the parent does not count)."""
        by_parent = self._children()
        out = []
        for span_id, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(by_parent.get(span_id, ()),
                                key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def self_time_by_name(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = {}
        for span, self_time in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + self_time
        return totals

    def overflows(self) -> List[int]:
        """Ids of spans whose children spend more than the span's own
        duration — where a remainder would be negative."""
        by_parent = self._children()
        return [
            span_id for span_id, span in enumerate(self.spans)
            if sum(c.duration for c in by_parent.get(span_id, ()))
            > span.duration
        ]

    def check_tiling(self, tolerance: float) -> None:
        """Raise :class:`TilingError` unless the children tile.

        Per parent name, the children's summed duration may exceed
        the parents' by at most ``tolerance`` (a share of the parents'
        duration). A parent that hands all of its work to its children
        has a remainder of zero, and the replayed children are timed a
        moment after the parent, so noise puts the sum on either side
        of it; children well beyond the parent mean the replay is not
        the work the parent did.
        """
        by_parent = self._children()
        for name in sorted({self.spans[i].name for i in by_parent}):
            ids = [i for i in by_parent if self.spans[i].name == name]
            own = sum(self.spans[i].duration for i in ids)
            children = sum(c.duration for i in ids for c in by_parent[i])
            if children > own * (1.0 + tolerance):
                raise TilingError(
                    f"children of {name!r} spans sum to {children:.6f} s, "
                    f"over {tolerance:.0%} more than the {own:.6f} s of "
                    f"the spans themselves")

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"meta": meta,
                       "spans": [asdict(s) for s in self.spans]}, handle)
