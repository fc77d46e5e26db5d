"""Per-request latency budgets with deadline propagation.

A serving layer should know its remaining latency budget at every hop —
admission, cache lookup, descent dispatch — instead of discovering SLO
overruns after the fact. :class:`Budget` is a thin monotonic-clock
deadline that requests carry through the stack: at each hop the
service sheds a request whose budget is already spent
(:meth:`Budget.require` raises
:class:`~repro.errors.BudgetExceededError`).

Budgets also carry the request's trace when one exists (the SLO budget
propagation contract): every :meth:`Budget.require` checkpoint records
how much budget remained at that hop into the trace, so a shed
request's breakdown shows exactly which stage spent the budget — what
it received, what it spent, and what it forwarded downstream.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from ..errors import BudgetExceededError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.trace import Trace


class Budget:
    """Remaining-latency budget for one request.

    ``Budget(0.050)`` means "this request must finish within 50 ms of
    now". A ``deadline`` of ``None`` means unlimited (never expires).
    """

    __slots__ = ("deadline", "trace")

    def __init__(self, seconds: Optional[float]):
        self.deadline = None if seconds is None else time.monotonic() + seconds
        #: The request's :class:`~repro.obs.trace.Trace`, when sampled;
        #: ``require`` checkpoints budget-remaining into it per hop.
        self.trace: Optional["Trace"] = None

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(None)

    @classmethod
    def from_ms(cls, ms: Optional[float]) -> "Budget":
        """Budget from a millisecond figure (``None`` -> unlimited)."""
        return cls(None if ms is None else ms / 1000.0)

    @property
    def is_unlimited(self) -> bool:
        return self.deadline is None

    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited; may be negative)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def require(self, operation: str) -> None:
        """Raise :class:`~repro.errors.BudgetExceededError` if spent.

        When the request is traced, the budget remaining at this hop is
        recorded (received/spent/forwarded accounting) whether or not
        the checkpoint sheds.
        """
        if self.deadline is None:
            return
        remaining = self.deadline - time.monotonic()
        if self.trace is not None:
            self.trace.note_budget(operation, remaining)
        if remaining <= 0:
            raise BudgetExceededError(
                f"latency budget exhausted before {operation} "
                f"(overrun by {-remaining * 1e3:.1f} ms)"
            )

    def __repr__(self) -> str:
        if self.deadline is None:
            return "Budget(unlimited)"
        return f"Budget({self.remaining() * 1e3:.1f} ms remaining)"
