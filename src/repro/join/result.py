"""Join result containers and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..errors import JoinError


@dataclass
class JoinStats:
    """Instrumentation of one join run."""

    num_points: int = 0
    num_true_hits: int = 0
    num_candidate_refs: int = 0
    num_refined: int = 0          #: PIP tests actually executed
    num_result_pairs: int = 0
    seconds: float = 0.0

    @property
    def throughput_mpts(self) -> float:
        """Throughput in million points per second (the paper's unit)."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.num_points / self.seconds / 1e6

    @property
    def true_hit_ratio(self) -> float:
        """Fraction of result pairs resolved without refinement."""
        if self.num_result_pairs == 0:
            return 1.0
        return self.num_true_hits / self.num_result_pairs

    def merged(self, other: "JoinStats") -> "JoinStats":  # repro-lint: hot
        return JoinStats(
            num_points=self.num_points + other.num_points,
            num_true_hits=self.num_true_hits + other.num_true_hits,
            num_candidate_refs=(self.num_candidate_refs
                                + other.num_candidate_refs),
            num_refined=self.num_refined + other.num_refined,
            num_result_pairs=self.num_result_pairs + other.num_result_pairs,
            seconds=self.seconds + other.seconds,
        )


@dataclass
class JoinResult:
    """Counts per polygon plus run statistics."""

    counts: np.ndarray
    stats: JoinStats = field(default_factory=JoinStats)

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    def merged(self, other: "JoinResult") -> "JoinResult":  # repro-lint: hot
        """The join of both batches: counts and statistics add.

        Folding a stream's results with this gives running totals in
        bounded memory; neither operand is modified.
        """
        if self.counts.shape != other.counts.shape:
            raise JoinError(
                f"cannot merge counts of shape {other.counts.shape} "
                f"into shape {self.counts.shape}")
        return JoinResult(self.counts + other.counts,
                          self.stats.merged(other.stats))

    def top_k(self, k: int = 10) -> Dict[int, int]:
        """The ``k`` most-hit polygons as ``{polygon_id: count}``."""
        order = np.argsort(self.counts)[::-1][:k]
        return {int(pid): int(self.counts[pid]) for pid in order
                if self.counts[pid] > 0}
