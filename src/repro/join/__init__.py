"""The join: :meth:`JoinExecutor.join` -> :class:`JoinResult`, its stream
and fork-pool compositions, and the filter-and-refine baseline."""

from .executor import JoinExecutor, join_stream, refine_pairs
from .filter_refine import FilterRefineJoin
from .parallel import (
    ScalingPoint,
    fork_available,
    parallel_join,
    scaling_sweep,
)
from .result import JoinResult, JoinStats

__all__ = [
    "FilterRefineJoin",
    "JoinExecutor",
    "join_stream",
    "refine_pairs",
    "ScalingPoint",
    "fork_available",
    "parallel_join",
    "scaling_sweep",
    "JoinResult",
    "JoinStats",
]
