"""The Adaptive Cell Trie (ACT) — the paper's primary contribution.

Submodules mirror the paper's Section II structure: per-polygon coverings
(:mod:`repro.grid.coverer`), the merged super covering
(:mod:`~repro.act.supercovering`), the radix tree with tagged entries
(:mod:`~repro.act.core`, :mod:`~repro.act.entry`) and the deduplicated
lookup table (:mod:`~repro.act.lookup_table`). The tree has one
representation from build to serve: the columnar
:class:`~repro.act.core.ACTCore` — the flat arrays the build emits, the
archive stores and every scalar and batch lookup runs against — plus
the memory-budgeted adaptive variant (:mod:`~repro.act.adaptive`).
"""

from .adaptive import AdaptiveACTIndex
from .builder import ACTBuilder, BuildResult
from .core import ACTCore
from .index import ACTIndex, QueryResult
from .lookup_table import LookupTable
from .stats import IndexStats
from .supercovering import SuperCovering

__all__ = [
    "AdaptiveACTIndex",
    "ACTBuilder",
    "ACTCore",
    "BuildResult",
    "ACTIndex",
    "QueryResult",
    "LookupTable",
    "IndexStats",
    "SuperCovering",
]
