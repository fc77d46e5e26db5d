"""Index registry: named, lazily materialized, generation-tagged indexes.

Every pre-serve entry point (CLI, benchmarks, examples) rebuilt its index
per process and threw it away. The registry gives indexes names and
lifetimes: a name maps to either a *builder* (a zero-argument callable
returning an :class:`~repro.act.index.ACTIndex`) or a *path* (an ``.npz``
written by :mod:`repro.act.serialize`). The first ``get`` materializes
the index — build or load — and pins it for every later request; builds
of distinct names can proceed concurrently, while concurrent ``get`` of
the same name build exactly once (per-name locks).

Materialized entries are :class:`IndexGeneration` records — an
immutable ``(generation, index, source artifact, mmap mode)`` tuple.
The generation number increments on every materialization of a name
(first load, post-evict rebuild, explicit :meth:`IndexRegistry.reload`),
so a request that pins a record at admission keeps one coherent core,
cache keyspace, and refinement engine for its whole lifetime even if an
operator swaps the index mid-request: the old record object stays alive
for exactly as long as in-flight requests reference it.

A pinned index *is* its columnar :class:`~repro.act.core.ACTCore` — the
flat arrays exist from construction (builds export them, loads
materialize them straight from the ``.npz``), so there is no lazy
freeze step to race and cold loads never rebuild a Python trie.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..act import serialize
from ..act.index import ACTIndex
from ..errors import ServeError, UnknownIndexError
from . import chaos

#: Distinguishes "argument not passed" from an explicit ``None``.
_UNSET = object()


def prewarm_index(index: ACTIndex, edge_table: bool = True) -> ACTIndex:
    """Pre-build one index's hot-path artifacts for pre-fork binding.

    Serving-layer alias for :meth:`repro.act.index.ACTIndex.prewarm` —
    the logic lives on the index so lower layers (``join/parallel.py``)
    share the same fork discipline without importing the serving stack.
    """
    return index.prewarm(edge_table=edge_table)


@dataclass(frozen=True)
class IndexGeneration:
    """One materialized generation of a named index (the hot-path record).

    ``source`` names how the registration materializes ("builder",
    "path", or "index" for pre-built objects); ``path``/``mmap_mode``
    record the artifact *this* generation was actually loaded from —
    for fleet reloads that is the coordinator's side ``.npz``, not the
    registration's source path.
    """

    name: str
    generation: int
    index: ACTIndex
    source: str
    path: Optional[Path] = None
    mmap_mode: Optional[str] = None
    materialize_seconds: Optional[float] = None

    @property
    def core(self):
        return self.index.core

    def describe(self) -> dict:
        """The admin-listing view of this generation."""
        info = {
            "name": self.name,
            "generation": self.generation,
            "source": self.source,
            "bytes": self.index.core.total_bytes,
            "mmap_mode": self.mmap_mode,
            "num_polygons": self.index.num_polygons,
            "precision_meters": self.index.precision_meters,
            "boundary_level": self.index.boundary_level,
            "materialize_seconds": self.materialize_seconds,
        }
        if self.path is not None:
            info["artifact_path"] = str(self.path)
        return info


@dataclass
class _Registration:
    """One named index: how to materialize it, and the pinned record."""

    name: str
    builder: Optional[Callable[[], ACTIndex]] = None
    path: Optional[Path] = None
    mmap_mode: Optional[str] = None
    #: Integrity mode path loads use (see serialize.load_index).
    verify: str = "header"
    index: Optional[ACTIndex] = None
    #: Generations handed out so far; survives evict() so a name's
    #: generation numbers never repeat within a registry.
    generation: int = 0
    record: Optional[IndexGeneration] = None
    lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def source(self) -> str:
        if self.path is not None:
            return "path"
        return "index" if self.builder is None else "builder"


class IndexRegistry:
    """Named ACT indexes, built or loaded on first use and reused after."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._registrations: Dict[str, _Registration] = {}
        #: Last generation handed out per name, surviving unregister —
        #: a re-registered name continues its sequence, so a cache
        #: entry written by a request still in flight across the
        #: unregister can never alias a later registration's keys.
        self._last_generations: Dict[str, int] = {}
        #: Lock-free hot-path view: name -> pinned generation record.
        #: Plain dict reads are GIL-atomic, so request threads skip the
        #: registry lock and pin one coherent generation per request.
        self.materialized: Dict[str, IndexGeneration] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, builder: Callable[[], ACTIndex]) -> None:
        """Register ``name`` to be built by ``builder`` on first use."""
        self._add(_Registration(name=name, builder=builder))

    def register_path(self, name: str, path: Union[str, Path],
                      mmap_mode: Optional[str] = None,
                      verify: str = "header") -> None:
        """Register ``name`` to be loaded from a serialized index file.

        ``mmap_mode="r"`` memory-maps the node pool from the archive on
        materialization (lazy cold start, page-cache sharing across
        forked workers; see :func:`repro.act.serialize.load_index`).
        ``verify`` is the integrity mode every materialization of this
        name loads under (``"header"``, ``"full"``, or ``"off"``); a
        failed check raises
        :class:`~repro.errors.ArtifactCorruptError` out of the
        materializing request or admin call.
        """
        self._add(_Registration(name=name, path=Path(path),
                                mmap_mode=mmap_mode, verify=verify))

    def register_index(self, name: str, index: ACTIndex) -> None:
        """Register an already-built index (pinned immediately)."""
        self._add(_Registration(name=name, index=index))

    def _add(self, registration: _Registration) -> None:
        with self._lock:
            if registration.name in self._registrations:
                raise ServeError(
                    f"index {registration.name!r} is already registered"
                )
            self._registrations[registration.name] = registration
            # continue the name's generation sequence across an
            # unregister + re-register (see _last_generations above)
            registration.generation = self._last_generations.get(
                registration.name, 0)
            # publish pre-built indexes to the hot-path view while still
            # holding the registry lock: a concurrent evict() cannot even
            # resolve the registration until we release it, so pinning
            # and registration are one atomic step
            if registration.index is not None:
                registration.generation += 1
                self._last_generations[registration.name] = \
                    registration.generation
                registration.record = IndexGeneration(
                    name=registration.name,
                    generation=registration.generation,
                    index=registration.index, source="index",
                    materialize_seconds=0.0,
                )
                self.materialized[registration.name] = registration.record

    def unregister(self, name: str) -> dict:
        """Remove a name entirely: registration and pinned record.

        In-flight requests that already pinned the record finish
        normally on it; new requests get
        :class:`~repro.errors.UnknownIndexError`. The name's generation
        counter is kept, so a later re-registration continues the
        sequence instead of reusing numbers a straggling request may
        still be caching under. Returns a summary of what was dropped
        (name, last generation, whether it was materialized).
        """
        with self._lock:
            registration = self._registrations.pop(name, None)
            if registration is None:
                raise UnknownIndexError(
                    f"unknown index {name!r} "
                    f"(registered: {sorted(self._registrations)})"
                )
            self._last_generations[name] = registration.generation
            record = self.materialized.pop(name, None)
        return {
            "name": name,
            "generation": registration.generation,
            "was_materialized": record is not None,
        }

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def get(self, name: str) -> ACTIndex:
        """The pinned index for ``name``, building/loading it on first use."""
        return self.pin(name).index

    def pin(self, name: str) -> IndexGeneration:
        """The pinned generation record, materializing on first use.

        The record is immutable: holding it for the duration of a
        request guarantees the core, polygons, and generation number
        never change underneath the request, reload or not.
        """
        record = self.materialized.get(name)
        if record is not None:
            return record
        registration = self._registration(name)
        with registration.lock:
            if registration.record is None:
                self._materialize_locked(registration)
            return registration.record

    def reload(self, name: str, *,
               source_path: Optional[Union[str, Path]] = None,
               source_mmap_mode=_UNSET,
               artifact_path: Optional[Union[str, Path]] = None,
               artifact_mmap_mode=_UNSET,
               generation: Optional[int] = None,
               verify: Optional[str] = None) -> IndexGeneration:
        """Materialize a fresh generation and atomically swap it in.

        * default: re-run the registration's own source (builder or
          path — the file may have been replaced on disk, which is the
          point);
        * ``source_path`` permanently repoints the registration at a
          new ``.npz`` (the operator shipped new data);
        * ``artifact_path`` loads *this* generation from a specific
          artifact without repointing the source — the fleet reload
          protocol uses it so every worker mmaps the coordinator's side
          file while registrations keep their true source;
        * ``generation`` forces the new record's generation number
          (fleet workers adopt the coordinator-assigned one). A reload
          to a generation the registration already reached is a no-op
          returning the current record, which makes fleet command
          application idempotent;
        * ``verify`` overrides the registration's integrity mode for
          *this* materialization only — the admin layer escalates to
          ``"full"`` when loading operator-shipped bytes, so a bit flip
          deep in an mmap-ed node pool (which the lazy ``"header"``
          mode deliberately never hashes) is rejected before the fleet
          ever serves it.

        The swap is one dict assignment: requests pin either the old
        record or the new one, never a mix, and the old record lives on
        until its last in-flight request drops it.
        """
        registration = self._registration(name)
        with registration.lock:
            record = registration.record
            if (generation is not None and record is not None and (
                    registration.generation > generation
                    or (registration.generation == generation
                        and (artifact_path is None
                             or Path(artifact_path) == record.path)))):
                return record
            if source_path is not None:
                registration.path = Path(source_path)
                registration.builder = None
                if source_mmap_mode is not _UNSET:
                    registration.mmap_mode = source_mmap_mode
            self._materialize_locked(
                registration,
                artifact_path=artifact_path,
                artifact_mmap_mode=artifact_mmap_mode,
                generation=generation,
                verify=verify,
            )
            return registration.record

    def _materialize_locked(self, registration: _Registration, *,
                            artifact_path=None, artifact_mmap_mode=_UNSET,
                            generation: Optional[int] = None,
                            verify: Optional[str] = None) -> None:
        """Build/load a new generation; caller holds the registration lock."""
        start = time.perf_counter()
        mmap_mode = (registration.mmap_mode
                     if artifact_mmap_mode is _UNSET else artifact_mmap_mode)
        verify_mode = registration.verify if verify is None else verify
        if artifact_path is not None or registration.path is not None:
            # chaos seam: armed tests inject slow/failing artifact I/O
            # here; the error propagates exactly like a real load
            # failure (reload NACK, materialization 500)
            chaos.fault("artifact.load")
        if artifact_path is not None:
            path = Path(artifact_path)
            index = serialize.load_index(path, mmap_mode=mmap_mode,
                                         verify=verify_mode)
        elif registration.path is not None:
            path = registration.path
            index = serialize.load_index(path, mmap_mode=mmap_mode,
                                         verify=verify_mode)
        elif registration.builder is not None:
            path = None
            index = registration.builder()
        else:
            # an "index" registration has nothing to re-materialize
            # from once evicted — unless the caller supplies an artifact
            if registration.index is None:
                raise ServeError(
                    f"index {registration.name!r} was registered as a "
                    f"pre-built object and cannot be re-materialized "
                    f"without a path"
                )
            path = None
            index = registration.index
        # pre-warm the hot-path artifacts while we still hold the
        # materialization lock: the threaded serve front should never
        # pay the executor/edge-table build (or race it) inside a request
        _ = index.executor.edge_table
        registration.generation = (registration.generation + 1
                                   if generation is None else generation)
        self._last_generations[registration.name] = registration.generation
        registration.record = IndexGeneration(
            name=registration.name,
            generation=registration.generation,
            index=index,
            source=registration.source,
            path=path,
            mmap_mode=mmap_mode if path is not None else None,
            materialize_seconds=time.perf_counter() - start,
        )
        self.materialized[registration.name] = registration.record

    def repoint(self, name: str, path: Union[str, Path],
                mmap_mode: Optional[str] = None) -> None:
        """Repoint a registration's source path without materializing.

        Reload-abort cleanup: a failed ``reload(source_path=...)`` has
        already repointed the registration at a source that turned out
        to be bad (and is now quarantined); this points it back at the
        pre-op source so later default reloads keep working. The pinned
        record is untouched.
        """
        registration = self._registration(name)
        with registration.lock:
            registration.path = Path(path)
            registration.builder = None
            registration.mmap_mode = mmap_mode

    def restore(self, record: IndexGeneration) -> IndexGeneration:
        """Re-pin a previously current record (reload rollback).

        Used by the fleet reload coordinator when publishing a freshly
        materialized generation fails (side-artifact write error): the
        old record becomes current again so this process stays
        convergent with the rest of the fleet. The generation counter
        is *not* rewound — the failed generation's number stays burned,
        so any cache entries written under it remain unreachable.
        """
        registration = self._registration(record.name)
        with registration.lock:
            registration.record = record
            self.materialized[record.name] = record
        return record

    def prewarm(self, names: Optional[List[str]] = None,
                edge_tables: bool = True) -> Dict[str, ACTIndex]:
        """Materialize indexes and their hot-path artifacts, fork-safely.

        Materializes every registered name (or just ``names``) and runs
        :func:`prewarm_index` on each, so nothing on the serving hot
        path is built lazily afterwards. Called in a pre-fork parent
        this leaves no registry or executor lock held and no thread
        running, making the registry safe to inherit through ``fork``:
        children serve from the parent's built (and, for mmap-loaded
        node pools, page-cache-shared) artifacts.
        """
        out: Dict[str, ACTIndex] = {}
        for name in (self.names() if names is None else list(names)):
            out[name] = prewarm_index(self.get(name),
                                      edge_table=edge_tables)
        return out

    def save(self, name: str, path: Union[str, Path]) -> None:
        """Persist the (materialized) index to ``path``."""
        serialize.save_index(self.get(name), path)

    def evict(self, name: str) -> None:
        """Drop the pinned record; the next ``get`` re-materializes.

        The generation counter is kept, so the re-materialized index
        gets a *new* generation number — stale caches keyed by the old
        generation can never answer for the new one.
        """
        registration = self._registration(name)
        with registration.lock:
            self.materialized.pop(name, None)
            registration.record = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._registrations)

    def is_materialized(self, name: str) -> bool:
        return self._registration(name).record is not None

    def generation(self, name: str) -> int:
        """The newest generation number handed out for ``name``."""
        return self._registration(name).generation

    def describe(self, name: str) -> dict:
        """Status dict for ``/stats`` and the admin listing; never
        triggers materialization."""
        registration = self._registration(name)
        record = registration.record
        info: dict = {
            "name": name,
            "materialized": record is not None,
            "generation": registration.generation,
            "source": registration.source,
        }
        if registration.path is not None:
            info["path"] = str(registration.path)
            if registration.mmap_mode is not None:
                info["mmap_mode"] = registration.mmap_mode
        if record is not None:
            core = record.index.core
            info.update({
                "num_polygons": record.index.num_polygons,
                "precision_meters": record.index.precision_meters,
                "boundary_level": record.index.boundary_level,
                "trie_bytes": core.size_bytes,
                "bytes": core.total_bytes,
                "materialize_seconds": record.materialize_seconds,
                # per-core descent telemetry (this process, this
                # generation); exported as per-index /metrics gauges
                "descent_batches": core.descent_batches,
                "descent_points": core.descent_points,
                "descent_seconds": core.descent_seconds,
            })
            if record.mmap_mode is not None:
                info["mmap_mode"] = record.mmap_mode
        return info

    def _registration(self, name: str) -> _Registration:
        with self._lock:
            registration = self._registrations.get(name)
        if registration is None:
            raise UnknownIndexError(
                f"unknown index {name!r} (registered: {self.names()})"
            )
        return registration
