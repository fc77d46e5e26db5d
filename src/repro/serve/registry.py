"""Index registry: named, lazily materialized, generation-tagged indexes.

Every pre-serve entry point (CLI, benchmarks, examples) rebuilt its index
per process and threw it away. The registry gives indexes names and
lifetimes: a name maps to either a *builder* (a zero-argument callable
returning an :class:`~repro.act.index.ACTIndex`) or a *path* (an ``.npz``
written by :mod:`repro.act.serialize`). The first ``get`` materializes
the index — build or load — and pins it for every later request; builds
of distinct names can proceed concurrently, while concurrent ``get`` of
the same name build exactly once (per-name locks).

Materialized entries are immutable :class:`IndexGeneration` records.
A name's first materialization takes the number after the last one it
had, and :meth:`IndexRegistry.adopt` — how every serving process,
through :mod:`repro.serve.lifecycle`, swaps in a new generation — takes
its directory's number, so a request that pins a record at admission
keeps one coherent core, cache keyspace and refinement engine even if
the index is swapped mid-request: the old record lives as long as
requests reference it.
A pinned index *is* its columnar :class:`~repro.act.core.ACTCore`, so
there is no lazy freeze step to race.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..act import serialize
from ..act.index import ACTIndex
from ..errors import ConflictError, UnknownIndexError
from . import chaos


def prewarm_index(index: ACTIndex, edge_table: bool = True) -> ACTIndex:
    """Serving-layer alias for :meth:`repro.act.index.ACTIndex.prewarm`
    (on the index, so ``join/parallel.py`` shares the fork discipline)."""
    return index.prewarm(edge_table=edge_table)


@dataclass(frozen=True)
class IndexGeneration:
    """One materialized generation of a named index (the hot-path
    record). ``source``: "builder", "path" or "index"; ``path`` /
    ``mmap_mode``: the file *this* generation was loaded from (for a
    fleet worker, one of a generation directory)."""

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
    #: The generation of the pinned record (the last handed out).
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
                raise ConflictError(
                    f"index {registration.name!r} is already registered"
                )
            self._registrations[registration.name] = registration
            # continue the name's generation sequence across an
            # unregister + re-register (see _last_generations above)
            registration.generation = self._last_generations.get(
                registration.name, 0)
            # publish pre-built indexes to the hot-path view while still
            # holding the registry lock: a concurrent unregister() cannot
            # even resolve the registration until we release it, so
            # pinning and registration are one atomic step
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

        Requests that pinned the record finish on it; new ones get
        :class:`~repro.errors.UnknownIndexError`. The generation counter
        is kept, so a re-registration never reuses a number a straggling
        request may still cache under. Returns what was dropped.
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

    def adopt(self, name: str, path: Union[str, Path], generation: int,
              source: Optional[Union[str, Path]] = None) -> IndexGeneration:
        """Pin the archive at ``path`` — a fleet worker's file of a
        generation directory — as ``name``'s ``generation``, registering
        a new name by that path; a no-op when the pinned record was
        loaded from ``path``, so a worker maps a directory only once.
        ``source``, the operator's file the directory was published
        from, becomes the registration's path."""
        with self._lock:
            registration = self._registrations.setdefault(name, _Registration(
                name=name, path=Path(path), mmap_mode="r"))
        with registration.lock:
            record = registration.record
            if record is None or record.path != Path(path):
                self._materialize_locked(
                    registration, artifact_path=path, generation=generation)
            if source is not None:
                registration.path, registration.builder = Path(source), None
            return registration.record

    def _materialize_locked(self, registration: _Registration, *,
                            artifact_path=None,
                            generation: Optional[int] = None) -> None:
        """Build/load a new generation; caller holds the registration
        lock. An ``artifact_path`` is mapped whatever the own mode (a
        pre-built index is pinned when registered, so only a builder or
        a path gets here)."""
        start = time.perf_counter()
        mmap_mode = registration.mmap_mode if artifact_path is None else "r"
        path = (registration.path if artifact_path is None
                else Path(artifact_path))
        if path is not None:
            # chaos seam: armed tests inject slow/failing artifact I/O
            # here; the error propagates exactly like a real load
            # failure (a worker's NACK, a materialization 500)
            chaos.fault("artifact.load")
            index = serialize.load_index(path, mmap_mode=mmap_mode,
                                         verify=registration.verify)
        else:
            index = registration.builder()
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._registrations)

    def is_materialized(self, name: str) -> bool:
        return self._registration(name).record is not None

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
