"""Index lifecycle: admin operations and the fleet-wide reload protocol.

The registry (generation-tagged records) and service (generation-pinned
hot views, generation-keyed cache) make a *single process* reloadable
with zero downtime. This module adds the two remaining layers:

* a uniform **admin operation** vocabulary — ``register`` / ``reload``
  / ``unregister`` — shared by the HTTP admin surface
  (``POST /admin/register``, ``POST /admin/reload``,
  ``DELETE /admin/index/{name}``), the ``repro-act admin`` CLI, and the
  fleet control channel; and

* the **fleet-wide reload protocol** for the pre-fork serving fleet
  (:mod:`repro.serve.fleet`). Whichever process receives the admin call
  — any worker, or the parent — becomes the *coordinator*: it applies
  the operation to its own registry first (for a reload, materializing
  the new generation exactly once), writes the materialized generation
  to a side ``.npz`` (generation-suffixed, write-temp + rename — see
  :func:`repro.act.serialize.save_index_atomic`), and publishes the
  operation on the fleet's control channel — a directory of one-record
  files in the artifact directory (:mod:`repro.serve.statedir`): the
  operation under ``op``, then its sequence number under ``seq``.
  Every other process — sibling workers and the supervising parent —
  notices the new sequence number on its next poll tick, memory-maps
  the side artifact (one materialization, N cheap page-cache-shared
  maps), atomically swaps its hot view, invalidates the dead
  generations' cache entries, and writes an acknowledgement. The
  coordinator's admin response returns only after every process acked
  (or a timeout names the stragglers), so "reload returned OK" means
  *the whole fleet serves the new generation*. The old generation is
  dropped per process only at swap time, and in-flight requests hold
  the record they pinned at admission — no request ever 500s or mixes
  generations during a reload.

Application is **idempotent** (a reload to a generation a registry has
already reached is a no-op), which is what makes crash-recovery free: a
worker respawned mid-reload forks from the parent's already-updated
registry, re-applies the pending operation as a no-op, and acks.

**Failure is a first-class outcome.** A worker that cannot apply a
reload — corrupt side artifact, unreadable file, wrong generation —
writes a *NACK* (``ok: false`` with the error) instead of hanging the
barrier. The coordinator then aborts the reload fleet-wide: the failed
artifact is moved into a ``*.quarantine/`` directory next to where it
lived (so a retry cannot trip over the same bytes), the *previous*
generation is re-published under a **fresh, higher** generation number
(idempotency compares ``>=``, so re-publishing the old number would
no-op on every worker that already advanced), and a second ack barrier
confirms every process is back on the old data. Requests never stop
being answered from the pinned old generation throughout. The admin
response reports ``complete: false`` with the NACKing identities, the
quarantine location, and the rollback barrier's outcome — it never
hangs and never leaves the fleet split across generations silently;
:attr:`FleetLifecycle.converged` / ``last_error`` feed ``/readyz``.

Superseded side artifacts are garbage-collected after each successful
reload barrier: only the newest two generations of ``{name}.gen*.npz``
are kept (the current one, plus one for in-flight requests and
stragglers — and POSIX keeps memory-mapped inodes alive regardless).

The same control channel also carries the fleet's **shard placement**
under :data:`repro.serve.shard.SHARD_KEY`: a generation-tagged wire
:class:`~repro.serve.shard.ShardMap` published by the parent (at start
and on :meth:`~repro.serve.fleet.ServingFleet.rebalance`, once its
cutter has written every slot's slice files) and adopted by sharded
workers at the top of :meth:`FleetLifecycle.poll` — before any pending
operation, so a reload is always applied under the map its slices were
cut under. It deliberately reuses this channel's discipline —
monotonic generations, idempotent adoption, respawned workers pick up
the current value on their first poll — but not its ack barrier:
placement convergence is eventual, because any slot answers any
request by forwarding. In a sharded fleet a generation is a full
archive *plus one slice archive per slot*: the coordinator cuts them
(:func:`~repro.serve.shard.write_slices`) right after it writes the
full side artifact, followers map only their own, and the sweep above
takes a generation's slices with it — and, once a newer map is
published, every slice cut under an older one.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

from ..act import serialize
from ..act.index import ACTIndex
from ..errors import (ArtifactCorruptError, InvalidRequestError, ServeError,
                      UnknownIndexError)
from .registry import _UNSET, IndexGeneration, IndexRegistry
from .service import ACTService
from .shard import read_shard_map, write_slices

#: The admin operation kinds (the wire vocabulary).
OP_REGISTER = "register"
OP_RELOAD = "reload"
OP_UNREGISTER = "unregister"
_KINDS = (OP_REGISTER, OP_RELOAD, OP_UNREGISTER)

#: Control-channel keys (shared with :mod:`repro.serve.fleet`).
SEQ_KEY = "seq"
OP_KEY = "op"

#: The parent supervisor's identity on the control channel.
PARENT_IDENTITY = "parent"


def ack_key(seq: int, identity: str) -> str:
    return f"ack:{seq}:{identity}"


#: Admin-manageable index names: they become side-artifact filenames,
#: so they must not traverse paths (no separators, no leading dot).
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


@dataclass(frozen=True)
class AdminOp:
    """One lifecycle operation, as applied locally or sent over the wire.

    ``source_path`` permanently repoints a registration (the operator
    shipped new data); ``artifact_path`` is what this generation is
    materialized *from* (for fleet reloads, the coordinator's side
    ``.npz``). ``generation`` pins the resulting generation number so
    every process in a fleet converges on the same tag.
    """

    kind: str
    name: str
    seq: int = 0
    generation: Optional[int] = None
    source_path: Optional[str] = None
    source_mmap_mode: object = _UNSET
    artifact_path: Optional[str] = None
    artifact_mmap_mode: object = _UNSET

    def to_wire(self) -> dict:
        wire = {"kind": self.kind, "name": self.name, "seq": self.seq}
        if self.generation is not None:
            wire["generation"] = self.generation
        if self.source_path is not None:
            wire["source_path"] = self.source_path
        if self.source_mmap_mode is not _UNSET:
            wire["source_mmap_mode"] = self.source_mmap_mode
        if self.artifact_path is not None:
            wire["artifact_path"] = self.artifact_path
        if self.artifact_mmap_mode is not _UNSET:
            wire["artifact_mmap_mode"] = self.artifact_mmap_mode
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "AdminOp":
        return cls(
            kind=wire["kind"],
            name=wire["name"],
            seq=int(wire.get("seq", 0)),
            generation=wire.get("generation"),
            source_path=wire.get("source_path"),
            source_mmap_mode=wire.get("source_mmap_mode", _UNSET),
            artifact_path=wire.get("artifact_path"),
            artifact_mmap_mode=wire.get("artifact_mmap_mode", _UNSET),
        )


def apply_admin_op(op: AdminOp, service: Optional[ACTService] = None,
                   registry: Optional[IndexRegistry] = None,
                   strict: bool = True) -> dict:
    """Apply one operation to this process.

    Workers pass their ``service`` (so cache/hot-view adoption happens
    too); the fleet parent passes its bare ``registry``.
    ``strict=False`` is the follower mode: re-applying an operation the
    process has already absorbed — a respawned worker whose registry
    was forked post-apply — is a no-op that still reports success.
    Coordinators and the single-process admin surface stay strict so an
    operator deleting an unknown index sees the 404.
    """
    if registry is None:
        if service is None:
            raise ServeError("apply_admin_op needs a service or a registry")
        registry = service.registry
    result = {"op": op.kind, "name": op.name, "pid": os.getpid()}

    if op.kind == OP_UNREGISTER:
        try:
            dropped = (service.unregister_index(op.name) if service
                       else registry.unregister(op.name))
            result.update(dropped)
        except UnknownIndexError:
            if strict:
                raise
            result["already_unregistered"] = True
        return result

    if op.kind == OP_REGISTER:
        path = op.source_path or op.artifact_path
        already = (op.name in registry.names()
                   and op.generation is not None
                   and registry.generation(op.name) >= op.generation)
        if already:
            # a replayed fleet op this process absorbed through the
            # fork: report success without re-registering
            record = registry.pin(op.name)
        else:
            if path is None:
                raise InvalidRequestError(
                    "register needs a path to a serialized index"
                )
            # same escalation the reload path gets: operator-shipped
            # bytes are fully hashed before any process registers them
            # (the registration itself keeps the cheap "header" mode
            # for every later re-materialization of known-good data)
            serialize.verify_artifact(path, full=True)
            mmap_mode = (None if op.source_mmap_mode is _UNSET
                         else op.source_mmap_mode)
            if service is not None:
                record = service.register_index_path(
                    op.name, path, mmap_mode=mmap_mode)
            else:
                registry.register_path(op.name, path, mmap_mode=mmap_mode)
                record = registry.pin(op.name)
        result["generation"] = record.generation
        return result

    if op.kind == OP_RELOAD:
        if op.name not in registry.names() and op.artifact_path is not None:
            # a process that never saw this name (defensive; ops are
            # serialized so this means it was forked mid-register):
            # adopt the artifact as a fresh registration
            registry.register_path(
                op.name, op.source_path or op.artifact_path,
                mmap_mode=(None if op.artifact_mmap_mode is _UNSET
                           else op.artifact_mmap_mode))
        kwargs = {
            "source_path": op.source_path,
            "source_mmap_mode": op.source_mmap_mode,
            "artifact_path": op.artifact_path,
            "artifact_mmap_mode": op.artifact_mmap_mode,
            "generation": op.generation,
            # operator-shipped bytes are hashed in full before the
            # fleet ever serves them: the lazy "header" mode never
            # touches an mmap-ed node pool, so without this a bit flip
            # deep in the pool would reload cleanly. Side artifacts
            # (artifact_path) were just written by a coordinator that
            # passed this check, so followers keep the cheap mode.
            "verify": "full" if op.artifact_path is None else None,
        }
        record = (service.reload_index(op.name, **kwargs) if service
                  else registry.reload(op.name, **kwargs))
        result["generation"] = record.generation
        return result

    raise InvalidRequestError(f"unknown admin op {op.kind!r}")


def _request_mmap_mode(request: dict):
    """Normalize the mmap spelling of an admin request.

    Accepts ``"mmap_mode": "r"|"c"|null`` or the shorthand
    ``"mmap": true``; returns ``_UNSET`` when the request says nothing
    (a reload then keeps the registration's existing mode).
    """
    if "mmap_mode" in request:
        mode = request["mmap_mode"]
        if mode not in (None, "r", "c"):
            raise InvalidRequestError(
                f"mmap_mode must be null, 'r' or 'c', got {mode!r}"
            )
        return mode
    if "mmap" in request:
        return "r" if request["mmap"] else None
    return _UNSET


def request_to_op(request: dict) -> AdminOp:
    """Validate an HTTP/CLI admin request dict into an :class:`AdminOp`."""
    kind = request.get("op")
    if kind not in _KINDS:
        raise InvalidRequestError(
            f"admin op must be one of {_KINDS}, got {kind!r}"
        )
    name = request.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidRequestError('admin requests need {"name": "..."}')
    if ".." in name or not _NAME_RE.match(name):
        raise InvalidRequestError(
            f"index name {name!r} must match [A-Za-z0-9][A-Za-z0-9._-]* "
            f"(it becomes a side-artifact filename)"
        )
    path = request.get("path")
    if path is not None and not isinstance(path, str):
        raise InvalidRequestError("path must be a string")
    if kind == OP_REGISTER and path is None:
        raise InvalidRequestError(
            'register needs {"path": "/path/to/index.npz"}'
        )
    mmap_mode = _request_mmap_mode(request)
    return AdminOp(
        kind=kind, name=name, source_path=path,
        source_mmap_mode=mmap_mode,
    )


def handle_admin_request(service: ACTService, request: dict) -> dict:
    """Single-process admin entry point: validate, apply, describe.

    The HTTP server routes admin bodies here when no fleet hook is
    installed; the fleet's :meth:`FleetLifecycle.submit` is the
    multi-process analog with the same request/response shapes.
    """
    op = request_to_op(request)
    try:
        result = apply_admin_op(op, service=service)
    except ArtifactCorruptError:
        service.metrics.counter("faults.artifact_corrupt").inc()
        quarantined = _quarantine_artifact(
            op.source_path or _registered_path(service.registry, op.name))
        if quarantined is not None:
            service.metrics.counter("faults.quarantined").inc()
        raise
    if op.kind != OP_UNREGISTER:
        result["index"] = service.registry.describe(op.name)
    result["complete"] = True
    return result


def _registered_path(registry: Optional[IndexRegistry],
                     name: str) -> Optional[str]:
    """The on-disk source a registration loads from, if any."""
    if registry is None:
        return None
    try:
        return registry.describe(name).get("path")
    except UnknownIndexError:
        return None


def _quarantine_artifact(path: Optional[str]) -> Optional[str]:
    """Move ``path`` into its ``*.quarantine/`` sibling, best-effort."""
    if not path or not os.path.exists(path):
        return None
    try:
        return str(serialize.quarantine_artifact(path))
    except OSError:  # pragma: no cover - fs race; nothing to do
        return None


class FleetLifecycle:
    """One process's view of the fleet control channel.

    Every fleet process (workers and the parent) holds one. The
    *coordinator* role is taken per operation by whoever received the
    admin call: :meth:`submit` applies locally, publishes, and blocks on
    the ack barrier. Everyone else absorbs operations through
    :meth:`poll`, which the workers' stats-publisher thread and the
    parent's supervisor thread already call on their existing tick.
    """

    def __init__(self, control, op_lock, identity: str, workers: int,
                 service: Optional[ACTService] = None,
                 registry: Optional[IndexRegistry] = None,
                 artifact_dir: Optional[str] = None,
                 timeout_s: float = 30.0,
                 poll_interval_s: float = 0.05):
        self._control = control
        self._op_lock = op_lock
        self.identity = str(identity)
        self.workers = int(workers)
        self._service = service
        self._registry = (registry if registry is not None
                          else (service.registry if service else None))
        self.artifact_dir = artifact_dir
        self.timeout_s = timeout_s
        self.poll_interval_s = poll_interval_s
        # serializes submit/poll within this process so a coordinator
        # never races its own publisher thread re-applying the same op
        self._apply_lock = threading.Lock()
        self._last_seen = 0
        #: This process's convergence view, feeding ``/readyz``: True
        #: while the last lifecycle operation this process saw applied
        #: cleanly (including a clean rollback), False after a failed
        #: apply or a reload barrier that left the fleet split.
        self.converged = True
        #: The last apply/barrier failure, kept for observability even
        #: after a successful rollback restores convergence.
        self.last_error: Optional[str] = None
        #: Why this worker's slices could not be mapped under the
        #: published shard map (it is not-ready until they can).
        self._placement_error: Optional[str] = None
        # fault families exist pre-traffic (RL004): a scrape taken
        # before the first failure must show them at zero
        if self._service is not None:
            self._service.metrics.register(counters=(
                "faults.artifact_corrupt", "faults.quarantined",
                "faults.reload_rollbacks", "faults.apply_failures",
                "lifecycle.artifacts_gcd",
            ))

    def status(self) -> dict:
        """The ``/readyz`` view of this process's lifecycle state."""
        unmapped = self._placement_error
        return {"converged": self.converged and unmapped is None,
                "last_error": unmapped or self.last_error}

    def _full_index(self, record: IndexGeneration) -> ACTIndex:
        """The full index of a pinned record's generation — what a
        rollback re-publishes. On a sharded worker the registry pins
        only this slot's slice, so the service opens the generation's
        full archive; the parent holds a bare registry of full ones."""
        if self._service is not None:
            return self._service.full_record(record).index
        return record.index

    def _adopt_placement_locked(self) -> None:
        """Map this worker's slices under the published shard map, if it
        is newer than the one they are mapped under. Runs before any
        operation is applied or coordinated, so a reload finds (and
        cuts) slices under one map fleet-wide. Caller holds
        ``_apply_lock``. A slice that cannot be mapped — missing,
        corrupt — leaves the worker not-ready (it keeps what it has:
        at worst the full records it was forked with) and is retried
        on the next tick."""
        shard_map = read_shard_map(self._control)
        if shard_map is None or self._service is None:
            return
        try:
            if not self._service.adopt_shard_map(shard_map):
                return
        except Exception as exc:
            if self._placement_error is None:
                self._count("faults.apply_failures")
            self._placement_error = (
                f"shard map generation {shard_map.generation} not "
                f"adopted: {type(exc).__name__}: {exc}")
            return
        self._placement_error = None
        for name in shard_map.ranges:
            self._gc_artifacts(name)

    def _write_slices(self, index: ACTIndex, name: str,
                      generation: int) -> bool:
        """In a sharded fleet, cut ``index`` — generation ``generation``
        of ``name``, whose full side artifact was just written — for
        every slot, under the published map. Returns whether it did."""
        shard_map = read_shard_map(self._control)
        if shard_map is None or name not in shard_map.ranges:
            return False
        write_slices(index, shard_map, self.artifact_dir or ".", name,
                     generation)
        return True

    def _count(self, name: str, n: int = 1) -> None:
        """Increment a fault counter when this process has a service."""
        if self._service is not None:
            try:
                self._service.metrics.counter(name).inc(n)
            except Exception:  # pragma: no cover - metrics best-effort
                pass

    # ------------------------------------------------------------------
    # Follower side
    # ------------------------------------------------------------------
    def poll(self) -> Optional[dict]:
        """Apply the pending operation, if any, and ack it.

        Called periodically from an existing maintenance thread. Returns
        the ack written, or ``None`` when there was nothing new (a
        channel already removed at shutdown reads as nothing new).
        """
        with self._apply_lock:
            self._adopt_placement_locked()
            seq = int(self._control.get(SEQ_KEY) or 0)
            if seq <= self._last_seen:
                return None
            wire = self._control.get(OP_KEY)
            if not wire or int(wire.get("seq", -1)) != seq:
                return None  # published mid-write; complete next tick
            self._last_seen = seq
            op = AdminOp.from_wire(wire)
            try:
                result = dict(apply_admin_op(
                    op, service=self._service, registry=self._registry,
                    strict=False))
                result["ok"] = True
                self.converged = True
                self.last_error = None
            except Exception as exc:
                # NACK: the coordinator's barrier sees this and aborts
                # the reload fleet-wide; this process keeps serving the
                # generation it already has pinned
                result = {"ok": False, "nack": True, "op": op.kind,
                          "name": op.name,
                          "error": f"{type(exc).__name__}: {exc}"}
                self._count("faults.apply_failures")
                if isinstance(exc, ArtifactCorruptError):
                    self._count("faults.artifact_corrupt")
                self.converged = False
                self.last_error = result["error"]
            self._write_ack(seq, result)
            return result

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    def submit(self, request: dict) -> dict:
        """Coordinate one admin operation across the whole fleet.

        Validates the request, takes the fleet-wide operation lock
        (admin operations are strictly serialized), applies locally —
        for a reload, materializing the new generation once and writing
        the side artifact — publishes the operation, and waits for every
        process to ack. The response carries per-process acks and
        ``complete`` (all acked ok), and for reload/register the
        fleet-agreed ``generation``.

        A reload barrier aborts early on the first NACK: the failed
        artifact is quarantined and the previous generation re-published
        fleet-wide under a fresh generation number (see
        :meth:`_rollback`); the response then reports ``complete:
        false`` with ``failed``, ``quarantined``, ``rolled_back`` and
        the rollback barrier's acks instead of hanging or leaving the
        fleet split. A coordinator-local
        :class:`~repro.errors.ArtifactCorruptError` aborts before
        anything is published: nothing fleet-wide changed, the corrupt
        source is quarantined, and the structured failure comes back.
        """
        op = request_to_op(request)
        if not self._op_lock.acquire(True, self.timeout_s):
            raise ServeError(
                "another admin operation is in progress fleet-wide"
            )
        try:
            with self._apply_lock:
                self._adopt_placement_locked()
            # pre-op state, in case a failed reload has to be rolled
            # back: the pinned record carries the data, the description
            # carries the registration's source path/mode (a reload
            # with source_path repoints it before materializing)
            previous = prev_desc = None
            if op.kind == OP_RELOAD and self._registry is not None:
                previous = self._registry.materialized.get(op.name)
                try:
                    prev_desc = self._registry.describe(op.name)
                except UnknownIndexError:
                    prev_desc = None
            with self._apply_lock:
                seq = int(self._control.get(SEQ_KEY) or 0) + 1
                # every ack key present belongs to a finished barrier
                # (submits are serialized by the op lock we hold, which
                # makes this the only deleter): sweep them so straggler
                # and respawn re-acks cannot grow the channel without
                # bound
                for key in list(self._control.keys()):
                    if isinstance(key, str) and key.startswith("ack:"):
                        del self._control[key]
                try:
                    op, local = self._coordinate(op, seq)
                except ArtifactCorruptError as exc:
                    return self._abort_corrupt_locked(
                        op, seq, prev_desc, exc)
                self._control[OP_KEY] = op.to_wire()
                self._control[SEQ_KEY] = seq
                self._last_seen = seq
                local = dict(local)
                local["ok"] = True
                self._write_ack(seq, local)
            acks = self._wait_for_acks(
                seq, abort_on_nack=(op.kind == OP_RELOAD))
            response = {
                "op": op.kind,
                "name": op.name,
                "seq": seq,
                "acks": acks,
                "complete": all(a.get("ok") for a in acks.values()),
            }
            if op.generation is not None:
                response["generation"] = op.generation
            failed = sorted(i for i, a in acks.items() if a.get("nack"))
            if op.kind == OP_RELOAD:
                if failed:
                    response = self._rollback(
                        op, seq, previous, prev_desc, failed, response)
                elif response["complete"]:
                    with self._apply_lock:
                        self.converged = True
                        self.last_error = None
                    self._gc_artifacts(op.name)
                else:
                    # stragglers timed out without NACKing — a dead
                    # worker respawns from the parent's updated registry
                    # and converges on its own; a stuck one shows here
                    with self._apply_lock:
                        self.converged = False
                        self.last_error = "; ".join(
                            str(a.get("error")) for a in acks.values()
                            if not a.get("ok"))
            elif response["complete"]:
                with self._apply_lock:
                    self.last_error = None
        finally:
            self._op_lock.release()
        if self._registry is not None and op.kind != OP_UNREGISTER:
            try:
                response["index"] = self._registry.describe(op.name)
            except UnknownIndexError:  # pragma: no cover - racy describe
                pass
        return response

    def _coordinate(self, op: AdminOp, seq: int):
        """Apply ``op`` locally as the coordinator; returns the op to
        publish (reload ops are rewritten to point siblings at the side
        artifact) and the local ack payload."""
        if op.kind == OP_RELOAD:
            previous = self._registry.materialized.get(op.name)
            local = apply_admin_op(
                op, service=self._service, registry=self._registry)
            generation = local["generation"]
            # fresh from its source, so full even on a sharded worker
            record = self._registry.materialized[op.name]
            # one materialization fleet-wide: siblings mmap the side
            # artifact (atomic write-temp + rename; generation-suffixed
            # so workers still mapping an older file are untouched) —
            # or, sharded, their own slot's slice of it
            side = serialize.generation_path(
                Path(self.artifact_dir or ".") / f"{op.name}.npz",
                generation)
            try:
                serialize.save_index_atomic(record.index, side)
                if (self._write_slices(record.index, op.name, generation)
                        and self._service is not None):
                    # like every follower: off the full generation,
                    # onto this slot's slice of it
                    self._service.reload_index(
                        op.name, artifact_path=str(side),
                        artifact_mmap_mode="r", generation=generation)
            except BaseException:
                # the op will never be published: roll this process
                # back to the generation the rest of the fleet is on,
                # or the coordinator would serve a divergent dataset
                # forever (the failed generation's number stays burned)
                if previous is not None:
                    if self._service is not None:
                        self._service.restore_index(previous)
                    else:
                        self._registry.restore(previous)
                raise
            op = AdminOp(
                kind=OP_RELOAD, name=op.name, seq=seq,
                generation=generation,
                source_path=op.source_path,
                source_mmap_mode=op.source_mmap_mode,
                artifact_path=str(side), artifact_mmap_mode="r",
            )
            return op, local
        local = apply_admin_op(
            op, service=self._service, registry=self._registry)
        op = AdminOp(
            kind=op.kind, name=op.name, seq=seq,
            generation=local.get("generation"),
            source_path=op.source_path,
            source_mmap_mode=op.source_mmap_mode,
        )
        return op, local

    def _abort_corrupt_locked(self, op: AdminOp, seq: int,
                              prev_desc: Optional[dict],
                              exc: ArtifactCorruptError) -> dict:
        """Coordinator-local reload failure on a corrupt artifact.

        Caller holds ``_apply_lock`` (the ``_locked`` convention —
        :meth:`submit` calls this from inside its publish block).
        Nothing was published — the fleet never saw the operation and
        every process (this one included: a failed materialization never
        swaps the pinned record) keeps serving the old generation. The
        corrupt source is quarantined so a blind retry cannot re-read
        the same bytes, and if the failed reload had repointed the
        registration's source, it is pointed back.
        """
        self._count("faults.artifact_corrupt")
        error = f"{type(exc).__name__}: {exc}"
        source = op.source_path or _registered_path(self._registry, op.name)
        quarantined = _quarantine_artifact(source)
        if quarantined is not None:
            self._count("faults.quarantined")
        if (op.source_path is not None and prev_desc is not None
                and prev_desc.get("path")
                and self._registry is not None):
            self._registry.repoint(op.name, prev_desc["path"],
                                   prev_desc.get("mmap_mode"))
        self.last_error = error
        return {
            "op": op.kind, "name": op.name, "seq": seq,
            "acks": {}, "complete": False, "rolled_back": False,
            "error": error, "quarantined": quarantined,
        }

    def _rollback(self, op: AdminOp, seq: int,
                  previous, prev_desc: Optional[dict],
                  failed: list, response: dict) -> dict:
        """Abort a fleet reload some process NACKed.

        Quarantines the side artifact the fleet was told to load, then
        re-publishes the *previous* generation's data under a fresh,
        higher generation number — re-publishing the old number would
        no-op on every process that already advanced past it (idempotent
        application compares ``>=``). Requests were never interrupted:
        processes that NACKed never swapped, and processes that had
        swapped go back to the old data on the rollback barrier.
        """
        self._count("faults.reload_rollbacks")
        quarantined = _quarantine_artifact(op.artifact_path)
        if quarantined is not None:
            self._count("faults.quarantined")
        error = "; ".join(
            f"{identity}: {response['acks'][identity].get('error')}"
            for identity in failed)
        response.update({
            "complete": False,
            "failed": failed,
            "error": f"reload rejected by {len(failed)} process(es): "
                     f"{error}",
            "quarantined": quarantined,
            "rolled_back": False,
        })
        with self._apply_lock:
            self.converged = False
            self.last_error = response["error"]
        if previous is None:
            # nothing to roll back to — the name had never materialized;
            # NACKing processes simply stay unmaterialized
            return response
        try:
            rollback_gen = int(self._registry.generation(op.name)) + 1
            side = serialize.generation_path(
                Path(self.artifact_dir or ".") / f"{op.name}.npz",
                rollback_gen)
            full = self._full_index(previous)
            serialize.save_index_atomic(full, side)
            self._write_slices(full, op.name, rollback_gen)
            rb_source = None
            rb_source_mode = _UNSET
            if (op.source_path is not None and prev_desc is not None
                    and prev_desc.get("path")):
                # the failed op repointed every registration's source;
                # point them all back at the pre-op source
                rb_source = prev_desc["path"]
                rb_source_mode = prev_desc.get("mmap_mode")
            rb_op = AdminOp(
                kind=OP_RELOAD, name=op.name, seq=seq + 1,
                generation=rollback_gen,
                source_path=rb_source, source_mmap_mode=rb_source_mode,
                artifact_path=str(side), artifact_mmap_mode="r",
            )
            with self._apply_lock:
                local = apply_admin_op(
                    rb_op, service=self._service, registry=self._registry)
                self._control[OP_KEY] = rb_op.to_wire()
                self._control[SEQ_KEY] = seq + 1
                self._last_seen = seq + 1
                local = dict(local)
                local["ok"] = True
                self._write_ack(seq + 1, local)
            rb_acks = self._wait_for_acks(seq + 1)
            rb_ok = all(a.get("ok") for a in rb_acks.values())
            response["rolled_back"] = rb_ok
            response["generation"] = rollback_gen
            response["rollback"] = {
                "seq": seq + 1, "generation": rollback_gen,
                "acks": rb_acks, "complete": rb_ok,
            }
            # a clean rollback restores convergence (everyone on the
            # old data under the new number); last_error keeps the
            # original failure for observability
            with self._apply_lock:
                self.converged = rb_ok
        except Exception as exc:  # pragma: no cover - double failure
            response["rollback_error"] = f"{type(exc).__name__}: {exc}"
            with self._apply_lock:
                self.converged = False
                self.last_error = response["rollback_error"]
        return response

    #: Side artifacts written by coordinators and cutters: a
    #: generation's full archive (see :func:`repro.act.serialize.
    #: generation_path`) and its per-slot slices, tagged with the map
    #: generation they were cut under (:func:`repro.serve.shard.
    #: slice_path`).
    _GEN_ARTIFACT_RE = re.compile(
        r"\.gen(\d{6,})(?:\.map(\d{6,})\.slot\d+)?\.npz\Z")

    def _gc_artifacts(self, name: str) -> int:
        """Delete superseded generation side artifacts for ``name``.

        Runs after a fully-acked reload barrier: every process is on the
        current generation, so only the newest two generations' files
        are kept — the current one plus its predecessor (stragglers
        respawning mid-barrier re-apply from it; in-flight requests are
        safe regardless, POSIX keeps memory-mapped inodes alive after
        unlink). A generation's slices go with its full archive; and,
        from a worker that has just mapped its slices under a newer
        shard map, so does every slice cut under an older map than the
        published one — nothing opens those again (workers, respawns
        and coordinators all look slices up by the published map).
        Returns the number of files removed.
        """
        if self.artifact_dir is None or self._registry is None:
            return 0
        try:
            current = int(self._registry.generation(name))
        except UnknownIndexError:
            return 0
        prefix = f"{name}.gen"
        shard_map = read_shard_map(self._control)
        placement = shard_map.generation if shard_map is not None else 0
        removed = 0
        try:
            entries = list(Path(self.artifact_dir).iterdir())
        except OSError:
            return 0
        for entry in entries:
            if not entry.name.startswith(prefix):
                continue
            match = self._GEN_ARTIFACT_RE.search(entry.name)
            if match is None or entry.name[:match.start()] != name:
                continue
            stale = (int(match.group(1)) <= current - 2
                     or int(match.group(2) or placement) < placement)
            if stale and entry.is_file():
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - fs race
                    continue
                removed += 1
        if removed:
            self._count("lifecycle.artifacts_gcd", removed)
        return removed

    def _wait_for_acks(self, seq: int,
                       abort_on_nack: bool = False) -> Dict[str, dict]:
        expected = {str(slot) for slot in range(self.workers)}
        expected.add(PARENT_IDENTITY)
        acks: Dict[str, dict] = {}
        deadline = time.monotonic() + self.timeout_s
        aborted = False
        while True:
            for identity in expected - set(acks):
                ack = self._control.get(ack_key(seq, identity))
                if ack is not None:
                    acks[identity] = dict(ack)
            if abort_on_nack and any(a.get("nack") for a in acks.values()):
                # a reload someone rejected can never complete: abort
                # the barrier now and let the coordinator roll back
                # instead of waiting out the stragglers' timeout
                aborted = len(acks) < len(expected)
                break
            if len(acks) == len(expected) or time.monotonic() >= deadline:
                break
            time.sleep(self.poll_interval_s)
        for identity in expected - set(acks):
            if aborted:
                acks[identity] = {
                    "ok": False, "aborted": True,
                    "error": f"barrier aborted after a sibling NACK "
                             f"before {identity!r} acked",
                }
            else:
                acks[identity] = {
                    "ok": False,
                    "error": f"no ack from {identity!r} before timeout",
                }
        # the barrier is over: drop the ack keys. `_control` is files,
        # not this object's state — each key is one unlink (or one
        # atomic rename, in `_write_ack`) that every process sees whole,
        # and the writers are other processes, so the in-process apply
        # lock RL001 asks for would guard nothing.
        for identity in expected:
            try:
                del self._control[ack_key(seq, identity)]  # repro-lint: ignore[RL001]
            except KeyError:
                pass  # a straggler that never acked
        return acks

    def _write_ack(self, seq: int, result: dict) -> None:
        try:
            self._control[ack_key(seq, self.identity)] = result  # repro-lint: ignore[RL001]
        except OSError:
            pass  # the directory is gone; the fleet is shutting down


#: Type of the hook the HTTP server calls for admin mutations when a
#: fleet is running (see :attr:`repro.serve.server.ACTHTTPServer.
#: admin_hook`): request dict in, response dict out.
AdminHook = Callable[[dict], dict]
