"""Index lifecycle: admin operations, published as generations.

One vocabulary — ``register`` / ``reload`` / ``unregister`` — serves
the HTTP admin surface (``POST /admin/register``, ``POST
/admin/reload``, ``DELETE /admin/index/{name}``), the ``repro-act
admin`` CLI and :meth:`repro.serve.fleet.ServingFleet.admin`, and one
implementation answers it everywhere: a single process is a fleet of
one worker (:func:`fleet_of_one`), with its state in a private
directory.

An operation is published on an atomic rename (:mod:`repro.serve.
statedir` has the layout): a generation is an immutable directory, and
what is served is one file, ``current.json``. Under the fleet-wide
``flock`` whoever took the call — any worker, or the parent —
coordinates it (:meth:`FleetLifecycle.submit`): it verifies the
operator's bytes in full (a corrupt source is quarantined, nothing
else happens), writes the name's next directory (sharded: each slot's
slice too, cut under the name's current ranges), replaces
``current.json`` — nothing served changes before that — and waits until
every worker slot's snapshot reports it mapped, a NACK, or the timeout.

Convergence is read, not acked: on its publisher tick, and before it
first serves, a worker's :meth:`FleetLifecycle.poll` maps what
``current.json`` names and it does not hold, registers and unregisters
names to match, and reports ``mapped`` / ``nack`` in its snapshot. A
fleet of one has no publisher: the coordinator polls, and reads its own
report.

On a NACK ``current.json`` gets its old value back, the rejected
directory is quarantined, and every worker maps the old one again.
Numbers are never reused, so ``(name, generation, cell)`` cache keys
cannot alias. An operation ends by deleting the name's directories but
the one served and the one before it.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional

from ..act import serialize
from ..errors import (ArtifactCorruptError, ConflictError,
                      InvalidRequestError, UnknownIndexError)
from . import chaos
from .service import ACTService
from .shard import ShardMap, slice_file
from .statedir import (FULL, LOCK, MANIFEST, SHARD_MAP, DirMapping,
                       FileLock, collect_generations, first_generation,
                       generation_dir, quarantine_generation, read_current,
                       read_json, replace_current, write_generation)

#: The admin operation kinds (the wire vocabulary).
OP_REGISTER = "register"
OP_RELOAD = "reload"
OP_UNREGISTER = "unregister"
_KINDS = (OP_REGISTER, OP_RELOAD, OP_UNREGISTER)

#: Admin-manageable index names: they become directory names, so they
#: must not traverse paths (no separators, no leading dot).
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


@dataclass(frozen=True)
class AdminOp:
    """One validated admin request; a reload without the operator's
    ``source_path`` re-reads the name's own source."""

    kind: str
    name: str
    source_path: Optional[str] = None


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
            f"(it becomes a directory name)"
        )
    path = request.get("path")
    if path is not None and not isinstance(path, str):
        raise InvalidRequestError("path must be a string")
    if kind == OP_REGISTER and path is None:
        raise InvalidRequestError(
            'register needs {"path": "/path/to/index.npz"}'
        )
    # every generation is mapped read-only, by whichever process serves it
    mode, mapped = request.get("mmap_mode", "r"), request.get("mmap", True)
    if mode != "r" or mapped is not True:
        raise InvalidRequestError(
            f"every generation is mapped with mmap_mode 'r', got "
            f"mmap_mode={mode!r}, mmap={mapped!r}")
    return AdminOp(kind=kind, name=name, source_path=path)


def _placement(directory: Path) -> Optional[ShardMap]:
    """The ranges a sharded generation directory was cut under."""
    try:
        return ShardMap.from_wire(read_json(directory / SHARD_MAP))
    except FileNotFoundError:
        return None


def fleet_of_one(service: ACTService, root) -> "FleetLifecycle":
    """A single process's lifecycle: a fleet of one worker over the empty
    directory ``root``. Every registered index is materialized and its
    first generation directory published, numbered after its record so
    the process keeps serving it; admin operations then run through
    :meth:`FleetLifecycle.submit`, as on any fleet worker (whose poll
    drops a name registered on the registry directly afterwards)."""
    registry = service.registry
    registry.prewarm()
    replace_current(root, {
        name: write_generation(root, name, **first_generation(record))
        for name, record in registry.materialized.items()})
    lifecycle = FleetLifecycle(root, 1, service=service, slot=0)
    lifecycle.poll()
    return lifecycle


class FleetLifecycle:
    """One fleet process's side of publishing generations.

    A worker passes its ``service`` and ``slot``: :meth:`poll` maps what
    ``current.json`` names, and :meth:`report` goes into the snapshot it
    publishes into ``snapshots`` (the directory's ``snapshots/`` unless
    given). Any process can :meth:`submit`; the parent passes neither,
    and ``count`` receives the counts a worker's metrics would keep.
    """

    def __init__(self, artifact_dir, workers: int,
                 service: Optional[ACTService] = None,
                 slot: Optional[int] = None, snapshots=None,
                 timeout_s: float = 30.0, poll_interval_s: float = 0.05,
                 count: Optional[Callable[[str, int], None]] = None):
        self.root = Path(artifact_dir)
        self.workers = int(workers)
        self.slot = slot
        self._service = service
        self._snapshots = (DirMapping(self.root / "snapshots")
                           if snapshots is None else snapshots)
        self._op_lock = FileLock(self.root / LOCK)
        self.timeout_s = timeout_s
        self.poll_interval_s = poll_interval_s
        self._count_hook = count
        # serializes the publisher thread's polls and a coordinator's
        self._apply_lock = threading.Lock()
        #: What this worker holds: the generation mapped per name, the
        #: ranges each slice was cut under, the generations it could not
        #: map, and when it last read ``current.json``.
        self._mapped: Dict[str, int] = {}
        self._routes: Dict[str, ShardMap] = {}
        self._nacks: Dict[str, dict] = {}
        self._polled_at = 0.0
        #: False after an operation this process coordinated left the
        #: fleet split, until the next clean one; ``last_error`` keeps
        #: the last failure even after a clean rollback.
        self.converged = True
        self.last_error: Optional[str] = None
        # fault families exist pre-traffic (RL004): a scrape taken
        # before the first failure must show them at zero
        if service is not None:
            service.metrics.register(counters=(
                "faults.artifact_corrupt", "faults.quarantined",
                "faults.reload_rollbacks", "faults.apply_failures",
                "lifecycle.artifacts_gcd",
            ))

    def status(self) -> dict:
        """The ``/readyz`` view: not converged while this worker cannot
        map a generation ``current.json`` names, or after an operation
        it coordinated ended split."""
        nack = next(iter(self._nacks.values()), None)
        if nack is not None:
            return {"converged": False, "last_error": nack["error"]}
        return {"converged": self.converged, "last_error": self.last_error}

    def report(self) -> dict:
        """What this worker adds to its snapshot: what it maps, what it
        could not, and when it read ``current.json`` (the admin wait
        ignores a read from before the replace it waits on)."""
        return {"pid": os.getpid(), "mapped": dict(self._mapped),
                "nack": dict(self._nacks), "mapped_at": self._polled_at}

    def _count(self, name: str, n: int = 1) -> None:
        if not n:
            return
        if self._service is not None:
            self._service.metrics.counter(name).inc(n)
        elif self._count_hook is not None:
            self._count_hook(name, n)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def poll(self) -> dict:
        """Map what ``current.json`` names that this worker does not
        hold — each publisher tick, and before it first serves."""
        with self._apply_lock:
            read_at = time.monotonic()
            self._converge_locked(read_current(self.root))
            self._polled_at = read_at
        return self.report()

    def _converge_locked(self, current: Dict[str, int]) -> None:
        service = self._service
        for name in service.registry.names():
            if name not in current:
                service.unregister_index(name)
        mapped = {n: d for n, d in self._mapped.items() if n in current}
        routes = {n: m for n, m in self._routes.items() if n in current}
        nacks: Dict[str, dict] = {}
        for name, d in sorted(current.items()):
            if mapped.get(name) == d:
                continue
            directory = generation_dir(self.root, name, d)
            try:
                source = read_json(directory / MANIFEST)["source"]
                route = _placement(directory)
                held = service.registry.materialized.get(name)
                if route is None and held is not None and held.generation == d:
                    # the prewarmed record this worker was forked with,
                    # or a single process started with: the first
                    # directories are numbered after them
                    mapped[name] = d
                    continue
                if route is not None and not (name in mapped
                                              and name in routes):
                    # the full index it holds answers any key: route
                    # by the slice's ranges before the slice replaces it
                    routes[name] = route
                    self._route_by(routes)
                new = name not in service.registry.names()
                service.adopt_generation(name, directory / (
                    FULL if route is None else slice_file(self.slot)), d,
                    source=source)
            except Exception as exc:
                nacks[name] = {"generation": d,
                               "error": f"{type(exc).__name__}: {exc}"}
                # once per directory that fails, not once per tick
                if self._nacks.get(name, {}).get("generation") != d:
                    self._count("faults.apply_failures")
                    if isinstance(exc, ArtifactCorruptError):
                        self._count("faults.artifact_corrupt")
                continue
            if new or name in mapped:
                self._count("admin.registers" if new else "admin.reloads")
            mapped[name] = d
            routes.pop(name, None)
            if route is not None:
                routes[name] = route
        if routes != self._routes:
            self._route_by(routes)
        self._mapped, self._routes, self._nacks = mapped, routes, nacks

    def _route_by(self, routes: Dict[str, ShardMap]) -> None:
        """Route by the ranges each name's slice was cut under."""
        self._service.router.route_by(ShardMap(
            max(route.generation for route in routes.values()),
            {name: route.ranges[name] for name, route in routes.items()},
            self.workers) if routes else ShardMap(0, {}, 1))

    # ------------------------------------------------------------------
    # Coordinator side
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def admin_lock(self) -> Iterator[None]:
        """Hold the fleet-wide operation lock: admin operations and
        rebalances run one at a time, and the kernel drops the lock if
        its holder dies."""
        if not self._op_lock.acquire(True, self.timeout_s):
            raise ConflictError(
                "another admin operation is in progress fleet-wide")
        try:
            yield
        finally:
            self._op_lock.release()

    def submit(self, request: dict) -> dict:
        """Coordinate one admin operation across the whole fleet;
        returns once every worker maps the result (``complete``), after
        a rollback, or at the timeout, with per-slot ``acks`` and the
        ``generation`` served at the end. A corrupt source is a
        structured failure with nothing published."""
        op = request_to_op(request)
        with self.admin_lock():
            before = read_current(self.root)
            if op.kind == OP_REGISTER and op.name in before:
                raise ConflictError(f"index {op.name!r} is already registered")
            if op.kind != OP_REGISTER and op.name not in before:
                raise UnknownIndexError(
                    f"unknown index {op.name!r} (registered: "
                    f"{sorted(before)})")
            after = {n: d for n, d in before.items() if n != op.name}
            if op.kind != OP_UNREGISTER:
                source, full_from, shard_map = self._inputs(
                    op, before.get(op.name))
                try:
                    chaos.fault("artifact.load")
                    serialize.verify_artifact(full_from, full=True)
                except ArtifactCorruptError as exc:
                    return self._refuse(op, source, exc)
                after[op.name] = write_generation(
                    self.root, op.name, full_from=full_from, source=source,
                    shard_map=shard_map)
            response = {"op": op.kind, "name": op.name,
                        **self.publish(before, after)}
        if "quarantined" in response:
            response["quarantined"] = response["quarantined"].get(op.name)
        served = before if response.get("failed") else after
        if op.name in served:
            response["generation"] = served[op.name]
            response["index"] = self._describe(op.name, served[op.name])
        return response

    def _describe(self, name: str, d: int) -> dict:
        """``name``'s registry ``describe()`` once it serves ``d``: the
        coordinating worker's own, else — the parent maps nothing — a
        worker snapshot's (none matches: not materialized here)."""
        if self._service is not None:
            return self._service.registry.describe(name)
        for slot in range(self.workers):
            for entry in (self._snapshots.get(str(slot)) or {}).get(
                    "indexes", ()):
                if entry["name"] == name and entry["generation"] == d:
                    return entry
        return {"name": name, "materialized": False, "generation": d}

    def _inputs(self, op: AdminOp, d: Optional[int]):
        """``(source, full_from, shard_map)``: the operator's path, else
        the source the current directory records (else its own full
        archive), and the ranges it was cut under."""
        if d is None:
            return op.source_path, op.source_path, None
        directory = generation_dir(self.root, op.name, d)
        source = full_from = op.source_path
        if source is None:
            source = read_json(directory / MANIFEST)["source"]
            full_from = source or directory / FULL
        return source, full_from, _placement(directory)

    def _refuse(self, op: AdminOp, source: Optional[str],
                exc: ArtifactCorruptError) -> dict:
        """Nothing was written or published: the corrupt source is
        quarantined so a blind retry cannot read the same bytes."""
        self._count("faults.artifact_corrupt")
        quarantined = None
        if source and os.path.exists(source):
            try:  # best-effort: a fs race leaves nothing to move
                quarantined = str(serialize.quarantine_artifact(source))
                self._count("faults.quarantined")
            except OSError:  # pragma: no cover
                pass
        error = f"{type(exc).__name__}: {exc}"
        with self._apply_lock:
            self.last_error = error
        return {
            "op": op.kind, "name": op.name, "acks": {}, "complete": False,
            "rolled_back": False, "error": error, "quarantined": quarantined,
        }

    def publish(self, before: Dict[str, int],
                after: Dict[str, int]) -> dict:
        """Replace ``current.json`` — ``before`` when the caller, who
        holds :meth:`admin_lock`, read it — with ``after`` and wait for
        every worker slot to map it. On a NACK, ``before`` goes back,
        the rejected directories are quarantined (``quarantined: {name:
        path}``) and the wait repeats. Then each changed name keeps only
        the directory served and the one served before."""
        changed = sorted(n for n in before.keys() | after.keys()
                         if before.get(n) != after.get(n))
        acks = self._await(after, changed, self._replace(after))
        outcome = {"acks": acks,
                   "complete": all(ack["ok"] for ack in acks.values())}
        error = "; ".join(f"{slot}: {ack['error']}"
                          for slot, ack in acks.items() if not ack["ok"])
        failed = sorted(slot for slot, ack in acks.items() if ack.get("nack"))
        served = after
        if failed:
            self._count("faults.reload_rollbacks")
            error = f"rejected by {len(failed)} worker(s): " + "; ".join(
                f"{slot}: {acks[slot]['error']}" for slot in failed)
            served = before
            since = self._replace(before)
            quarantined = {n: quarantine_generation(self.root, n, after[n])
                           for n in changed if n in after}
            self._count("faults.quarantined", len(quarantined))
            rollback = self._await(before, changed, since)
            rolled_back = all(ack["ok"] for ack in rollback.values())
            outcome.update(failed=failed, error=error,
                           quarantined=quarantined, rolled_back=rolled_back,
                           rollback={"acks": rollback,
                                     "complete": rolled_back})
        for name in changed:
            self._count("lifecycle.artifacts_gcd", collect_generations(
                self.root, name, keep=(d for d in (served.get(name),
                                                   before.get(name))
                                       if d is not None)))
        with self._apply_lock:
            self.converged = outcome["complete"] or outcome.get(
                "rolled_back", False)
            self.last_error = error or None
        return outcome

    def _replace(self, current: Dict[str, int]) -> float:
        """Publish ``current`` (a coordinating worker maps it at once);
        returns the moment after which every read sees it."""
        replace_current(self.root, current)
        since = time.monotonic()
        if self._service is not None:
            self.poll()
        return since

    def _await(self, current: Dict[str, int], names,
               since: float) -> Dict[str, dict]:
        """Each worker slot's answer to ``current`` for ``names``, read
        off its snapshot of a read begun after ``since``: ok once it
        maps what ``current`` names (nothing, for a dropped name), a
        NACK — which ends the wait for all — or the timeout."""
        want = {name: current.get(name) for name in names}
        slots = [str(slot) for slot in range(self.workers)]
        acks: Dict[str, dict] = {}
        deadline = time.monotonic() + self.timeout_s
        while True:
            for slot in (slot for slot in slots if slot not in acks):
                report = (self.report() if slot == str(self.slot)
                          else self._snapshots.get(slot)) or {}
                if report.get("mapped_at", -1.0) < since:
                    continue
                nacked = [f"{name}: {nack['error']}" for name, nack
                          in report.get("nack", {}).items()
                          if want.get(name) == nack["generation"]]
                if nacked:
                    acks[slot] = {"ok": False, "nack": True,
                                  "pid": report.get("pid"),
                                  "error": "; ".join(nacked)}
                elif all(report.get("mapped", {}).get(name) == d
                         for name, d in want.items()):
                    acks[slot] = {"ok": True, "pid": report.get("pid"),
                                  "mapped": want}
            aborted = any(ack.get("nack") for ack in acks.values())
            if (len(acks) == len(slots) or aborted
                    or time.monotonic() >= deadline):
                break
            time.sleep(self.poll_interval_s)
        for slot in slots:
            acks.setdefault(slot, {"ok": False, "error": (
                f"aborted after a sibling NACK before slot {slot} mapped "
                f"it" if aborted else
                f"slot {slot} did not map it before the timeout")})
        return acks
