"""Pre-fork multiprocess serving fleet over shared mmap-loaded indexes.

The paper's headline result is near-linear multi-core scaling of ACT
joins (28 cores, up to 4.3 B points/s); a single GIL-bound process
cannot show that for serving. The fleet is the serving analog of
:mod:`repro.join.parallel`'s fork discipline: the parent materializes
every registered index once (mmap-loaded node pools are file-backed,
so forked children share their pages through the page cache), binds
the listening socket(s), then forks ``N`` workers that each run a full
:class:`~repro.serve.service.ACTService` behind one
:class:`~repro.serve.server.ACTServer`: one accept loop over the
worker's sockets (the HTTP address, and the binary port's or its shard
slot's), both protocols on each, a thread per connection. The parent
never serves; it supervises — a crashed worker is respawned into its
slot, and :meth:`ServingFleet.shutdown` (the CLI wires ``SIGTERM`` to
it) drains every worker before it exits 0: a connection parked between
messages closes, a request or frame whose first byte has arrived is
answered.

Sockets: with ``SO_REUSEPORT`` every worker accepts on its own socket
bound to the same address and the kernel balances connections; else
one parent-bound socket is shared through ``fork`` (non-blocking, so a
raced ``accept`` is absorbed). The parent holds every socket, so a
crashed worker's accept queue survives until its replacement forks.

Shared state is files in the artifact directory, not a process
(:mod:`repro.serve.statedir`): generation directories, ``current.json``
naming the ones served, and each worker's ``service.stats()`` snapshot,
which every worker's ``/stats`` and ``/metrics`` aggregate. Before any
worker forks, a one-shot child (the *cutter*) writes every prewarmed
index's first directory — its temporaries never enter the heap the
workers fork from; admin operations (:mod:`repro.serve.lifecycle`)
publish the later ones.

Shard mode (``FleetConfig(shards=N)``): the cutter also plans a
:class:`~repro.serve.shard.ShardMap` and writes one slice per slot into
each directory; a worker maps only its slot's slices, and its one
:class:`~repro.serve.service.ACTService` routes through a
:class:`~repro.serve.router.Router` for its slot. The binary plane binds
one socket per slot, so a killed worker's forwards queue in its backlog
until the respawn. Any worker answers any request by forwarding
non-owned keys, and sheds only when every owning slot's snapshot
reports saturation. :meth:`ServingFleet.rebalance` re-runs the cutter
under the next map generation and publishes it in one replace.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import os
import resource
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..act import serialize
from ..errors import ServeError
from ..join.parallel import fork_available
from ..obs.histogram import merge_histogram_snapshots
from .lifecycle import FleetLifecycle
from .registry import IndexGeneration, IndexRegistry
from .router import Router
from .server import ACTServer, listen
from .service import ACTService, ServeConfig
from .shard import ShardMap, plan_shard_map
from .statedir import (FULL, GENS, MANIFEST, DirMapping, first_generation,
                       generation_dir, read_current, read_json,
                       replace_current, write_generation)

_log = logging.getLogger(__name__)


def fleet_available() -> bool:
    """True where the fleet can run at all (fork; any socket mode)."""
    return fork_available()


@dataclass(frozen=True)
class FleetConfig:
    """Tuning knobs for one serving fleet (a sharded fleet's admission
    thresholds are constants of :mod:`repro.serve.router`)."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (reported by ``address``)
    #: ``None``: no second address. A port (0 = pick free, reported by
    #: ``binary_address``) is one more listening address on every
    #: worker's one server, load-balanced the same way the HTTP sockets
    #: are; like every listener it speaks both protocols.
    binary_port: Optional[int] = None
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: How often each worker publishes its stats snapshot.
    stats_interval_s: float = 0.5
    #: How long shutdown waits for workers to drain before killing them.
    drain_timeout_s: float = 10.0
    #: Pause before respawning a crashed worker; doubles (up to the max)
    #: while a slot keeps dying young, so a deterministic crasher decays
    #: into a slow retry loop instead of a fork storm.
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 5.0
    #: ``None`` auto-detects ``SO_REUSEPORT``; ``False`` forces the
    #: shared-socket fallback (used by tests to cover both modes).
    reuseport: Optional[bool] = None
    #: How long an admin operation waits for every worker to map a
    #: fleet-wide lifecycle change before reporting the stragglers.
    admin_timeout_s: float = 30.0
    #: Where the fleet keeps its state files; ``None`` creates (and
    #: cleans up) a private temp directory.
    artifact_dir: Optional[str] = None
    #: ``0`` disables sharding (every worker serves every index).
    #: ``N > 0`` runs the fleet sharded: must equal ``workers`` (one
    #: shard slot per worker), requires the binary data plane (a
    #: ``binary_port`` of ``None`` is auto-promoted to ``0``), and
    #: binds one distinct binary socket per slot.
    shards: int = 0


#: Reserved snapshot-channel key: counters and histogram buckets no
#: live worker reports — those of crashed workers (folded in by the
#: supervisor so fleet totals stay monotone across restarts) and the
#: fault and sweep counts of operations the parent coordinated.
RETIRED_KEY = "retired"

#: The counters the fleet aggregate sums across workers.
_AGGREGATED_COUNTERS = (
    "queries.total",
    "queries.shed",
    "queries.errors",
    "queries.invalid",
    "queries.cache_hits",
    "joins.total",
    "http.requests",
    "binary.connections",
    "binary.frames",
    "binary.requests",
    "binary.errors",
    "binary.bytes_in",
    "binary.bytes_out",
    "faults.chaos_injections",
    "faults.apply_failures",
    "faults.artifact_corrupt",
    "faults.quarantined",
    "faults.reload_rollbacks",
    "lifecycle.artifacts_gcd",
    "shard.forwarded",
    "shard.local",
    "shard.shed",
    "shard.forward_errors",
)

#: The latency histograms the fleet aggregate merges bucket-wise.
_AGGREGATED_HISTOGRAMS = (
    "queries.latency_seconds",
    "joins.latency_seconds",
    "binary.request_seconds",
)


def aggregate_snapshots(snapshots: Dict[object, dict]) -> dict:
    """Fleet-wide view over per-worker ``service.stats()`` snapshots.

    Counters sum across live workers plus the ``RETIRED_KEY`` baseline,
    so totals never go backwards when a slot is respawned; fleet qps is
    total queries over the longest worker uptime. Latency histograms
    share one bucket ladder, so they merge bucket-wise and the fleet
    p50/p99/p999 are real quantiles of every worker's samples.
    """
    per_worker: List[dict] = []
    retired = snapshots.get(RETIRED_KEY, {})
    retired_counters = retired.get("counters", {})
    retired_hists = retired.get("histograms", {})
    totals = {key: int(retired_counters.get(key, 0))
              for key in _AGGREGATED_COUNTERS}
    merge_inputs: Dict[str, List[dict]] = {
        name: ([retired_hists[name]] if name in retired_hists else [])
        for name in _AGGREGATED_HISTOGRAMS
    }
    max_uptime = 0.0
    for worker_id in sorted(k for k in snapshots if k != RETIRED_KEY):
        snap = snapshots[worker_id]
        metrics = snap.get("metrics", {})
        counters = metrics.get("counters", {})
        histograms = metrics.get("histograms", {})
        latency = histograms.get("queries.latency_seconds", {})
        uptime = float(snap.get("uptime_seconds", 0.0))
        max_uptime = max(max_uptime, uptime)
        for key in totals:
            totals[key] += int(counters.get(key, 0))
        for name in _AGGREGATED_HISTOGRAMS:
            if name in histograms:
                merge_inputs[name].append(histograms[name])
        entry = {
            "worker": snap.get("worker", worker_id),
            "pid": snap.get("pid"),
            "uptime_seconds": uptime,
            "queries_total": int(counters.get("queries.total", 0)),
            "qps": (counters.get("queries.total", 0) / uptime
                    if uptime else 0.0),
            "latency_p99_seconds": float(latency.get("p99", 0.0)),
        }
        # sharded workers carry their slot view + admission depth so the
        # fleet aggregate (and /metrics) can render per-shard series
        if "shard" in snap:
            entry["shard"] = snap["shard"]
        if "admission" in snap:
            entry["admission"] = snap["admission"]
        per_worker.append(entry)
    merged: Dict[str, dict] = {}
    for name, inputs in merge_inputs.items():
        snap = merge_histogram_snapshots(inputs)
        if snap is not None:
            merged[name] = snap
    fleet_latency = merged.get("queries.latency_seconds", {})
    view = {
        "workers": len(per_worker),
        "counters": totals,
        "qps": totals["queries.total"] / max_uptime if max_uptime else 0.0,
        "latency_p50_seconds": float(fleet_latency.get("p50", 0.0)),
        "latency_p99_seconds": float(fleet_latency.get("p99", 0.0)),
        "latency_p999_seconds": float(fleet_latency.get("p999", 0.0)),
        "histograms": merged,
        "per_worker": per_worker,
    }
    if retired:
        view["retired_counters"] = {k: int(v)
                                    for k, v in retired_counters.items()}
    return view


class ServingFleet:
    """Parent-side controller: prewarm, bind, fork, supervise, drain."""

    def __init__(self, registry: IndexRegistry,
                 config: Optional[FleetConfig] = None):
        if not fork_available():
            raise ServeError(
                "the serving fleet needs the 'fork' start method "
                "(unavailable on this platform); run single-process "
                "instead"
            )
        self.registry = registry
        self.config = config if config is not None else FleetConfig()
        if self.config.workers < 1:
            raise ServeError(
                f"fleet needs at least one worker, got "
                f"{self.config.workers}"
            )
        if self.config.shards:
            if self.config.shards != self.config.workers:
                raise ServeError(
                    f"shard mode needs one worker per shard slot: got "
                    f"shards={self.config.shards} but "
                    f"workers={self.config.workers}"
                )
            if self.config.binary_port is None:
                # shard forwarding rides the binary protocol; promote to
                # an ephemeral port rather than refusing to start
                self.config = dataclasses.replace(self.config,
                                                  binary_port=0)
        self.reuseport = (hasattr(socket, "SO_REUSEPORT")
                          if self.config.reuseport is None
                          else bool(self.config.reuseport))
        self._ctx = multiprocessing.get_context("fork")
        self._sockets: List[socket.socket] = []
        self._binary_sockets: List[socket.socket] = []
        self._processes: List[Optional[multiprocessing.Process]] = []
        self._spawn_times: List[float] = []
        self._backoffs: List[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._snapshots: Optional[DirMapping] = None
        self._lifecycle: Optional[FleetLifecycle] = None
        self._artifact_dir: Optional[str] = None
        self._own_artifact_dir = False
        self._started = False
        self.restarts = 0
        #: The active placement in shard mode (``None`` otherwise).
        self.shard_map: Optional[ShardMap] = None
        #: What the last cutter run cost (see :func:`describe_cut`).
        self.last_cut: Optional[dict] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingFleet":
        """Prewarm, bind, and fork the workers; returns immediately.

        The sockets are listening from the moment ``start`` returns, so
        clients may connect right away — connections queue until a
        worker accepts them.
        """
        if self._started:
            raise ServeError("fleet already started")
        self._started = True
        # materialize + build hot-path artifacts BEFORE forking: workers
        # inherit finished indexes (copy-on-write; page-cache-shared for
        # mmap-loaded node pools) instead of building N copies
        self.registry.prewarm()
        if self.config.artifact_dir is not None:
            self._artifact_dir = self.config.artifact_dir
        else:
            self._artifact_dir = tempfile.mkdtemp(prefix="repro-fleet-")
            self._own_artifact_dir = True
        # emptied, so that a reused directory's generations and dead
        # workers' snapshots are never read as this run's (its
        # current.json is replaced before any worker reads it)
        self._snapshots = DirMapping(
            Path(self._artifact_dir) / "snapshots").reset()
        shutil.rmtree(Path(self._artifact_dir) / GENS, ignore_errors=True)
        self._lifecycle = FleetLifecycle(
            self._artifact_dir, self.config.workers,
            snapshots=self._snapshots,
            timeout_s=self.config.admin_timeout_s,
            count=lambda name, n: self._retire({name: n}, {}))
        # publish every prewarmed index's first directory (in shard
        # mode, placement and slices) before any worker forks
        try:
            self.shard_map, current = self._cut(
                dict(self.registry.materialized), 1)
        except BaseException:
            self.shutdown()  # no half-fleet: nothing was forked yet
            raise
        replace_current(self._artifact_dir, current)
        self._bind_sockets()
        self._processes = [None] * self.config.workers
        self._spawn_times = [0.0] * self.config.workers
        self._backoffs = [self.config.restart_backoff_s] * self.config.workers
        for slot in range(self.config.workers):
            self._spawn(slot)
        self._supervisor = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True)
        self._supervisor.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` every worker serves on."""
        if not self._sockets:
            raise ServeError("fleet is not started")
        return self._sockets[0].getsockname()[:2]

    @property
    def binary_address(self) -> Tuple[str, int]:
        """The ``(host, port)`` of the binary data plane."""
        if not self._binary_sockets:
            raise ServeError(
                "fleet has no binary port (start it with "
                "FleetConfig(binary_port=...))")
        return self._binary_sockets[0].getsockname()[:2]

    @property
    def shard_addresses(self) -> Dict[int, Tuple[str, int]]:
        """Per-slot ``(host, port)`` of the binary plane in shard mode."""
        if not self.config.shards:
            raise ServeError(
                "fleet is not sharded (start it with "
                "FleetConfig(shards=N))")
        if not self._binary_sockets:
            raise ServeError("fleet is not started")
        return {slot: sock.getsockname()[:2]
                for slot, sock in enumerate(self._binary_sockets)}

    def rebalance(self) -> ShardMap:
        """Re-plan placement over what the fleet serves and publish it
        as the next map generation: the cutter writes a new directory of
        every index (the same data, cut under the new map), and one
        replace of ``current.json`` moves them all. Returns once every
        worker maps them; queries keep flowing. Runs under the admin
        lock. If the cutter fails, or a worker cannot map its slice (the
        fleet rolls back), this raises and the old map stays published.
        """
        if self.shard_map is None or self._lifecycle is None:
            raise ServeError("fleet is not running in shard mode")
        with self._lifecycle.admin_lock():
            before = read_current(self._artifact_dir)
            shard_map, cut = self._cut(None, self.shard_map.generation + 1)
            outcome = self._lifecycle.publish(before, {**before, **cut})
            if not outcome.get("failed"):
                self.shard_map = shard_map
        if not outcome["complete"]:
            raise ServeError(
                f"rebalance to map generation {shard_map.generation} did "
                f"not converge: {self._lifecycle.last_error}")
        return self.shard_map

    def live_workers(self) -> int:
        with self._lock:
            return sum(1 for p in self._processes
                       if p is not None and p.is_alive())

    def stats(self) -> dict:
        """Parent-side fleet aggregate (same shape as ``/stats`` fleet)."""
        return aggregate_snapshots(_read_snapshots(self._snapshots))

    def admin(self, request: dict) -> dict:
        """Run one lifecycle operation fleet-wide, coordinated by the
        parent: same request/response shapes as the HTTP admin surface,
        e.g. ``fleet.admin({"op": "reload", "name": "nyc", "path":
        "new.npz"})``."""
        if self._lifecycle is None:
            raise ServeError("fleet is not started")
        return self._lifecycle.submit(request)

    def wait(self) -> None:
        """Block until :meth:`shutdown` is called (CLI foreground mode)."""
        self._stop.wait()

    def shutdown(self) -> None:
        """Drain and stop the fleet (idempotent).

        Sends ``SIGTERM`` to every worker: each stops accepting,
        finishes its in-flight requests, publishes a final snapshot,
        and exits 0. Workers still alive after ``drain_timeout_s`` are
        killed.
        """
        if self._stop.is_set():
            return
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        with self._lock:
            processes = [p for p in self._processes if p is not None]
        for process in processes:
            if process.is_alive() and process.pid:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + self.config.drain_timeout_s
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for sock in self._sockets + self._binary_sockets:
            try:
                sock.close()
            except OSError:
                pass
        self._sockets = []
        self._binary_sockets = []
        self._lifecycle = None
        # the snapshots are ours to remove, whoever owns the directory
        if self._snapshots is not None:
            shutil.rmtree(self._snapshots.path, ignore_errors=True)
        self._snapshots = None
        if self._own_artifact_dir and self._artifact_dir is not None:
            shutil.rmtree(self._artifact_dir, ignore_errors=True)
            self._artifact_dir = None

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cut(self, records: Optional[Dict[str, IndexGeneration]],
             map_generation: int) -> Tuple[Optional[ShardMap],
                                           Dict[str, int]]:
        """Write a generation directory of every index — ``records``,
        or (``None``) what ``current.json`` names — in a one-shot forked
        child (cutting here left tens of MiB of retained heap that every
        worker forked afterwards inherits); in shard mode, cut under map
        ``map_generation``, planned there. Returns the map and ``{name:
        directory number}``, unpublished; raises
        :class:`~repro.errors.ServeError` if the child fails or dies.
        """
        recv, send = self._ctx.Pipe(duplex=False)
        child = self._ctx.Process(
            target=_cutter_main, name="fleet-cutter",
            args=(send, records, self.config.shards, map_generation,
                  self._artifact_dir))
        child.start()
        send.close()
        try:
            while not recv.poll(0.05) and child.is_alive():
                pass
            report = recv.recv() if recv.poll(0) else {}
        except (EOFError, OSError):
            report = {}
        finally:
            recv.close()
            child.join()
        if child.exitcode != 0 or "generations" not in report:
            raise ServeError(
                f"the cutter failed (exit code {child.exitcode}): "
                f"{report.get('error', 'it died before reporting')}")
        wire, generations = report.pop("map"), report.pop("generations")
        self.last_cut = report
        if wire is None:
            return None, generations
        _log.info("%s", describe_cut(report))
        return ShardMap.from_wire(wire), generations

    def _bind_sockets(self) -> None:
        self._sockets = self._group(self.config.port)
        if self.config.binary_port is None:
            return
        if self.config.shards:
            # shard routing must address a SPECIFIC slot, which a
            # kernel-balanced reuseport group cannot do: bind one
            # distinct socket per slot instead (slot 0 on the
            # configured port, the rest ephemeral). The parent holds
            # every socket, so a killed worker's forwards queue in its
            # backlog until the supervisor respawns the slot.
            self._binary_sockets = [
                listen(self.config.host,
                       self.config.binary_port if slot == 0 else 0)
                for slot in range(self.config.workers)
            ]
        else:
            self._binary_sockets = self._group(self.config.binary_port)

    def _group(self, port: int) -> List[socket.socket]:
        """The sockets of one address: one accept queue per worker, all
        in the kernel's reuseport group (the parent holds every socket,
        so a crashed worker's queue keeps buffering until the slot is
        respawned), or one socket every worker shares through fork."""
        first = listen(self.config.host, port, self.reuseport)
        port = first.getsockname()[1]
        return [first] + [listen(self.config.host, port, True)
                          for _ in range(1, self.config.workers)
                          if self.reuseport]

    def _worker_sockets(self, slot: int) -> List[socket.socket]:
        """The sockets slot ``slot``'s one server accepts on: its own of
        each address that has one per worker, else the shared one."""
        return [group[slot % len(group)]
                for group in (self._sockets, self._binary_sockets) if group]

    def _spawn(self, slot: int) -> None:
        process = self._ctx.Process(
            target=_worker_main,
            name=f"fleet-worker-{slot}",
            args=(slot, self._worker_sockets(slot), self.registry,
                  self.config, self._snapshots, os.getpid(),
                  self._artifact_dir,
                  (self.shard_addresses
                   if self.config.shards else None)),
        )
        # the child is born with SIGTERM blocked and unblocks it once
        # its drain handler is installed: a shutdown() racing worker
        # start-up then still ends in a clean exit 0, never in the
        # default disposition killing a half-started worker
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with self._lock:
            self._processes[slot] = process
            self._spawn_times[slot] = time.monotonic()

    def _supervise(self) -> None:
        """Restart crashed workers into their slot until shutdown. A
        respawned worker maps what ``current.json`` names before it
        serves, whatever generation the parent's records are."""
        while not self._stop.wait(0.2):
            for slot in range(self.config.workers):
                with self._lock:
                    process = self._processes[slot]
                if process is None or process.is_alive():
                    continue
                process.join()
                if self._stop.is_set():
                    break
                try:
                    # a worker killed mid-write of a snapshot, or of
                    # current.json as a coordinator, left a temporary
                    for mapping in (self._snapshots,
                                    DirMapping(self._artifact_dir)):
                        mapping.sweep_partials(process.pid)
                    self._retire_snapshot(slot)
                except OSError:  # costs the dead worker's totals, not
                    pass         # the supervisor
                self.restarts += 1
                backoff = self._next_backoff(slot)
                if self._stop.wait(backoff):
                    break
                self._spawn(slot)

    def _next_backoff(self, slot: int) -> float:
        """Exponential per-slot backoff while a worker keeps dying young.

        A worker that survived well past its backoff resets the slot to
        the base pause; one that died almost immediately doubles it (up
        to the cap), so a deterministic crasher costs a few forks per
        ``restart_backoff_max_s`` instead of ten per second, while a
        one-off crash still restarts promptly.
        """
        with self._lock:
            uptime = time.monotonic() - self._spawn_times[slot]
            young = uptime < max(1.0, 2.0 * self._backoffs[slot])
            if young:
                self._backoffs[slot] = min(self.config.restart_backoff_max_s,
                                           2.0 * self._backoffs[slot])
            else:
                self._backoffs[slot] = self.config.restart_backoff_s
            return self._backoffs[slot]

    def _retire_snapshot(self, slot: int) -> None:
        """Fold a crashed worker's last snapshot into the retired base,
        or fleet totals and latency buckets would drop by everything it
        served (less up to one publish interval)."""
        last = self._snapshots.get(slot)
        if not last:
            return
        metrics = last.get("metrics", {})
        self._retire(metrics.get("counters", {}),
                     metrics.get("histograms", {}))
        del self._snapshots[slot]

    def _retire(self, counters: dict, histograms: dict) -> None:
        """Add to the retired base: a dead worker's totals, or a count of
        an operation the parent coordinated. Only this process writes
        it, under the fleet lock."""
        with self._lock:
            base = self._snapshots.get(RETIRED_KEY, {})
            folded_counters = dict(base.get("counters", {}))
            for key, value in counters.items():
                folded_counters[key] = (int(folded_counters.get(key, 0))
                                        + int(value))
            folded_hists = dict(base.get("histograms", {}))
            for name in _AGGREGATED_HISTOGRAMS:
                merged = merge_histogram_snapshots([
                    s for s in (folded_hists.get(name), histograms.get(name))
                    if s is not None
                ])
                if merged is not None:
                    folded_hists[name] = merged
            self._snapshots[RETIRED_KEY] = {
                "counters": folded_counters,
                "histograms": folded_hists,
            }


def _read_snapshots(snapshots: Optional[DirMapping]) -> Dict[object, dict]:
    """Every published snapshot, worker slots as integers again (a file
    name is a string); empty once the fleet has shut down."""
    if snapshots is None:
        return {}
    return {int(key) if key.isdigit() else key: snap
            for key, snap in snapshots.items()}


# ----------------------------------------------------------------------
# Cutter process
# ----------------------------------------------------------------------
def describe_cut(report: dict) -> str:
    """One line for what a cutter run cost, in units."""
    return (f"shard cutter: map generation {report['map_generation']}, "
            f"{report['indexes']} index(es) x {report['slots']} slots, "
            f"{report['bytes_written'] / 2**20:.1f} MiB written; "
            f"plan {report['plan_s']:.3f} s, cut {report['cut_s']:.3f} s, "
            f"write {report['write_s']:.3f} s; "
            f"child peak RSS {report['peak_rss_mb']:.0f} MiB")


def _cutter_main(conn, records: Optional[Dict[str, IndexGeneration]],
                 num_slots: int, map_generation: int,
                 artifact_dir: str) -> None:
    """The one-shot cutter child: write a generation directory of every
    index — ``records`` at start, or what ``current.json`` names on a
    rebalance (the same data, mapped from its full archive) — cut, when
    sharded, under a map ``map_generation`` planned over them; send the
    report (the map's wire form, the new directories and the run's
    cost, or the error) and exit."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the parent's drain
    try:
        start = time.perf_counter()
        if records is None:
            inputs = {}
            for name, d in read_current(artifact_dir).items():
                full = generation_dir(artifact_dir, name, d) / FULL
                manifest = read_json(full.with_name(MANIFEST))
                inputs[name] = dict(
                    index=serialize.load_index(full, mmap_mode="r"),
                    full_from=full, source=manifest["source"],
                    data_generation=manifest["data_generation"])
        else:
            inputs = {name: first_generation(record)
                      for name, record in records.items()}
        shard_map = None
        if num_slots:
            shard_map = plan_shard_map(
                {name: kwargs["index"] for name, kwargs in inputs.items()},
                num_slots, generation=map_generation)
        report = {"map": None if shard_map is None else shard_map.to_wire(),
                  "generations": {}, "map_generation": map_generation,
                  "indexes": len(inputs), "slots": num_slots,
                  "plan_s": time.perf_counter() - start,
                  "cut_s": 0.0, "write_s": 0.0, "bytes_written": 0}
        for name, kwargs in inputs.items():
            try:
                report["generations"][name] = write_generation(
                    artifact_dir, name, shard_map=shard_map, report=report,
                    **kwargs)
            except Exception as exc:
                raise ServeError(f"index {name!r}: {type(exc).__name__}: "
                                 f"{exc}") from exc
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception as exc:
        report = {"error": str(exc)}
    conn.send(report)
    conn.close()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(slot: int, sockets: List[socket.socket],
                 registry: IndexRegistry, config: FleetConfig,
                 snapshots: DirMapping, parent_pid: int, artifact_dir: str,
                 shard_addresses: Optional[Dict[int, Tuple[str, int]]]
                 = None) -> None:
    """One fleet worker, in a forked child: a service behind one
    :class:`~repro.serve.server.ACTServer` accepting on its inherited
    ``sockets`` (see :meth:`ServingFleet._worker_sockets`), a thread per
    connection. Its drain answers every request or frame whose first
    byte has arrived, a routed binary batch included.

    Its first lifecycle poll, before it serves, maps what
    ``current.json`` names that its inherited records are not (they
    are the first directories, shared copy-on-write); in shard mode only
    its slot's slices, so the full index is never read. A file it
    cannot map leaves it up, answering from what it has, and not-ready.
    """
    stats_interval_s = config.stats_interval_s
    service = ACTService(registry=registry, config=config.serve,
                         router=Router(slot, shard_addresses, snapshots)
                         if config.shards else None)
    lifecycle = FleetLifecycle(
        artifact_dir, config.workers, service=service, slot=slot,
        snapshots=snapshots, timeout_s=config.admin_timeout_s)
    # map what the fleet serves before serving anything (requests queue
    # in the parent-held sockets meanwhile): a sharded worker then never
    # holds a slice while routing by other ranges, and a respawn
    # mid-reload maps the new generation
    lifecycle.poll()
    # admin mutations arriving over HTTP at this worker coordinate the
    # whole fleet, and /readyz reports this worker's convergence
    server = ACTServer(service, sockets, worker_id=slot, lifecycle=lifecycle)
    stopping = threading.Event()

    def publish(snap: Optional[dict] = None) -> None:
        if snap is None:
            snap = service.stats()
        snap = dict(snap, worker=slot, **lifecycle.report())
        try:
            snapshots[slot] = snap
        except OSError:
            pass  # the directory is gone; the fleet is shutting down

    def fleet_stats(own_stats: dict) -> dict:
        # republish the snapshot the handler just computed (no second
        # service.stats() per /stats poll), then aggregate everyone's
        publish(own_stats)
        return aggregate_snapshots(_read_snapshots(snapshots))

    server.stats_extra = fleet_stats

    def fleet_metrics() -> dict:
        # /metrics wants this worker's freshest numbers inside the fleet
        # aggregate too, so publish before reading the channel
        publish()
        return aggregate_snapshots(_read_snapshots(snapshots))

    server.metrics_extra = fleet_metrics

    def request_shutdown() -> None:
        if not stopping.is_set():
            stopping.set()
            # shutdown() blocks until serve_forever exits; never call it
            # from the serving thread itself
            threading.Thread(target=server.shutdown, daemon=True).start()

    def on_sigterm(signum, frame) -> None:
        request_shutdown()

    signal.signal(signal.SIGTERM, on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
    # blocked since the fork (see ServingFleet._spawn); one that arrived
    # meanwhile is delivered now, to the handler
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})

    def publisher() -> None:
        publish()
        while not stopping.wait(stats_interval_s):
            try:
                # map what a coordinator published since the last tick
                lifecycle.poll()
            except Exception:
                pass  # an op failure must never kill the publisher
            publish()
            if os.getppid() != parent_pid:
                # orphaned (parent died without drain): stop serving
                request_shutdown()

    publisher_thread = threading.Thread(target=publisher,
                                        name="fleet-stats", daemon=True)
    publisher_thread.start()
    try:
        server.serve_forever()
    finally:
        stopping.set()
        server.server_close()  # the drain; closes the inherited sockets
        service.close()
        publish()  # final post-drain snapshot
