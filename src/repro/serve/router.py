"""The routing stage of a sharded worker: plan, forward, admission.

A sharded fleet's worker builds its :class:`~repro.serve.service.
ACTService` with a :class:`Router`: ``query``, ``query_batch`` and
``join`` then run admission → plan → local | forward → gather. The
router answers nothing; it owns what this slot knows of the others:

* **plan** — routing keys come from :func:`~repro.serve.shard.
  shard_keys`, a base-class cell-id pass of their own (the service's
  cache keys come from the grid's ``point_keys``, whose planar override
  packs ``(i, j)`` and does not order by cell id), and
  :meth:`~repro.serve.shard.ShardMap.route` turns them into owner slots
  with one ``searchsorted``. An unmapped name, an empty request, or one
  this slot owns whole is a local plan.
* **forward** — :meth:`Router.fan_out` sends one pipelined
  ``OP_FORWARD_QUERY``/``OP_FORWARD_JOIN`` frame per remote owner while
  the service answers its local leg; :func:`gather` puts a batch's legs
  back in request order. A forwarded frame runs the receiver's
  ``local_query_batch``/``local_join``, never re-routed, so routing
  loops are impossible by construction. Connections come from a
  per-slot pool (a blocking :class:`~repro.serve.binproto.Client`
  carries one stream) and inherit its reconnect-and-replay: a forward
  raced against a worker respawn queues in the parent-held socket's
  backlog and is answered by the replacement.
* **fleet-aware admission** — workers publish ``admission: {inflight,
  ts}`` into the shared stats channel; a spanning request is shed
  (``BudgetExceededError`` → HTTP 503 / binproto ``STATUS_SHED``) only
  when *every* owning slot reports a fresh, saturated snapshot. Missing
  or stale snapshots fail open: a quiet stats channel must never turn
  into an outage.

Slices are files: the worker's lifecycle
(:meth:`repro.serve.lifecycle.FleetLifecycle.poll`) maps this slot's
slice of each directory ``current`` names and hands the ranges it was
cut under to :meth:`Router.route_by`, so the slices held and the ranges
routed by come from one read.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..act.core import ResultBatch
from ..errors import BudgetExceededError, ConnectionLostError, ServeError
from . import binproto, chaos
from .metrics import MetricsRegistry
from .registry import IndexRegistry
from .shard import ShardMap

__all__ = ["Router", "gather", "SHED_INFLIGHT", "SHED_STALENESS_S"]

#: A slot is saturated at this many in-flight local batches; a request
#: is shed only when EVERY slot owning some of its points is.
SHED_INFLIGHT = 64
#: A published admission snapshot older than this fails open.
SHED_STALENESS_S = 2.0
#: How long admission trusts a cached copy of the fleet's snapshots.
_SNAPSHOT_CACHE_S = 0.2
#: A forward client's per-call timeout and reconnect attempts.
_FORWARD_TIMEOUT_S = 30.0
_FORWARD_RETRIES = 6

#: One remote leg: ``(owner slot, request positions of its points)``.
Leg = Tuple[int, np.ndarray]
#: A leg whose frame is out: ``(owner slot, positions, its client)``.
Sent = Tuple[int, np.ndarray, binproto.Client]


class Router:
    """Slot ``slot``'s view of a sharded fleet: each slot's binary
    address, the fleet's stats channel (``snapshots``), and no map —
    every name answered locally — until :meth:`route_by` swaps one in.
    A name whose slice cannot be mapped keeps being answered from what
    the worker has: right answers, a full index's footprint."""

    def __init__(self, slot: int,
                 addresses: Optional[Dict[int, Tuple[str, int]]] = None,
                 snapshots=None):
        self.slot = int(slot)
        self.shard_map = ShardMap(0, {}, 1)
        self._addresses: Dict[int, Tuple[str, int]] = dict(addresses or {})
        self._snapshots = snapshots
        # free-list pool per slot: a blocking binproto.Client carries
        # one pipelined stream, so concurrent request threads must not
        # share one (responses would interleave across threads)
        self._pool: Dict[int, List[binproto.Client]] = {}
        self._pool_lock = threading.Lock()
        self._snap_cache: Tuple[float, dict] = (0.0, {})

    def bind(self, metrics: MetricsRegistry) -> None:
        """Count into ``metrics`` (the service's registry, rebound on
        every telemetry switch): ``shard.*`` exist pre-traffic."""
        self._metrics = metrics
        self._forwarded = metrics.counter("shard.forwarded")
        self._local = metrics.counter("shard.local")
        self._shed = metrics.counter("shard.shed")
        self._forward_errors = metrics.counter("shard.forward_errors")
        self._forward_seconds = metrics.histogram("shard.forward_seconds")

    def route_by(self, shard_map: ShardMap) -> None:
        """Route by ``shard_map`` from the next request on: the ranges
        the slices this worker now holds were cut under."""
        self.shard_map = shard_map

    # ------------------------------------------------------------------
    # Plan and forward
    # ------------------------------------------------------------------
    def plan(self, name: str, keys: np.ndarray,  # repro-lint: hot
             inflight: int) -> Optional[Tuple[np.ndarray, List[Leg]]]:
        """``(this slot's positions, remote legs)`` for one request's
        routing keys, or ``None``: this slot answers every point. Sheds
        when every owner is saturated (``inflight`` is this slot's
        depth)."""
        n = int(keys.shape[0])
        slots = self.shard_map.route(name, keys)
        owners = np.unique(slots).tolist()
        if not owners or owners == [self.slot]:
            self._local.inc(n)
            return None
        if self._saturated(owners, inflight):
            self._shed.inc(n)
            raise BudgetExceededError(
                "all owning shards saturated; shedding at admission")
        mine = np.nonzero(slots == self.slot)[0]
        self._local.inc(int(mine.shape[0]))
        return mine, [(owner, np.nonzero(slots == owner)[0])
                      for owner in owners if owner != self.slot]

    @contextlib.contextmanager
    def fan_out(self, sent: List[Sent],
                send: Callable[..., int], name: str, lngs: np.ndarray,
                lats: np.ndarray, exact: bool, legs: Sequence[Leg],
                ) -> Iterator[None]:
        """Send each leg's frame with ``send`` (an unbound
        ``Client.send_forward_*``) and append the leg to ``sent``; the
        caller's block answers the local leg and reads the replies. A
        typed failure other than a shed counts one
        ``shard.forward_errors``; a completed fan-out is timed."""
        start = time.perf_counter()
        try:
            for owner, pos in legs:
                chaos.fault("shard.forward", self._metrics)
                client = self._acquire(owner)
                try:
                    send(client, name, lngs[pos], lats[pos], exact=exact)
                except BaseException:
                    client.close()
                    raise
                sent.append((owner, pos, client))
                self._forwarded.inc(int(pos.shape[0]))
            yield
        except Exception as exc:
            # a shed — the local leg's budget, or an owner answering
            # STATUS_SHED — is counted (queries.shed) by the service
            # that ran the leg; it is not a forward that failed
            if (isinstance(exc, ServeError)
                    and not isinstance(exc, BudgetExceededError)):
                self._forward_errors.inc()
            raise
        finally:
            # pool each client, but close one that owes a reply: its
            # stream would hand that answer to the next borrower
            for owner, _pos, client in sent:
                if client.owes_reply:
                    client.close()
                else:
                    with self._pool_lock:
                        self._pool.setdefault(owner, []).append(client)
        self._forward_seconds.observe(time.perf_counter() - start)

    def _acquire(self, slot: int) -> binproto.Client:
        with self._pool_lock:
            free = self._pool.get(slot)
            if free:
                return free.pop()
        address = self._addresses.get(slot)
        if address is None:
            raise ServeError(
                f"no binary address for shard slot {slot} "
                f"(addresses cover {sorted(self._addresses)})")
        try:
            return binproto.Client(address[0], address[1],
                                   timeout=_FORWARD_TIMEOUT_S,
                                   retries=_FORWARD_RETRIES)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot reach shard slot {slot} at "
                f"{address[0]}:{address[1]}: {exc}") from exc

    # ------------------------------------------------------------------
    # Fleet-aware admission control
    # ------------------------------------------------------------------
    def _snapshot_view(self) -> dict:
        """A briefly cached copy of the fleet's snapshots (bounds the
        cost of per-batch admission checks: one file read per worker)."""
        now = time.monotonic()
        expires, view = self._snap_cache
        if now < expires:
            return view
        snapshots = self._snapshots
        try:
            # .items(): the fleet's file-backed mapping skips a record
            # that vanishes between its listing and its read
            view = dict(snapshots.items()) if snapshots is not None else {}
        except OSError:  # fail open: admission never fails a request
            view = {}
        self._snap_cache = (now + _SNAPSHOT_CACHE_S, view)
        return view

    def _saturated(self, owners: Sequence[int], inflight: int) -> bool:
        """True only when EVERY owning slot is verifiably saturated:
        this slot at depth ``inflight``, the others by their published
        snapshots. A missing, stale or under-threshold report fails
        open."""
        view: Optional[dict] = None
        for owner in owners:
            if owner == self.slot:
                if inflight < SHED_INFLIGHT:
                    return False
                continue
            if view is None:
                view = self._snapshot_view()
            admission = (view.get(owner) or view.get(str(owner))
                         or {}).get("admission")
            if (not admission or int(admission.get("inflight", 0))
                    < SHED_INFLIGHT or time.time()
                    - float(admission.get("ts", 0.0)) > SHED_STALENESS_S):
                return False
        return True

    # ------------------------------------------------------------------
    def info(self, registry: IndexRegistry, inflight: int) -> dict:
        """The ``shard`` block of ``/stats`` and ``/admin/shards``."""
        resident, owned, slices = 0, 0, {}
        for name in registry.names():
            record = registry.materialized.get(name)
            if record is not None:
                resident += int(record.index.core.total_bytes)
            if name in self.shard_map.ranges:
                owned += len(self.shard_map.ranges_for_slot(name, self.slot))
                # the file this slot serves the name from: its slice
                slices[name] = (str(record.path) if record is not None
                                and record.path else None)
        return {
            "slot": self.slot,
            "map_generation": self.shard_map.generation,
            "inflight": int(inflight),
            "node_pool_bytes": resident,
            "slice_path": slices,
            "ranges": owned,
            "forwarded": self._forwarded.value,
            "local": self._local.value,
            "shed": self._shed.value,
            "forward_errors": self._forward_errors.value,
        }

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, {}
        for client in (c for free in pool.values() for c in free):
            client.close()


def gather(n: int, legs: Sequence[Tuple[np.ndarray, ResultBatch]],  # repro-lint: hot
           ) -> ResultBatch:
    """An ``n``-point answer from its legs, each ``(request positions,
    their results)``: the legs end to end, then the one ``take`` that
    puts every point back at its request position."""
    back = np.empty(n, dtype=np.int64)
    back[np.concatenate([pos for pos, _ in legs])] = np.arange(n)
    return ResultBatch.concat([part for _, part in legs]).take(back)
