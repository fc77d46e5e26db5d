"""Shard-aware routing service: scatter/gather over the binary plane.

:class:`ShardedACTService` is a drop-in :class:`~repro.serve.service.
ACTService` for one worker slot of a sharded fleet. It answers the keys
its slot owns from the local shard slice (the registry pins a
memory-map of this slot's slice archive — written by
:func:`~repro.serve.shard.write_slices` into a generation directory —
never the full index) and forwards everything else shard-wise over the
:mod:`~repro.serve.binproto` data plane:

* **routing** — a batch's keys come from the same boundary-level
  ``point_keys`` pass the unsharded service uses for its cache keys;
  :meth:`~repro.serve.shard.ShardMap.route` turns them into owner
  slots with one ``searchsorted``. Every front routes: the HTTP
  ``/query``, the JSON batch, and plain binary ``OP_QUERY`` frames all
  hit the overridden entry points, so a client may talk to *any*
  worker.
* **scatter/gather** — one routine, :meth:`_scatter`, behind all
  three entry points (a remotely-owned scalar ``query`` is the
  one-point batch): remote sub-batches go out first as pipelined
  ``OP_FORWARD_QUERY``/``OP_FORWARD_JOIN`` frames (one per owner
  slot), the local sub-batch computes while they fly, then replies
  gather in owner order and merge by request position (a batch's
  legs are ``ResultBatch`` columns: concatenated, then one ``take``
  with the inverse permutation). A shed on any
  leg abandons the fan-out and re-raises; only other typed failures
  count as ``shard.forward_errors``. Forwarded frames dispatch to
  :meth:`local_query_batch`/:meth:`local_join` on the receiving
  worker — never re-routed, so routing loops are structurally
  impossible. Connections come from a per-slot pool (a blocking
  :class:`~repro.serve.binproto.Client` is single-stream; pooling
  keeps concurrent request threads off each other's frames) and
  inherit the client's reconnect-and-replay discipline: a forward
  raced against a worker respawn queues in the parent-held listening
  socket's backlog and is answered by the replacement.
* **fleet-aware admission control** — workers publish
  ``admission: {inflight, ts}`` into the shared stats channel; the
  router sheds a batch at admission (``BudgetExceededError`` → HTTP
  503 / binproto ``STATUS_SHED``, counted under ``queries.shed`` and
  ``shard.shed``) only when *every* owning slot reports a fresh,
  saturated snapshot. Missing or stale snapshots fail open — a quiet
  stats channel must never turn into an outage.
* **slices are files** — the writer of a generation directory cuts
  the full generation once for every slot (the fleet's cutter child at
  start and on rebalance, the coordinator on reload); this service
  neither cuts nor maps. The worker's lifecycle
  (:meth:`repro.serve.lifecycle.FleetLifecycle.poll`) maps this slot's
  slice of each directory ``current`` names and hands the ranges it
  was cut under to :meth:`route_by`, so the slices held and the ranges
  routed by come from one read.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..act.core import QueryResult, ResultBatch
from ..errors import BudgetExceededError, ConnectionLostError, ServeError
from ..obs import Trace
from . import binproto, chaos
from .budget import Budget
from .registry import IndexRegistry
from .service import ACTService, ServeConfig
from .shard import ShardMap, shard_keys

__all__ = ["ShardedACTService"]

#: How long a cached copy of the fleet's snapshots is trusted for
#: admission decisions (bounds the file reads to a few per second).
_SNAPSHOT_CACHE_S = 0.2


class ShardedACTService(ACTService):
    """One shard worker's service: local slice + forwarding router.

    Serves whatever its registry holds and routes by ``shard_map``
    (none: every name is answered locally) until :meth:`route_by`
    swaps the map. A forked fleet worker starts on the full records it
    inherited and no map, and its lifecycle's first poll maps this
    slot's slices and their ranges; a name whose slice cannot be mapped
    keeps being answered from what the worker has: right answers, a
    full index's footprint.
    """

    def __init__(self, registry: Optional[IndexRegistry] = None,
                 config: Optional[ServeConfig] = None, *,
                 slot: int, shard_map: Optional[ShardMap] = None,
                 addresses: Optional[Dict[int, Tuple[str, int]]] = None,
                 snapshots=None,
                 shed_inflight: int = 64,
                 shed_staleness_s: float = 2.0,
                 forward_timeout_s: float = 30.0,
                 forward_retries: int = 6):
        self.slot = int(slot)
        self._map = ShardMap(0, {}, 1) if shard_map is None else shard_map
        super().__init__(registry=registry, config=config)
        self._addresses: Dict[int, Tuple[str, int]] = dict(addresses or {})
        self._fleet_snapshots = snapshots
        self._shed_inflight = int(shed_inflight)
        self._shed_staleness_s = float(shed_staleness_s)
        self._forward_timeout_s = float(forward_timeout_s)
        self._forward_retries = int(forward_retries)
        # free-list pool per slot: a blocking binproto.Client carries
        # one pipelined stream, so concurrent request threads must not
        # share one (responses would interleave across threads)
        self._pool: Dict[int, List[binproto.Client]] = {}
        self._pool_lock = threading.Lock()
        self._inflight = 0
        self._snap_cache: Tuple[float, dict] = (0.0, {})

    def set_telemetry(self, telemetry: str) -> None:
        super().set_telemetry(telemetry)
        # pre-bound shard families, rebound on every telemetry switch
        # like the superclass's; created here (reached from __init__)
        # so the shard.* families exist pre-traffic
        metrics = self.metrics
        self._shard_forwarded = metrics.counter("shard.forwarded")
        self._shard_local = metrics.counter("shard.local")
        self._shard_shed = metrics.counter("shard.shed")
        self._shard_forward_errors = metrics.counter(
            "shard.forward_errors")
        self._shard_forward_seconds = metrics.histogram(
            "shard.forward_seconds")

    # ------------------------------------------------------------------
    # Shard map
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        return self._map

    def route_by(self, shard_map: ShardMap) -> None:
        """Route by ``shard_map`` from the next request on: the ranges
        the slices this worker now holds were cut under."""
        self._map = shard_map

    # ------------------------------------------------------------------
    # Local execution (forwarded frames land here; never re-routed)
    # ------------------------------------------------------------------
    def _counted(self, run: Callable[..., Any], *args, **kwargs) -> Any:
        """Run a local entry point inside this slot's in-flight depth
        (what sibling routers read for admission control)."""
        self._inflight += 1
        try:
            return run(*args, **kwargs)
        finally:
            self._inflight -= 1

    def local_query_batch(self, *args, **kwargs) -> ResultBatch:
        return self._counted(super().query_batch, *args, **kwargs)

    def local_join(self, *args, **kwargs) -> np.ndarray:
        return self._counted(super().join, *args, **kwargs)

    # ------------------------------------------------------------------
    # Routed entry points
    # ------------------------------------------------------------------
    def query(self, index_name: str, lng: float, lat: float,  # repro-lint: hot
              exact: bool = False, budget: Optional[Budget] = None,
              trace: Optional[Trace] = None,
              request_id: Optional[str] = None) -> QueryResult:
        if index_name in self._map.ranges:
            record, boundary_level = self._hot_view(index_name)
            key = shard_keys(record.index.grid, (lng,), (lat,),
                             boundary_level)
            if int(self._map.route(index_name, key)[0]) != self.slot:
                # a remotely-owned point is the one-point batch
                return self.query_batch(
                    index_name, (lng,), (lat,), exact=exact, budget=budget,
                    trace=trace, request_id=request_id)[0]
            self._shard_local.inc()
        return super().query(index_name, lng, lat, exact=exact,
                             budget=budget, trace=trace,
                             request_id=request_id)

    def query_batch(self, index_name: str, lngs: Sequence[float],  # repro-lint: hot
                    lats: Sequence[float], exact: bool = False,
                    budget: Optional[Budget] = None,
                    trace: Optional[Trace] = None,
                    request_id: Optional[str] = None) -> ResultBatch:
        lngs, lats = self._point_columns(lngs, lats)
        legs: List[Tuple[np.ndarray, ResultBatch]] = []
        whole = self._scatter(
            index_name, lngs, lats,
            send=lambda client, x, y: client.send_forward_query(
                index_name, x, y, exact=exact),
            recv=lambda client: client.recv_results()[1],
            local=lambda x, y: self.local_query_batch(
                index_name, x, y, exact=exact, budget=budget, trace=trace,
                request_id=request_id),
            merge=lambda pos, part: legs.append((pos, part)))
        if whole is not None:
            return whole
        # gather = the legs end to end, then the permutation that puts
        # every point back at its request position
        back = np.empty(lngs.shape[0], dtype=np.int64)
        at = 0
        for pos, _ in legs:
            back[pos] = np.arange(at, at + pos.shape[0])
            at += pos.shape[0]
        return ResultBatch.concat([part for _, part in legs]).take(back)

    def join(self, index_name: str, lngs: Sequence[float],  # repro-lint: hot
             lats: Sequence[float], exact: bool = False,
             budget: Optional[Budget] = None,
             trace: Optional[Trace] = None,
             request_id: Optional[str] = None) -> np.ndarray:
        lngs, lats = self._point_columns(lngs, lats)
        record, _ = self._hot_view(index_name)
        counts = np.zeros(record.index.num_polygons, dtype=np.int64)

        def recv(client: binproto.Client) -> np.ndarray:
            # a forward's reply is sparse {polygon id: count}
            sparse = client.recv_counts()[1]
            part = np.zeros_like(counts)
            part[list(sparse)] = list(sparse.values())
            return part

        def merge(_pos: np.ndarray, part: np.ndarray) -> None:
            counts[:part.shape[0]] += part

        whole = self._scatter(
            index_name, lngs, lats,
            send=lambda client, x, y: client.send_forward_join(
                index_name, x, y, exact=exact),
            recv=recv,
            local=lambda x, y: self.local_join(
                index_name, x, y, exact=exact, budget=budget, trace=trace,
                request_id=request_id),
            merge=merge)
        return counts if whole is None else whole

    # ------------------------------------------------------------------
    # Scatter/gather
    # ------------------------------------------------------------------
    def _scatter(self, index_name: str, lngs: np.ndarray, lats: np.ndarray,
                 send: Callable[[binproto.Client, np.ndarray, np.ndarray],
                                object],
                 recv: Callable[[binproto.Client], Any],
                 local: Callable[[np.ndarray, np.ndarray], Any],
                 merge: Callable[[np.ndarray, Any], None]) -> Any:
        """Route one request's points and run its legs — the only place
        that acquires forward clients, sends ``OP_FORWARD_*`` frames
        and gathers their replies (the module docstring has the order).

        ``send(client, lngs, lats)`` writes one owner's forward frame,
        ``recv(client)`` reads its reply, ``local(lngs, lats)`` answers
        the points this slot owns, and ``merge(pos, part)`` folds one
        leg's answer — for the points at request positions ``pos`` —
        into the caller's result. Returns ``local``'s answer as it is
        when nothing needs forwarding (the name is unmapped, or this
        slot owns every point), ``None`` once every leg is merged.
        """
        if index_name not in self._map.ranges:
            return local(lngs, lats)
        n = int(lngs.shape[0])
        record, boundary_level = self._hot_view(index_name)
        keys = shard_keys(record.index.grid, lngs, lats, boundary_level)
        slots = self._map.route(index_name, keys)
        owners = np.unique(slots).tolist()
        if owners == [self.slot]:
            self._shard_local.inc(n)
            return local(lngs, lats)
        if self._fleet_saturated(owners):
            self._shard_shed.inc(n)
            self._queries_shed.inc(n)
            raise BudgetExceededError(
                "all owning shards saturated; shedding at admission")
        start = time.perf_counter()
        pending: List[Tuple[int, binproto.Client, np.ndarray]] = []
        local_pos: Optional[np.ndarray] = None
        try:
            for owner in owners:
                pos = np.nonzero(slots == owner)[0]
                if owner == self.slot:
                    local_pos = pos
                    continue
                chaos.fault("shard.forward", self.metrics)
                client = self._acquire_client(owner)
                pending.append((owner, client, pos))
                send(client, lngs[pos], lats[pos])
                self._shard_forwarded.inc(int(pos.shape[0]))
            if local_pos is not None:
                merge(local_pos, local(lngs[local_pos], lats[local_pos]))
                self._shard_local.inc(int(local_pos.shape[0]))
            for _owner, client, pos in pending:
                merge(pos, recv(client))
        except Exception as exc:
            # a shed — the local leg's budget, or an owner answering
            # STATUS_SHED — is counted (queries.shed) by the service
            # that ran the leg; it is not a forward that failed
            if (isinstance(exc, ServeError)
                    and not isinstance(exc, BudgetExceededError)):
                self._shard_forward_errors.inc()
            raise
        finally:
            self._settle(pending)
        self._shard_forward_seconds.observe(time.perf_counter() - start)
        return None

    def _acquire_client(self, slot: int) -> binproto.Client:
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
            return binproto.Client(
                address[0], address[1], timeout=self._forward_timeout_s,
                retries=self._forward_retries)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot reach shard slot {slot} at "
                f"{address[0]}:{address[1]}: {exc}") from exc

    def _settle(self, pending: List[Tuple[int, binproto.Client,
                                          np.ndarray]]) -> None:
        """Give back the clients of a finished or abandoned fan-out. One
        that still owes a reply (its frame is unacknowledged: the
        stream would hand the answer, or a replay's, to a future
        borrower) is closed; one whose stream is in sync — replied,
        error frames included, or never sent — returns to the pool."""
        for owner, client, _pos in pending:
            if client.owes_reply:
                client.close()
            else:
                with self._pool_lock:
                    self._pool.setdefault(owner, []).append(client)

    # ------------------------------------------------------------------
    # Fleet-aware admission control
    # ------------------------------------------------------------------
    def shard_info(self) -> dict:
        """Per-shard snapshot block for fleet aggregation/metrics."""
        resident = 0
        owned = 0
        slices: Dict[str, Optional[str]] = {}
        for name in self.registry.names():
            record = self.registry.materialized.get(name)
            if record is not None:
                resident += int(record.index.core.total_bytes)
            if name in self._map.ranges:
                owned += len(self._map.ranges_for_slot(name, self.slot))
                # the file this slot serves the name from: its slice
                slices[name] = (str(record.path) if record is not None
                                and record.path else None)
        return {
            "slot": self.slot,
            "map_generation": self._map.generation,
            "inflight": int(self._inflight),
            "node_pool_bytes": resident,
            "slice_path": slices,
            "ranges": owned,
            "forwarded": self._shard_forwarded.value,
            "local": self._shard_local.value,
            "shed": self._shard_shed.value,
            "forward_errors": self._shard_forward_errors.value,
        }

    def _snapshot_view(self) -> dict:
        """A briefly cached copy of the fleet's snapshots (bounds the
        cost of per-batch admission checks: one file read per worker)."""
        now = time.monotonic()
        expires, view = self._snap_cache
        if now < expires:
            return view
        snapshots = self._fleet_snapshots
        try:
            # .items(): the fleet's file-backed mapping skips a record
            # that vanishes between its listing and its read
            view = dict(snapshots.items()) if snapshots is not None else {}
        except OSError:  # fail open: admission never fails a request
            view = {}
        self._snap_cache = (now + _SNAPSHOT_CACHE_S, view)
        return view

    def _fleet_saturated(self, owners: Sequence[int]) -> bool:
        """True only when EVERY owning slot is verifiably saturated.

        This slot's own depth is read directly; remote depths come from
        the published snapshots. Any missing, stale, or under-threshold
        report fails open — shedding needs positive evidence from the
        whole owner set.
        """
        if self._shed_inflight <= 0 or not owners:
            return False
        view: Optional[dict] = None
        for owner in owners:
            if owner == self.slot:
                if self._inflight < self._shed_inflight:
                    return False
                continue
            if view is None:
                view = self._snapshot_view()
            snap = view.get(owner)
            if snap is None:
                snap = view.get(str(owner))
            admission = (snap or {}).get("admission")
            if not admission:
                return False
            age = time.time() - float(admission.get("ts", 0.0))
            if age > self._shed_staleness_s:
                return False
            if int(admission.get("inflight", 0)) < self._shed_inflight:
                return False
        return True

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        out = super().stats()
        out["shard"] = self.shard_info()
        # the fleet publishes stats() into the shared channel; every
        # slot's router reads sibling depths from this block
        out["admission"] = {"inflight": int(self._inflight),
                            "ts": time.time()}
        return out

    def close(self) -> None:
        with self._pool_lock:
            clients = [c for free in self._pool.values() for c in free]
            self._pool.clear()
        for client in clients:
            client.close()
