"""The query service: admission, cache, descent, and aggregation.

:class:`ACTService` is the long-lived object behind every serving entry
point (HTTP server, CLI, benchmarks). Per point query it:

1. resolves the named index through the :class:`~repro.serve.registry.
   IndexRegistry` (lazy build/load, pinned afterwards, lock-free once
   materialized);
2. sheds the request immediately if its latency budget is already spent;
3. consults the :class:`~repro.serve.cache.CellResultCache` keyed by the
   boundary-level cell — a hit answers with one dict lookup and no trie
   descent, which is why the hot path is cheaper than a bare
   ``ACTIndex.query`` call;
4. on a miss, answers inline with one scalar descent on the calling
   thread (a ~10 µs lookup is cheaper than any queue hand-off that
   could amortize it) and offers the cell's result to the cache, which
   keeps it on the cell's second miss — a cell missed once, as in a
   scan, never takes a slot;
5. refines candidates per point for ``exact`` mode (cached cell results
   are classified, so exactness survives caching) and records latency.

:meth:`ACTService.query_batch` is the columnar analog for clients that
already hold a batch (the ``POST /query`` endpoint): cache keys come
from one vectorized ``point_keys`` pass, all misses resolve with a
single batch descent against the core, and exact-mode refinement runs
through the index's packed-edge engine in one vectorized pass. The
answer is assembled once, into a :class:`~repro.act.core.ResultBatch`
(four flat columns); everything downstream — refinement, the binary and
JSON fronts, the router's gather, the client — moves those columns and
never a ``QueryResult`` per point.

Bulk joins go straight to the vectorized ``count_points`` engine.

A sharded fleet's worker passes a :class:`~repro.serve.router.Router`:
routing is then a stage of the same pipeline (admission → plan → local
| forward → gather), and a sibling's forwarded frame runs the local
bodies, ``local_query_batch`` / ``local_join``, never re-routed.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..act.core import ResultBatch
from ..act.index import ACTIndex, QueryResult
from ..errors import BudgetExceededError, InvalidRequestError, ServeError
from ..grid.base import INVALID_KEY
from ..obs import PrometheusRenderer, SlowQueryLog, Trace, Tracer
from . import binproto, chaos
from .budget import Budget
from .cache import DEFAULT_CAPACITY, CellResultCache
from .metrics import MetricsRegistry
from .registry import IndexGeneration, IndexRegistry
from .router import Router, Sent, gather
from .shard import shard_keys

#: Empty result reused for out-of-domain points.
_MISS = QueryResult((), ())

#: Telemetry modes: ``full`` = counters + sampled tracing + slow-query
#: log (the default; cheap enough to leave on), ``counters`` = bare
#: counters/histograms only, ``off`` = every metrics handle is a no-op.
TELEMETRY_MODES = ("full", "counters", "off")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one service instance."""

    cache_capacity: int = DEFAULT_CAPACITY
    default_budget_ms: Optional[float] = None
    #: One of :data:`TELEMETRY_MODES`.
    telemetry: str = "full"
    #: Trace every Nth admission (0 disables sampling; forced traces —
    #: a client sending ``?trace=1`` — still work).
    trace_sample_interval: int = 64
    #: Requests slower than this land in the slow-query log.
    slow_query_ms: float = 250.0
    slowlog_capacity: int = 128


class ACTService:
    """Serves point queries and joins over registered ACT indexes."""

    def __init__(self, registry: Optional[IndexRegistry] = None,
                 config: Optional[ServeConfig] = None,
                 router: Optional[Router] = None):
        self.registry = registry if registry is not None else IndexRegistry()
        self.config = config if config is not None else ServeConfig()
        self.router = router
        self._inflight = 0  # local bodies running now (unlocked, as Counter)
        self.metrics = MetricsRegistry()
        self.set_telemetry(self.config.telemetry)
        self.cache = CellResultCache(self.config.cache_capacity)
        # per-index hot-path state: (generation record, boundary_level);
        # plain dict reads are GIL-atomic so requests skip all locks
        # once warmed, and pinning the record at admission keeps one
        # coherent generation for the whole request
        self._hot: Dict[str, Tuple[IndexGeneration, int]] = {}
        self._started = time.monotonic()

    def set_telemetry(self, telemetry: str) -> None:
        """Switch the telemetry level of a live service.

        Runtime-switchable so an operator can drop to ``counters`` (or
        ``off``) under incident load without a restart, and so the
        overhead benchmark can compare levels on one service instance.
        Accumulated counters and histograms survive a switch (the
        registry keeps them; ``off`` only makes the handles no-ops);
        the tracer and slow-query log are rebuilt to the new level.
        """
        if telemetry not in TELEMETRY_MODES:
            raise ServeError(
                f"telemetry must be one of {TELEMETRY_MODES}, "
                f"got {telemetry!r}"
            )
        if telemetry != self.config.telemetry:
            self.config = dataclasses.replace(
                self.config, telemetry=telemetry)
        self.metrics.enabled = telemetry != "off"
        # sampled tracing and the slow-query log belong to "full" mode;
        # "counters" keeps the aggregates but never builds a Trace
        # (forced traces — an explicit ?trace=1 — still work)
        self.tracer = Tracer(
            sample_interval=self.config.trace_sample_interval
            if telemetry == "full" else 0
        )
        self.slowlog = SlowQueryLog(
            threshold_s=(self.config.slow_query_ms / 1e3
                         if telemetry == "full" else 0.0),
            capacity=self.config.slowlog_capacity,
        )
        # pre-bound hot-path metrics (registry lookups are off the
        # path); re-bound on every switch because a disabled registry
        # hands out no-op singletons
        self._queries_total = self.metrics.counter("queries.total")
        self._queries_errors = self.metrics.counter("queries.errors")
        self._queries_shed = self.metrics.counter("queries.shed")
        self._queries_ood = self.metrics.counter("queries.out_of_domain")
        self._cache_hits = self.metrics.counter("queries.cache_hits")
        self._inline_miss = self.metrics.counter("queries.inline_miss")
        self._batched_misses = self.metrics.counter("queries.batched_misses")
        self._latency = self.metrics.histogram("queries.latency_seconds")
        # the remaining service-adjacent families are used lazily on
        # cold paths, but must exist pre-traffic so scrapes show zeros
        # instead of families appearing mid-incident (RL004);
        # faults.chaos_injections is included because every chaos seam
        # counts against this service's registry
        self.metrics.register(
            counters=(
                "queries.invalid", "joins.total", "joins.points",
                "admin.reloads", "admin.registers", "admin.unregisters",
                "faults.chaos_injections",
            ),
            histograms=("joins.latency_seconds",),
        )
        if self.router is not None:
            self.router.bind(self.metrics)

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def query(self, index_name: str, lng: float, lat: float,  # repro-lint: hot
              exact: bool = False, budget: Optional[Budget] = None,
              trace: Optional[Trace] = None,
              request_id: Optional[str] = None) -> QueryResult:
        """One classified point lookup through the full serving stack.

        ``trace`` forces a per-stage breakdown for this request (the
        HTTP front passes one for ``?trace=1``); without it every Nth
        admission is sampled by the service's tracer. ``request_id``
        ties slow-query-log entries back to the caller's id.

        Raises :class:`~repro.errors.BudgetExceededError` when the budget
        runs out (shed), :class:`~repro.errors.UnknownIndexError` for
        unregistered names.
        """
        router = self.router
        if router is not None and index_name in router.shard_map.ranges:
            legs = self._routed(
                self.local_query_batch, binproto.Client.send_forward_query,
                binproto.Client.recv_results, True, index_name,
                np.array([lng], np.float64), np.array([lat], np.float64),
                exact, budget, trace, request_id)
            if legs is not None:  # another slot owns the point
                result = gather(1, legs)[0]
                if trace is not None:
                    trace.stamp("gather")
                return result
        start = time.perf_counter()
        self._queries_total.inc()
        budget = self._effective_budget(budget)
        if trace is None:
            tracer = self.tracer
            interval = tracer.sample_interval
            if interval > 0:
                # the sampler's unsampled fast path, inlined: a method
                # call per request is measurable on this path
                tracer._admissions += 1
                if not tracer._admissions % interval:
                    trace = tracer.sample(request_id=request_id,
                                          kind="query", force=True)
        if budget is not None:
            budget.trace = trace
        try:
            record, boundary_level = self._hot_view(index_name)
            index = record.index
            if budget is not None:
                budget.require("admission")
            if trace is not None:
                trace.stamp("admission")
            cell = index.grid.point_key(lng, lat, boundary_level)
            if cell is None:
                self._queries_ood.inc()
                result = _MISS
            else:
                key = (index_name, record.generation, cell)
                result = self.cache.get(key)
                if trace is not None:
                    trace.stamp("cache_probe")
                if result is not None:
                    self._cache_hits.inc()
                else:
                    # a miss is one scalar descent on this thread
                    if budget is not None:
                        budget.require("dispatch")
                    self._inline_miss.inc()
                    result = index.query(lng, lat)
                    if trace is not None:
                        trace.stamp("descent")
                    self.cache.put(key, result)
            if exact:
                result = self._refine_scalar(index, result, lng, lat)
                if trace is not None:
                    trace.stamp("refine")
        except BudgetExceededError:
            # a shed is load-shedding doing its job, not a failure: a
            # service under deadline pressure must not look broken
            self._queries_shed.inc()
            self.slowlog.maybe_record(
                time.perf_counter() - start, "query",
                request_id=request_id, trace=trace, extra={"shed": True})
            raise
        except Exception:
            self._queries_errors.inc()
            raise
        elapsed = time.perf_counter() - start
        self._latency.observe(elapsed)
        slowlog = self.slowlog
        if elapsed >= slowlog.threshold_s > 0.0:
            slowlog.maybe_record(elapsed, "query", request_id=request_id,
                                 trace=trace)
        return result

    def _refine_scalar(self, index: ACTIndex, result: QueryResult,
                       lng: float, lat: float) -> QueryResult:
        """Exact-mode refinement for one point via the packed-edge engine.

        A one-point batch through :meth:`_refine_batch`, so scalar and
        batch exact queries share one verdict path (bit-identical, no
        per-candidate Python ``Polygon.contains`` loop)."""
        if not result.candidates:
            return QueryResult(result.true_hits, ())
        return self._refine_batch(
            index, ResultBatch.from_results((result,)),
            np.asarray([lng], dtype=np.float64),
            np.asarray([lat], dtype=np.float64),
        )[0]

    def _effective_budget(self, budget: Optional[Budget]) -> Optional[Budget]:
        if budget is None and self.config.default_budget_ms is not None:
            return Budget.from_ms(self.config.default_budget_ms)
        return budget

    def _hot_view(self, index_name: str) -> Tuple[IndexGeneration, int]:
        """The pinned ``(generation record, boundary_level)`` for a name.

        The identity check keeps the pinned view coherent with the
        registry: once a new generation is adopted the name maps to a
        different record and the next request re-warms — the rule is shared by the
        scalar, batch, and join paths. A request holds the record it was
        given for its whole lifetime, so a reload mid-batch never mixes
        cores or cache keyspaces.
        """
        hot = self._hot.get(index_name)
        if hot is None or hot[0] is not self.registry.materialized.get(
                index_name):
            hot = self._warm(index_name)
        return hot

    def _warm(self, index_name: str) -> Tuple[IndexGeneration, int]:
        """Materialize an index and pin its cache-key resolution."""
        return self._adopt_record(self.registry.pin(index_name))

    def _adopt_record(self, record: IndexGeneration,
                      ) -> Tuple[IndexGeneration, int]:
        """Swap the hot view to ``record``, retiring the old generation.

        Re-warming after the registry swapped the record (a new
        generation) reclaims the stale generation's cache entries so point queries,
        joins, and the cache all agree on one generation. The sweep is
        memory hygiene, not correctness: old-generation entries live
        under old-generation keys that new requests never read.
        """
        name = record.name
        stale = self._hot.get(name)
        self._hot[name] = hot = (record, record.index.boundary_level)
        if stale is not None and stale[0] is not record:
            self.cache.invalidate_index(
                name, keep_generation=record.generation)
        return hot

    # ------------------------------------------------------------------
    # Batched point queries
    # ------------------------------------------------------------------
    def query_batch(self, index_name: str, lngs: Sequence[float],  # repro-lint: hot
                    lats: Sequence[float], exact: bool = False,
                    budget: Optional[Budget] = None,
                    trace: Optional[Trace] = None,
                    request_id: Optional[str] = None) -> ResultBatch:
        """Classified lookups for a whole point batch: a local plan is
        :meth:`local_query_batch`, a spanning one :meth:`_routed` and
        then ``gather`` (a trace stamps ``route`` and ``gather``)."""
        router = self.router
        if router is not None and index_name in router.shard_map.ranges:
            lngs, lats = self._point_columns(lngs, lats)
            legs = self._routed(
                self.local_query_batch, binproto.Client.send_forward_query,
                binproto.Client.recv_results, True, index_name, lngs, lats,
                exact, budget, trace, request_id)
            if legs is not None:
                batch = gather(int(lngs.shape[0]), legs)
                if trace is not None:
                    trace.stamp("gather")
                return batch
        return self.local_query_batch(index_name, lngs, lats, exact,
                                      budget, trace, request_id)

    def _routed(self, local: Callable[..., Any], send: Callable[..., int],
                recv: Callable[[binproto.Client], Tuple[int, Any]],
                lookups: bool, index_name: str, lngs: np.ndarray,
                lats: np.ndarray, exact: bool, budget: Optional[Budget],
                trace: Optional[Trace], request_id: Optional[str],
                ) -> Optional[List[Tuple[np.ndarray, Any]]]:
        """The routing stage of a request on a mapped name: plan, then
        answer this slot's points with ``local`` while ``send`` (an
        unbound ``Client.send_forward_*``) forwards each remote owner's
        and ``recv`` reads its reply. Returns each leg's ``(request
        positions, answer)``, or ``None`` for a local plan. Points no
        leg took count as an unsharded failure counts them (with
        ``queries.total`` for ``lookups``)."""
        n = int(lngs.shape[0])
        sent: List[Sent] = []
        answering = False  # every point is with a leg that counts it
        try:
            record, level = self._hot_view(index_name)
            plan = self.router.plan(
                index_name, shard_keys(record.index.grid, lngs, lats, level),
                self._inflight)
            if trace is not None:
                trace.stamp("route")
            if plan is None:
                return None
            mine, legs = plan
            with self.router.fan_out(sent, send, index_name, lngs, lats,
                                     exact, legs):
                answering = True
                parts = [(mine, local(index_name, lngs[mine], lats[mine],
                                      exact, budget, trace, request_id))
                         ] if mine.shape[0] else []
                return parts + [(pos, recv(client)[1])
                                for _, pos, client in sent]
        except Exception as exc:
            if not answering:
                missed = n - sum(int(pos.shape[0]) for _, pos, _ in sent)
                (self._queries_shed if isinstance(exc, BudgetExceededError)
                 else self._queries_errors).inc(missed)
                if lookups:
                    self._queries_total.inc(missed)
            raise

    def local_query_batch(self, index_name: str, lngs: Sequence[float],  # repro-lint: hot
                          lats: Sequence[float], exact: bool = False,
                          budget: Optional[Budget] = None,
                          trace: Optional[Trace] = None,
                          request_id: Optional[str] = None) -> ResultBatch:
        """Classified lookups for a whole point batch, cache included.

        Network clients amortize the same way in-process callers do:
        one vectorized ``point_keys`` pass produces the cache keys, all
        cache misses are answered by a single batch descent against the
        core (each missed cell is offered to the cache, which keeps it
        on its second miss; the keyspace is shared with the scalar
        path), and ``exact`` refinement runs through the index's
        packed-edge engine in one vectorized pass over the batch's
        candidate pairs. Returns the batch's columns; they read as one
        ``QueryResult`` per point for callers that index or iterate. A
        spent budget sheds the whole batch with
        :class:`~repro.errors.BudgetExceededError`.
        """
        start = time.perf_counter()
        lngs, lats = self._point_columns(lngs, lats)
        n = int(lngs.shape[0])
        # chaos seam: armed tests kill/stall workers mid-request here
        chaos.fault("query", self.metrics)
        self._queries_total.inc(n)
        budget = self._effective_budget(budget)
        if trace is None:
            trace = self.tracer.sample(request_id=request_id,
                                       kind="query_batch")
        if budget is not None:
            budget.trace = trace
        self._inflight += 1
        try:
            record, boundary_level = self._hot_view(index_name)
            index = record.index
            generation = record.generation
            if budget is not None:
                budget.require("batch admission")
            if trace is not None:
                trace.stamp("admission")
            keys = index.grid.point_keys(lngs, lats, boundary_level).tolist()
            if trace is not None:
                trace.stamp("cell_key")
            invalid = int(INVALID_KEY)
            cache_get = self.cache.get
            results: List[Optional[QueryResult]] = [
                _MISS if key == invalid
                else cache_get((index_name, generation, key))
                for key in keys
            ]
            miss_pos = [k for k, result in enumerate(results)
                        if result is None]
            out_of_domain = keys.count(invalid)
            if out_of_domain:
                self._queries_ood.inc(out_of_domain)
            hits = n - out_of_domain - len(miss_pos)
            if hits:
                self._cache_hits.inc(hits)
            if trace is not None:
                trace.stamp("cache_probe")
            if miss_pos:
                if budget is not None:
                    budget.require("batch dispatch")
                # one descent and one decode per *unique* cell — ACT
                # results are constant within a boundary-level cell, so
                # a skewed batch decodes each hot cell once
                first_pos: Dict[int, int] = {}
                for k in miss_pos:
                    first_pos.setdefault(keys[k], k)
                pos = np.asarray(list(first_pos.values()), dtype=np.int64)
                cells = index.grid.leaf_cells_batch(lngs[pos], lats[pos])
                if trace is not None:
                    trace.stamp("leaf_cells")
                entries = index.core.lookup_entries(cells)
                if trace is not None:
                    trace.stamp("descent")
                decode = index.core.decode_entry
                decoded = [decode(entry) for entry in entries.tolist()]
                if trace is not None:
                    trace.stamp("entry_decode")
                put = self.cache.put
                for key, result in zip(first_pos, decoded):
                    put((index_name, generation, key), result)
                if trace is not None:
                    trace.stamp("cache_put")
                by_key = dict(zip(first_pos, decoded))
                for k in miss_pos:
                    results[k] = by_key[keys[k]]
                self._batched_misses.inc(len(miss_pos))
            batch = ResultBatch.from_results(results)
            if exact:
                batch = self._refine_batch(index, batch, lngs, lats)
                if trace is not None:
                    trace.stamp("refine")
        except BudgetExceededError:
            self._queries_shed.inc(n)
            self.slowlog.maybe_record(
                time.perf_counter() - start, "query_batch",
                request_id=request_id, trace=trace,
                extra={"shed": True, "num_points": n})
            raise
        except Exception:
            self._queries_errors.inc(n)
            raise
        finally:
            self._inflight -= 1
        elapsed = time.perf_counter() - start
        self._latency.observe(elapsed)
        if elapsed >= self.slowlog.threshold_s > 0.0:
            self.slowlog.maybe_record(elapsed, "query_batch",
                                      request_id=request_id, trace=trace,
                                      extra={"num_points": n})
        return batch

    def _point_columns(self, lngs: Sequence[float], lats: Sequence[float],
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """A request's point columns as matching 1-D float64 arrays.

        Catches the mismatch at admission: deep inside
        ``leaf_cells_batch`` it surfaces as an opaque broadcast error.
        Counted under its own metric (the point count is not
        trustworthy, so neither total nor errors fit).
        """
        lngs = np.asarray(lngs, dtype=np.float64)
        lats = np.asarray(lats, dtype=np.float64)
        if lngs.shape != lats.shape or lngs.ndim != 1:
            self.metrics.counter("queries.invalid").inc()
            raise InvalidRequestError(
                f"need matching 1-D lngs/lats, got shapes "
                f"{lngs.shape} and {lats.shape}"
            )
        return lngs, lats

    def _refine_batch(self, index: ACTIndex, results: ResultBatch,  # repro-lint: hot
                      lngs: np.ndarray, lats: np.ndarray) -> ResultBatch:
        """Exact-mode refinement via the index's packed-edge engine."""
        point_idx, polygon_ids = results.candidate_pairs()
        if not point_idx.shape[0]:
            return results
        return results.refined(index.executor.refine_pairs(
            point_idx, polygon_ids, lngs, lats))

    # ------------------------------------------------------------------
    # Bulk joins
    # ------------------------------------------------------------------
    def join(self, index_name: str, lngs: Sequence[float],  # repro-lint: hot
             lats: Sequence[float], exact: bool = False,
             budget: Optional[Budget] = None,
             trace: Optional[Trace] = None,
             request_id: Optional[str] = None) -> np.ndarray:
        """Count points per polygon (the paper's aggregation workload),
        routed the way :meth:`query_batch` is; the legs' counts add up."""
        router = self.router
        if router is not None and index_name in router.shard_map.ranges:
            lngs, lats = self._point_columns(lngs, lats)
            legs = self._routed(
                self.local_join, binproto.Client.send_forward_join,
                binproto.Client.recv_counts, False, index_name, lngs, lats,
                exact, budget, trace, request_id)
            if legs is not None:
                record, _ = self._hot_view(index_name)
                counts = np.zeros(record.index.num_polygons, dtype=np.int64)
                for _, part in legs:
                    if isinstance(part, dict):
                        # a forward's {polygon id: count}; {} if no hit
                        ids, hits = np.array(list(part.items()),
                                             np.int64).reshape(-1, 2).T
                        counts[ids] += hits
                    else:
                        counts += part
                if trace is not None:
                    trace.stamp("gather")
                return counts
        return self.local_join(index_name, lngs, lats, exact, budget, trace,
                               request_id)

    def local_join(self, index_name: str, lngs: Sequence[float],  # repro-lint: hot
                   lats: Sequence[float], exact: bool = False,
                   budget: Optional[Budget] = None,
                   trace: Optional[Trace] = None,
                   request_id: Optional[str] = None) -> np.ndarray:
        """One :meth:`~repro.join.executor.JoinExecutor.join` behind the
        same admission, shed and error accounting as
        :meth:`local_query_batch`."""
        start = time.perf_counter()
        lngs, lats = self._point_columns(lngs, lats)
        n = int(lngs.shape[0])
        chaos.fault("query", self.metrics)
        if trace is None:
            trace = self.tracer.sample(request_id=request_id, kind="join")
        self._inflight += 1
        try:
            if budget is not None:
                budget.trace = trace
                budget.require("join admission")
            if trace is not None:
                trace.stamp("admission")
            # resolve through the pinned hot view, not the registry:
            # after a new generation is adopted joins must run against
            # the same generation as point queries and the cell cache
            record, _ = self._hot_view(index_name)
            counts = record.index.executor.join(
                lngs, lats, exact=exact, trace=trace).counts
        except BudgetExceededError:
            self._queries_shed.inc(n)
            self.slowlog.maybe_record(
                time.perf_counter() - start, "join",
                request_id=request_id, trace=trace,
                extra={"shed": True, "num_points": n})
            raise
        except Exception:
            self._queries_errors.inc(n)
            raise
        finally:
            self._inflight -= 1
        self.metrics.counter("joins.total").inc()
        self.metrics.counter("joins.points").inc(n)
        elapsed = time.perf_counter() - start
        self.metrics.histogram("joins.latency_seconds").observe(elapsed)
        if elapsed >= self.slowlog.threshold_s > 0.0:
            self.slowlog.maybe_record(elapsed, "join",
                                      request_id=request_id, trace=trace,
                                      extra={"num_points": n})
        return counts

    def shard_info(self) -> Optional[dict]:
        """This worker's shard block, or ``None``: not sharded."""
        return (None if self.router is None
                else self.router.info(self.registry, self._inflight))

    # ------------------------------------------------------------------
    # Index lifecycle (the admin surface)
    # ------------------------------------------------------------------
    def adopt_generation(self, name: str, path, generation: int,
                         source=None) -> IndexGeneration:
        """Serve ``name`` from a generation directory's file — what a
        fleet worker does with each directory ``current`` names: the
        hot view swaps to the new record and the old generation's cache
        entries go (see :meth:`~repro.serve.registry.IndexRegistry.
        adopt`). Requests that pinned the old record finish on it."""
        record = self.registry.adopt(name, path, generation, source=source)
        self._adopt_record(record)
        return record

    def unregister_index(self, name: str) -> dict:
        """Retire ``name``: drop the registration, hot view, and cache
        entries. In-flight requests on the pinned record finish
        normally; new requests 404."""
        out = self.registry.unregister(name)
        self._hot.pop(name, None)
        out["cache_entries_dropped"] = self.cache.invalidate_index(name)
        self.metrics.counter("admin.unregisters").inc()
        return out

    def admin_indexes(self) -> List[dict]:
        """The admin listing: registry state plus live generation info."""
        return [self.registry.describe(name)
                for name in self.registry.names()]

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Everything ``/stats`` reports: metrics, cache, indexes."""
        snapshot = self.metrics.snapshot()
        hit_rate = self.metrics.ratio("queries.cache_hits", "queries.total")
        out = {
            "uptime_seconds": time.monotonic() - self._started,
            "indexes": [self.registry.describe(n)
                        for n in self.registry.names()],
            "cache": self.cache.stats(),
            "cache_hit_rate": hit_rate,
            "metrics": snapshot,
            "slow_queries": self.slowlog.stats(),
            "config": {
                "cache_capacity": self.config.cache_capacity,
                "default_budget_ms": self.config.default_budget_ms,
                "telemetry": self.config.telemetry,
                "trace_sample_interval": self.config.trace_sample_interval,
                "slow_query_ms": self.config.slow_query_ms,
            },
        }
        if self.router is not None:
            # published into the fleet's channel: sibling routers read
            # this slot's depth from "admission"
            out.update(shard=self.shard_info(), admission={
                "inflight": self._inflight, "ts": time.time()})
        return out

    def prometheus_text(self, fleet_view: Optional[dict] = None,
                        worker_id: Optional[int] = None) -> str:
        """The ``GET /metrics`` payload (Prometheus text exposition).

        Every registry counter/gauge/histogram becomes a family, plus
        per-index gauges (generation, descent totals) labelled by index
        name and generation, cache-entry gauges labelled per generation,
        and slow-query-log gauges. ``fleet_view`` (an
        :func:`~repro.serve.fleet.aggregate_snapshots` result) adds the
        fleet-wide families — bucket-merged latency histograms included
        — so scraping any one worker sees the whole fleet.
        """
        renderer = PrometheusRenderer(namespace="repro")
        base = {} if worker_id is None else {"worker": str(worker_id)}
        snapshot = self.metrics.snapshot()
        for name, value in snapshot["counters"].items():
            renderer.counter(name, value, labels=dict(base))
        for name, value in snapshot["gauges"].items():
            renderer.gauge(name, value, labels=dict(base))
        for name, snap in snapshot["histograms"].items():
            renderer.histogram(name, snap, labels=dict(base))
        renderer.gauge("uptime_seconds",
                       time.monotonic() - self._started,
                       labels=dict(base),
                       help_text="Seconds since this service started")
        for described in self.admin_indexes():
            labels = dict(base)
            labels["index"] = str(described.get("name"))
            if not described.get("materialized"):
                continue  # registered but not materialized yet
            generation = described.get("generation", 0)
            labels["generation"] = str(generation)
            renderer.gauge("index_generation", float(generation),
                           labels=labels,
                           help_text="Live generation per index")
            for key in ("descent_batches", "descent_points",
                        "descent_seconds"):
                if key in described:
                    renderer.counter(f"index_{key}", described[key],
                                     labels=dict(labels))
        cache_stats = self.cache.stats()
        for key in ("size", "capacity"):
            renderer.gauge(f"cache_{key}", cache_stats[key],
                           labels=dict(base))
        for key in ("hits", "misses", "evictions", "invalidations",
                    "rejected"):
            renderer.counter(f"cache_{key}", cache_stats[key],
                             labels=dict(base))
        for (name, generation), entries in sorted(
                self.cache.entries_by_generation().items()):
            labels = dict(base)
            labels["index"] = name
            labels["generation"] = str(generation)
            renderer.gauge("cache_entries", float(entries), labels=labels,
                           help_text="Cached cell results per generation")
        slow = self.slowlog.stats()
        renderer.gauge("slowlog_size", slow["size"], labels=dict(base))
        renderer.counter("slowlog_recorded", slow["recorded"],
                         labels=dict(base))
        if fleet_view is not None:
            self._render_fleet(renderer, fleet_view)
        return renderer.render()

    @staticmethod
    def _render_fleet(renderer: "PrometheusRenderer",
                      view: dict) -> None:
        """Fleet-aggregate families (bucket-merged across workers)."""
        renderer.gauge("fleet_workers", view.get("workers", 0),
                       help_text="Live fleet workers")
        renderer.gauge("fleet_qps", view.get("qps", 0.0))
        for name, value in view.get("counters", {}).items():
            renderer.counter(f"fleet.{name}", value)
        for name, snap in view.get("histograms", {}).items():
            renderer.histogram(
                f"fleet.{name}", snap,
                help_text="Bucket-merged across all fleet workers")
        # sharded fleets: per-shard families labelled {shard="<slot>"}
        # from each worker's published shard block, so dashboards see
        # slice skew (resident bytes, routing split, shed) per shard
        for entry in view.get("per_worker", []):
            shard = entry.get("shard")
            if not shard:
                continue
            labels = {"shard": str(shard.get("slot", entry.get("worker")))}
            renderer.gauge("fleet_shard_inflight",
                           float(shard.get("inflight", 0)),
                           labels=dict(labels),
                           help_text="In-flight batches per shard worker")
            renderer.gauge("fleet_shard_node_pool_bytes",
                           float(shard.get("node_pool_bytes", 0)),
                           labels=dict(labels),
                           help_text="Resident index slice bytes per "
                                     "shard worker")
            renderer.gauge("fleet_shard_ranges",
                           float(shard.get("ranges", 0)),
                           labels=dict(labels),
                           help_text="Owned keyspace ranges per shard "
                                     "worker")
            for key in ("forwarded", "local", "shed", "forward_errors"):
                if key in shard:
                    renderer.counter(f"fleet_shard_{key}", shard[key],
                                     labels=dict(labels))

    def close(self) -> None:
        """Release what the service holds open (idempotent): the
        router's forward connections."""
        if self.router is not None:
            self.router.close()

    def __enter__(self) -> "ACTService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
