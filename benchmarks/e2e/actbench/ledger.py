"""The traced run: where a request's time goes, layer by layer.

Nothing under ``src/`` records spans yet, so the ledger is built from
outside. The wire span of each request is measured against the live
server; each layer's share is measured by calling that layer's public
functions from this process, on the same inputs, in the same order and
cache state the server sees them:

* a **mirror service** — an in-process ``ACTService`` over the same
  artifact with the same ``ServeConfig`` — replays the whole sequence,
  warm-up included, so its cell cache goes through the states the
  server's does; a call into it is the ``service`` span;
* a **child replay** does the steps of ``query_batch`` one public call
  at a time (``point_keys``, ``CellResultCache.get``,
  ``leaf_cells_batch``, ``lookup_entries``, ``decode_entry``, ``put``,
  ``refine_pairs``) against its own cache; what the ``service`` span
  does not hand to a child is the service's self time;
* the codec functions run on the real frames and bodies.

In a traced pass each request is sent over the wire and then replayed
at once, so all of one request's spans see the same few milliseconds
of this machine's mood; every span then keeps its minimum over the
traced passes, like the end-to-end numbers do. What the wire span does
not hand to a replayed span is the front's overhead.
``server.reported_latency_ratio`` compares the mirror with the latency
the live server itself reports: outside [0.8, 1.25] the mirror is not
faithful and the run says so.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.act.core import QueryResult
from repro.grid.base import INVALID_KEY
from repro.join.executor import SORT_DESCENT_MIN_BATCH
from repro.serve import (ACTService, CellResultCache, IndexRegistry,
                         ServeConfig, binproto, plan_shard_map, shard_keys,
                         slice_index)

from . import sut
from .inputs import Request, Scale
from .measure import (Prepared, Tally, checked_call, prepare, run_pass,
                      warm_up)
from .oracle import candidate_pair_arrays
from .spans import Node, SpanLog
from .targets import BY_NAME, Workload, json_body, start_target

UNTRACED_PASSES = 2
TRACED_PASSES = 2
#: Passes of a traced run that go over the wire to the server under test.
WIRE_PASSES = UNTRACED_PASSES + TRACED_PASSES
#: How far the replayed children of a span may outlast the span, summed
#: over the run, before the run fails: the replays are the same work
#: done a moment later, so they can cross by noise, not by more.
TILING_TOLERANCE = 0.10
#: ``server.reported_latency_ratio`` outside this range is reported
#: as an unfaithful mirror.
FAITHFUL_RATIO = (0.8, 1.25)

#: Spans of one request: name -> seconds.
Durations = Dict[str, float]

_NO_RESULT = QueryResult((), ())


def _timed(function: Callable[[], Any]) -> Tuple[Any, float]:
    start = perf_counter()
    out = function()
    return out, perf_counter() - start


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def _nodes(row: Durations, names: Sequence[str]) -> List[Node]:
    """Leaf nodes for the spans of ``row`` that took any time."""
    return [(name, row[name], ()) for name in names if row.get(name)]


class _Replay:
    """One request's work redone one public call at a time.

    ``replay`` returns the spans it timed; ``trees`` lays a request's
    spans (wire span included) out as span trees. ``counts`` and
    ``request_bytes`` add up over the requests replayed since
    ``reset``.
    """

    def __init__(self, prepared: Prepared):
        self.index = prepared.index
        self.exact = prepared.workload.exact
        self.reset()

    def reset(self) -> None:
        self.counts = {"unique_cells": 0, "pairs": 0, "inside": 0}
        self.request_bytes = 0

    def _refine(self, point_idx: np.ndarray, polygon_ids: np.ndarray,
                lngs: np.ndarray, lats: np.ndarray) -> float:
        inside, seconds = _timed(lambda: self.index.executor.refine_pairs(
            point_idx, polygon_ids, lngs, lats))
        self.counts["pairs"] += int(point_idx.size)
        self.counts["inside"] += int(inside.sum())
        return seconds

    def close(self) -> None:
        pass


class JoinReplay(_Replay):
    """``JoinExecutor.count_points`` one public call at a time."""

    def replay(self, k: int, request: Request, raw: Any) -> Durations:
        lngs, lats = request
        index = self.index
        core = index.core
        cells, leaf_cells = _timed(
            lambda: index.grid.leaf_cells_batch(lngs, lats))
        # the executor sorts large batches by cell before descending
        sort = cells.shape[0] >= SORT_DESCENT_MIN_BATCH
        entries, descent = _timed(
            lambda: core.lookup_entries(cells, sort_by_cell=sort))
        _, hit_counts = _timed(
            lambda: core.hit_counts(entries, index.num_polygons))
        out = {"leaf_cells": leaf_cells, "descent": descent,
               "hit_counts": hit_counts}
        if self.exact:
            (point_idx, polygon_ids), out["candidate_pairs"] = _timed(
                lambda: core.candidate_pairs(entries))
            out["refine"] = self._refine(point_idx, polygon_ids, lngs, lats)
        return out

    def trees(self, row: Durations) -> List[Node]:
        return [("request", row["request"], _nodes(row, (
            "leaf_cells", "descent", "hit_counts", "candidate_pairs",
            "refine")))]


class ServeReplay(_Replay):
    """What one server does with a request, one public call at a time:
    frame decode, the mirror service, ``query_batch``'s own steps, the
    result encode — and the client's side of the codec. Given the
    fleet's shard map it also routes the batch as slot 0 would."""

    def __init__(self, prepared: Prepared, shard_map=None):
        super().__init__(prepared)
        self.json = prepared.workload.kind == "http"
        self.shard_map = shard_map
        config = ServeConfig()
        # what `repro-act serve --index-file F --mmap` constructs
        registry = IndexRegistry()
        registry.register_path(sut.INDEX_NAME, prepared.artifact,
                               mmap_mode="r")
        self.service = ACTService(registry=registry, config=config)
        self.cache = CellResultCache(config.cache_capacity)

    def close(self) -> None:
        self.service.close()

    def replay(self, k: int, request: Request,
               raw: Optional[bytes]) -> Durations:
        lngs, lats = request
        # in the server's order — decode, service, encode — so the
        # mirror service runs on caches as warm as the server's are
        out = self._request_codec(k, request)
        # the JSON front hands the service Python lists; the binary
        # front hands it arrays that view the receive buffer
        given = (lngs.tolist(), lats.tolist()) if self.json else request
        results, out["service"] = _timed(lambda: self.service.query_batch(
            sut.INDEX_NAME, given[0], given[1], exact=self.exact))
        out["encode"] = self._encode_reply(k, results, raw)
        out.update(self._query_batch_steps(lngs, lats))
        if self.shard_map is not None:
            index = self.index
            out["route"] = _timed(lambda: self.shard_map.route(
                sut.INDEX_NAME, shard_keys(index.grid, lngs, lats,
                                           index.boundary_level)))[1]
        return out

    def _query_batch_steps(self, lngs: np.ndarray,
                           lats: np.ndarray) -> Durations:
        index = self.index
        keys, cell_key = _timed(lambda: index.grid.point_keys(
            lngs, lats, index.boundary_level))
        keys = keys.tolist()
        invalid = int(INVALID_KEY)
        valid = [k for k, key in enumerate(keys) if key != invalid]
        cache_keys = [(sut.INDEX_NAME, 1, keys[k]) for k in valid]
        get = self.cache.get
        cached, cache_probe = _timed(lambda: [get(key) for key in cache_keys])
        out = {"cell_key": cell_key, "cache_probe": cache_probe}
        results = [_NO_RESULT] * len(keys)
        first_pos: Dict[int, int] = {}
        for k, hit in zip(valid, cached):
            if hit is None:
                first_pos.setdefault(keys[k], k)
            else:
                results[k] = hit
        if first_pos:
            pos = np.asarray(list(first_pos.values()), dtype=np.int64)
            cells, out["leaf_cells"] = _timed(
                lambda: index.grid.leaf_cells_batch(lngs[pos], lats[pos]))
            entries, out["descent"] = _timed(
                lambda: index.core.lookup_entries(cells))
            decode = index.core.decode_entry
            entry_list = entries.tolist()
            decoded, out["entry_decode"] = _timed(
                lambda: [decode(entry) for entry in entry_list])
            put = self.cache.put
            new_keys = [(sut.INDEX_NAME, 1, key) for key in first_pos]

            def put_all() -> None:
                for key, result in zip(new_keys, decoded):
                    put(key, result)

            out["cache_put"] = _timed(put_all)[1]
            by_key = dict(zip(first_pos, decoded))
            for k, hit in zip(valid, cached):
                if hit is None:
                    results[k] = by_key[keys[k]]
            self.counts["unique_cells"] += len(first_pos)
        if self.exact:
            point_idx, polygon_ids = candidate_pair_arrays(results)
            if point_idx.size:
                out["refine"] = self._refine(point_idx, polygon_ids,
                                             lngs, lats)
        return out

    def _request_codec(self, k: int, request: Request) -> Durations:
        """The client's encode and the front's decode of one request."""
        if self.json:
            body, client_encode = _timed(
                lambda: json_body(request, self.exact))
            _, frame_decode = _timed(lambda: json.loads(body))
            self.request_bytes += len(body)
        else:
            frame, client_encode = _timed(
                lambda: binproto.encode_points_request(
                    binproto.OP_QUERY, sut.INDEX_NAME, request[0],
                    request[1], exact=self.exact, request_id=k + 1))
            view = memoryview(frame)

            def decode_frame():
                binproto.try_parse_header(view)
                return binproto.decode_points_request(
                    view[binproto.HEADER_SIZE:])

            _, frame_decode = _timed(decode_frame)
            self.request_bytes += len(frame)
        return {"client_encode": client_encode, "frame_decode": frame_decode}

    def _encode_reply(self, k: int, results: List[QueryResult],
                      raw: Optional[bytes]) -> float:
        """Seconds the front spends encoding the reply to one request."""
        if self.json:
            payload = json.loads(raw) if raw else {}
            return _timed(lambda: json.dumps(payload))[1]
        return _timed(lambda: binproto.encode_results(results, k + 1))[1]

    def trees(self, row: Durations) -> List[Node]:
        service: Node = ("service", row["service"], _nodes(row, (
            "cell_key", "cache_probe", "leaf_cells", "descent",
            "entry_decode", "cache_put", "refine")))
        if self.shard_map is None:
            return [("request", row["request"], [
                *_nodes(row, ("client_encode", "frame_decode")), service,
                *_nodes(row, ("encode", "client_decode"))])]
        # a fleet's two slices answer in parallel, so the mirror of the
        # whole batch is work done, not a part of the wire span: what
        # the codec and routing leave of it is slices + scatter/gather
        return [("request", row["request"], _nodes(row, (
            "client_encode", "frame_decode", "route", "client_decode"))),
            service]


# ----------------------------------------------------------------------
# Costs measured once per run
# ----------------------------------------------------------------------
def _build_and_save(scale: Scale) -> Tuple[float, float]:
    """``(ACTIndex.build seconds, save_index seconds)``, on a scratch
    copy of the artifact."""
    index, build_s = sut.build_index(scale)
    scratch = sut.WORK_DIR / "scratch-build.npz"
    try:
        save_s = sut.save_index(index, scratch)
    finally:
        scratch.unlink(missing_ok=True)
    return build_s, save_s


def _plan_and_slice(prepared: Prepared, metrics: Dict[str, float]):
    """Plan, and slice slot 0, in this process, as the fleet does at
    start (the plan balances the slots, so slot 1 costs the same 11 s
    and is left out); returns the planned shard map."""
    index = prepared.index
    shard_map, metrics["serve.shard.plan_s"] = _timed(
        lambda: plan_shard_map({sut.INDEX_NAME: index}, 2))
    sliced, metrics["serve.shard.slice_index_s"] = _timed(
        lambda: slice_index(index,
                            shard_map.ranges_for_slot(sut.INDEX_NAME, 0)))
    metrics["serve.shard.slice_bytes_share"] = (
        sliced.core.total_bytes / index.core.total_bytes)
    return shard_map


# ----------------------------------------------------------------------
# The passes
# ----------------------------------------------------------------------
def _server_counts(stats: List[dict]) -> Dict[str, float]:
    """What the serving processes have counted so far; ``shard_*`` are
    slot 0's, the slot the client talks to."""
    out = {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
    for payload in stats:
        for key in out:
            out[key] += payload["cache"][key]
    shard = stats[0].get("shard", {})
    out["shard_forwarded"] = float(shard.get("forwarded", 0))
    out["shard_local"] = float(shard.get("local", 0))
    return out


def _reported_latency(server: sut.Server) -> float:
    """Seconds of query latency ``server`` says it has served so far."""
    return sum(payload["metrics"]["histograms"][
        "queries.latency_seconds"]["sum"] for payload in server.stats())


@dataclass
class Collected:
    """Everything the passes of one traced run measured."""

    #: Seconds of each whole untraced pass.
    untraced: List[float]
    #: Per traced pass and request, the spans timed.
    traced: List[List[Durations]]
    #: Payload bytes of one pass's replies.
    reply_bytes: int = 0
    #: Spawn -> ready, CPU seconds and ``/stats`` deltas of the serving
    #: processes over the wire passes (servers only).
    start_s: float = 0.0
    cpu_s: float = 0.0
    server: Optional[Dict[str, float]] = None
    #: Latency reported by the server the mirror service mirrors, a
    #: pass: the server under test, or the unsharded reference.
    reported_pass_s: float = 0.0


def _collect(prepared: Prepared, tally: Tally, replay: _Replay) -> Collected:
    workload = prepared.workload
    target, start_s = _timed(
        lambda: start_target(prepared.artifact, workload))
    out = Collected([], [], start_s=start_s)
    # the same sequence sent to an unsharded server at the same moments
    # tells the router's share of a sharded request apart
    reference = None
    try:
        if workload.kind == "shard":
            reference = start_target(prepared.artifact,
                                     BY_NAME["bin_cold_exact"])
            run_pass(reference.call, prepared, tally)
        warm_up(target, prepared, tally)
        for k, request in enumerate(prepared.requests):
            replay.replay(k, request, None)
        server = getattr(target, "server", None)
        if server is not None:
            pids = server.pids()
            before = _server_counts(server.stats())
            cpu_before = sut.cpu_seconds(pids)
            # the mirror does a whole batch in one process, which a
            # fleet does not: there it mirrors the reference, and the
            # reference is sent the traced passes only
            if reference is None:
                mirrored, mirrored_passes = server, WIRE_PASSES
            else:
                mirrored, mirrored_passes = reference.server, TRACED_PASSES
            reported_before = _reported_latency(mirrored)
        out.untraced = [sum(run_pass(target.call, prepared, tally))
                        for _ in range(UNTRACED_PASSES)]
        for _ in range(TRACED_PASSES):
            replay.reset()
            out.reply_bytes = 0
            rows: List[Durations] = []
            for k, (request, answer) in enumerate(
                    zip(prepared.requests, prepared.expected)):
                result, elapsed = checked_call(
                    target.call_traced, workload, request, answer, tally,
                    traced=True)
                _, wire, client_decode, raw = result or (
                    None, elapsed, 0.0, None)
                row = {"request": wire, "client_decode": client_decode}
                out.reply_bytes += len(raw or b"")
                if reference is not None:
                    result, elapsed = checked_call(
                        reference.call_traced, workload, request, answer,
                        tally, traced=True)
                    row["reference"] = result[1] if result else elapsed
                row.update(replay.replay(k, request, raw))
                rows.append(row)
            out.traced.append(rows)
        if server is not None:
            out.cpu_s = sut.cpu_seconds(pids) - cpu_before
            after = _server_counts(server.stats())
            out.server = {key: after[key] - before[key] for key in after}
            out.reported_pass_s = (
                (_reported_latency(mirrored) - reported_before)
                / mirrored_passes)
    finally:
        target.stop()
        if reference is not None:
            reference.stop()
    return out


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def traced(workload: Workload, scale: Scale, seed: int, trace_path: Path,
           layer_metrics: Sequence[str]) -> Dict[str, Any]:
    """One traced run; a layer ``workload`` never enters reads 0."""
    metrics: Dict[str, float] = dict.fromkeys(layer_metrics, 0.0)
    prepared = prepare(workload, scale, seed)
    n = len(prepared.requests)
    points = float(sum(prepared.points))
    kind = workload.kind
    _, metrics["act.serialize.load_mmap_s"] = _timed(
        lambda: sut.load_index(prepared.artifact))
    metrics["act.core.total_bytes"] = float(
        prepared.index.memory_report()["total_bytes"])
    if workload.name == "join_approx_taxi":
        # the paper's Table I numbers ride on its headline workload
        (metrics["act.builder.build_s"],
         metrics["act.serialize.save_s"]) = _build_and_save(scale)
    if kind == "join":
        replay: _Replay = JoinReplay(prepared)
    elif kind == "shard":
        replay = ServeReplay(prepared, _plan_and_slice(prepared, metrics))
    else:
        replay = ServeReplay(prepared)
    tally = Tally()
    try:
        got = _collect(prepared, tally, replay)
    finally:
        replay.close()

    metrics["bench.trace_overhead_share"] = (
        (min(sum(row["request"] for row in rows) for rows in got.traced)
         - min(got.untraced)) / min(got.untraced))
    names = {name for rows in got.traced for row in rows for name in row}
    # per request and span, the minimum over the traced passes
    spans: List[Durations] = [
        {name: min(rows[k].get(name, 0.0) for rows in got.traced)
         for name in names}
        for k in range(n)
    ]
    total = {name: sum(row[name] for row in spans) for name in names}

    log = SpanLog()
    cursor = 0.0
    for k, row in enumerate(spans):
        for tree in replay.trees(row):
            log.lay_out(k, tree, cursor)
            cursor += tree[1]
    log.check_tiling(TILING_TOLERANCE)
    self_time = log.self_time_by_name()

    ns_per_point = _per_point(total, points)
    metrics["grid.leaf_cells_ns_per_point"] = ns_per_point("leaf_cells")
    metrics["act.core.descent_ns_per_point"] = ns_per_point("descent")
    counts = replay.counts
    if counts["pairs"]:
        metrics["act.core.candidate_pairs_per_point"] = (
            counts["pairs"] / points)
        metrics["geometry.edge_table.refine_ns_per_pair"] = (
            total["refine"] / counts["pairs"] * 1e9)
        metrics["geometry.edge_table.inside_share"] = (
            counts["inside"] / counts["pairs"])
    if kind == "join":
        metrics["act.core.hit_counts_ns_per_point"] = ns_per_point(
            "hit_counts")
        metrics["act.core.candidate_pairs_ns_per_point"] = ns_per_point(
            "candidate_pairs")
        metrics["join.executor.count_points_ns_per_point"] = ns_per_point(
            "request")
        metrics["join.executor.self_ns_per_point"] = (
            self_time["request"] / points * 1e9)
    else:
        _serve_metrics(metrics, kind, got, replay, total, self_time,
                       points, n)

    low, high = FAITHFUL_RATIO
    ratio = metrics["server.reported_latency_ratio"]
    faithful = kind == "join" or low <= ratio <= high
    if not faithful:
        print(f"warning: the mirror service took {ratio:.2f}x the latency "
              f"the live server reports (faithful range {low}-{high}); "
              f"serve.service.* and the front overheads of this run "
              f"describe the mirror, not the server", file=sys.stderr)
    sut.WORK_DIR.mkdir(parents=True, exist_ok=True)
    log.dump(trace_path, {
        "workload": workload.name, "seed": seed,
        "untraced_passes": UNTRACED_PASSES, "traced_passes": TRACED_PASSES,
        "clock": "seconds; requests laid end to end; the children of a "
                 "span are replays placed in pipeline order inside it",
    })
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "passes": WIRE_PASSES,
        "samples": n,
        "mirror_faithful": faithful,
        "overflowing_share": len(log.overflows()) / len(log.spans),
        "trace_file": str(trace_path),
    }


def _per_point(total: Durations, points: float) -> Callable[[str], float]:
    """``name -> ns per point`` of the span ``name`` summed over a run."""
    return lambda name: total.get(name, 0.0) / points * 1e9


def _serve_metrics(metrics: Dict[str, float], kind: str, got: Collected,
                   replay: _Replay, total: Durations, self_time: Durations,
                   points: float, n: int) -> None:
    """The ledger rows only a served workload has."""
    ns_per_point = _per_point(total, points)
    delta = got.server
    metrics["serve.fleet.start_s"] = got.start_s
    metrics["serve.fleet.cpu_us_per_point"] = (
        got.cpu_s / (points * WIRE_PASSES) * 1e6)
    probes = delta["hits"] + delta["misses"]
    metrics["serve.cache.hit_share"] = (
        delta["hits"] / probes if probes else 0.0)
    metrics["serve.cache.evictions_per_point"] = (
        delta["evictions"] / (points * WIRE_PASSES))
    # like with like: the mirror's mean pass against the server's
    metrics["server.reported_latency_ratio"] = (
        sum(row["service"] for rows in got.traced for row in rows)
        / TRACED_PASSES / got.reported_pass_s)
    metrics["grid.point_keys_ns_per_point"] = ns_per_point("cell_key")
    metrics["serve.cache.probe_ns_per_point"] = ns_per_point("cache_probe")
    metrics["serve.cache.put_ns_per_point"] = ns_per_point("cache_put")
    cells = replay.counts["unique_cells"]
    if cells:
        metrics["act.core.decode_entry_ns_per_cell"] = (
            total["entry_decode"] / cells * 1e9)
    metrics["act.core.unique_cells_per_point"] = cells / points
    metrics["serve.service.query_batch_ns_per_point"] = ns_per_point(
        "service")
    metrics["serve.service.self_ns_per_point"] = (
        self_time["service"] / points * 1e9)
    front_us = self_time["request"] / n * 1e6
    if kind == "http":
        metrics["serve.server.json_parse_ns_per_point"] = ns_per_point(
            "frame_decode")
        metrics["serve.server.json_dump_ns_per_point"] = ns_per_point(
            "encode")
        metrics["serve.server.reply_bytes_per_point"] = (
            got.reply_bytes / points)
        metrics["serve.server.front_overhead_us_per_req"] = front_us
        return
    for name, key in (("client_encode", "encode_request"),
                      ("frame_decode", "decode_request"),
                      ("encode", "encode_results"),
                      ("client_decode", "decode_results")):
        metrics[f"serve.binproto.{key}_ns_per_point"] = ns_per_point(name)
    metrics["serve.binproto.request_bytes_per_point"] = (
        replay.request_bytes / points)
    # a reply frame is its header plus the payload recv() returns
    metrics["serve.binproto.reply_bytes_per_point"] = (
        (got.reply_bytes + binproto.HEADER_SIZE * n) / points)
    if kind == "binary":
        metrics["serve.aserver.front_overhead_us_per_req"] = front_us
        return
    # sharded: unsharded wire span = replayed spans + the binary front;
    # sharded wire span = unsharded + the router (negative when the
    # parallel slices save more than routing, forwarding and gathering
    # cost)
    replayed = sum(total[name] for name in (
        "client_encode", "frame_decode", "service", "encode",
        "client_decode"))
    metrics["serve.aserver.front_overhead_us_per_req"] = (
        (total["reference"] - replayed) / n * 1e6)
    metrics["serve.shard.route_ns_per_point"] = ns_per_point("route")
    metrics["serve.router.overhead_us_per_req"] = (
        (total["request"] - total["reference"]) / n * 1e6)
    routed = delta["shard_forwarded"] + delta["shard_local"]
    metrics["serve.router.forwarded_share"] = (
        delta["shard_forwarded"] / routed if routed else 0.0)
