"""The six workloads and a started system under test for each.

A *target* is the program under test brought from the artifact on disk
to the point where it answers: an in-process join engine, or a server
process plus the one connection the closed-loop client keeps to it.
``call`` sends one request and waits for its reply; ``call_traced``
does the same and also reports where the client's time went.
"""

from __future__ import annotations

import http.client
import json
import resource
import socket
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.act.core import QueryResult
from repro.errors import ServeError
from repro.serve import binproto

from . import sut
from .inputs import Request


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``join`` (in-process), ``binary``, ``http`` or ``shard``.
    kind: str
    exact: bool
    why: str


WORKLOADS = (
    Workload("join_approx_taxi", "join", False,
             "The paper's headline path: grid + act.core descent + "
             "hit_counts do all the work, geometry.edge_table and serve/ "
             "none; a serve-side change must leave it unchanged."),
    Workload("join_exact_boundary", "join", True,
             "Points at polygon vertices: candidate_pairs and packed "
             "refinement dominate and descent is the minority."),
    Workload("bin_hot_small", "binary", False,
             "100-point batches from a pool smaller than the cell cache: "
             "per-request cost of aserver, binproto framing, the cache "
             "read path and point_keys; no descent, no decode."),
    Workload("http_json_small", "http", False,
             "The same batches as bin_hot_small over JSON POST /query: "
             "isolates serve.server (JSON, thread per request, socket "
             "writes) against the binary front on identical work."),
    Workload("bin_cold_exact", "binary", True,
             "Never-repeating exact batches, working set twice the "
             "cache: cache miss+put+evict, descent, decode_entry, refine "
             "and the result codec all run on every request."),
    Workload("shard_cold_exact", "shard", True,
             "The same batches as bin_cold_exact through a 2-worker "
             "sharded fleet: adds only serve.shard routing and "
             "serve.router scatter/forward/gather; set-up pays slice_index."),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: ``(reply, wire seconds, client decode seconds, raw reply bytes)``.
Traced = Tuple[Any, float, float, Optional[bytes]]


class RequestFailed(Exception):
    """An error frame, a non-200, a shed or a dead connection."""


# ----------------------------------------------------------------------
# In-process join
# ----------------------------------------------------------------------
class JoinTarget:
    """``ACTIndex.count_points`` on a freshly loaded, prewarmed index."""

    def __init__(self, artifact: Path, workload: Workload):
        self.exact = workload.exact
        self.index = sut.load_index(artifact).prewarm()

    def call(self, request: Request) -> np.ndarray:
        return self.index.count_points(request[0], request[1],
                                       exact=self.exact)

    def call_traced(self, request: Request) -> Traced:
        start = perf_counter()
        reply = self.call(request)
        return reply, perf_counter() - start, 0.0, None

    def peak_rss_mib(self) -> float:
        """This process's own peak: the engine runs inside it."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        pass


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
class BinaryTarget:
    """A server (or sharded fleet) driven over its binary plane.

    In shard mode the client talks to slot 0's socket; slot 0 forwards
    what it does not own.
    """

    def __init__(self, artifact: Path, workload: Workload):
        self.exact = workload.exact
        self.server = sut.Server(artifact, sharded=workload.kind == "shard",
                                 tag=workload.name)
        try:
            # no reconnects: a dropped connection is a failed request
            self.client = binproto.Client(
                "127.0.0.1", self.server.binary_port, retries=0)
        except BaseException:
            self.server.stop()
            raise

    def call(self, request: Request) -> List[QueryResult]:
        try:
            return self.client.query_batch(
                sut.INDEX_NAME, request[0], request[1], exact=self.exact)
        except (ServeError, OSError) as exc:
            raise RequestFailed(str(exc)) from exc

    def call_traced(self, request: Request) -> Traced:
        start = perf_counter()
        try:
            self.client.send_query(sut.INDEX_NAME, request[0], request[1],
                                   exact=self.exact)
            op, _, payload = self.client.recv()
        except (ServeError, OSError) as exc:
            raise RequestFailed(str(exc)) from exc
        received = perf_counter()
        if op != binproto.OP_RESULTS:
            raise RequestFailed(f"unexpected op 0x{op:02x}")
        reply = binproto.decode_results(payload)
        end = perf_counter()
        return reply, end - start, end - received, payload

    def peak_rss_mib(self) -> float:
        return sut.peak_rss_mib(self.server.pids())

    def stop(self) -> None:
        self.client.close()
        self.server.stop()


def json_body(request: Request, exact: bool) -> bytes:
    """The ``POST /query`` body for one batch."""
    points = np.stack(request, axis=1).tolist()
    return json.dumps({"index": sut.INDEX_NAME, "points": points,
                       "exact": exact}).encode()


def results_from_json(payload: dict) -> List[QueryResult]:
    return [QueryResult(tuple(r["true_hits"]), tuple(r["candidates"]))
            for r in payload["results"]]


class HttpTarget:
    """The same server driven over ``POST /query``.

    A raw keep-alive socket with ``TCP_NODELAY``, each request leaving
    in one ``sendall``: the client adds no Nagle or delayed-write stall
    of its own, so whatever stall remains is the server's.
    """

    def __init__(self, artifact: Path, workload: Workload):
        self.exact = workload.exact
        self.server = sut.Server(artifact, sharded=False, tag=workload.name)
        try:
            self.sock = socket.create_connection(
                ("127.0.0.1", self.server.http_port), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.server.stop()
            raise

    def _post(self, body: bytes) -> bytes:
        head = (f"POST /query HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        try:
            self.sock.sendall(head + body)
            # one request in flight, so the reader cannot run ahead
            # into a next response
            with http.client.HTTPResponse(self.sock, method="POST") as reply:
                reply.begin()
                raw = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            raise RequestFailed(str(exc)) from exc
        if reply.status != 200:
            raise RequestFailed(f"HTTP {reply.status}")
        return raw

    def call(self, request: Request) -> List[QueryResult]:
        return self.call_traced(request)[0]

    def call_traced(self, request: Request) -> Traced:
        start = perf_counter()
        raw = self._post(json_body(request, self.exact))
        received = perf_counter()
        reply = results_from_json(json.loads(raw))
        end = perf_counter()
        return reply, end - start, end - received, raw

    def warm_cache(self, requests: Sequence[Request]) -> None:
        """Fill the cell cache over the binary plane, so that the JSON
        passes — 40 ms a request — are all hot from the first one."""
        with binproto.Client("127.0.0.1", self.server.binary_port,
                             retries=0) as client:
            for lngs, lats in requests:
                client.query_batch(sut.INDEX_NAME, lngs, lats)

    def peak_rss_mib(self) -> float:
        return sut.peak_rss_mib(self.server.pids())

    def stop(self) -> None:
        self.sock.close()
        self.server.stop()


def start_target(artifact: Path, workload: Workload):
    """Artifact on disk -> a target ready for its first request."""
    if workload.kind == "join":
        return JoinTarget(artifact, workload)
    if workload.kind == "http":
        return HttpTarget(artifact, workload)
    return BinaryTarget(artifact, workload)
