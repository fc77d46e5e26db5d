"""The query service's one server: :class:`ACTServer` accepts on every
listening socket it is handed (the HTTP address, ``--binary-port``, a
shard slot's socket) through one accept loop, and serves each
connection on its own thread in the protocol its first bytes name:
binary frames (:mod:`repro.serve.aserver`) or a small JSON API over
HTTP, so the service is drivable with ``curl`` (no web framework in the
reproduction environment):

* ``GET  /healthz`` — liveness plus registered index names;
* ``GET  /readyz`` — readiness: 200 only when every registered index is
  materialized and the last lifecycle operation converged (503
  otherwise, so load balancers gate on the status code);
* ``GET  /query?index=NAME&lng=X&lat=Y[&exact=1][&budget_ms=N]`` —
  one point lookup through the cell cache, a scalar descent on a miss;
* ``POST /query`` — body ``{"index": NAME, "points": [[lng, lat], ...],
  "exact": false}`` — classified lookups for a whole batch, answered by
  one vectorized descent so network clients amortize the same way
  in-process callers do;
* ``POST /join`` — body ``{"index": NAME, "points": [[lng, lat], ...],
  "exact": false}`` — bulk count-per-polygon aggregation;
* ``GET  /stats`` — metrics snapshot (qps counters, latency percentiles,
  cache hit rate, index inventory);
* ``GET  /metrics`` — Prometheus text exposition (counters, gauges, and
  cumulative histogram buckets; per-index / per-generation labels; the
  fleet-wide bucket-merged aggregate when a fleet is attached).

Every response carries an ``X-Request-Id`` header — minted at admission,
or echoing the client's own ``X-Request-Id`` when supplied — and error
payloads repeat it alongside this worker's pid, so a failure seen by a
client is attributable to one request in one process. ``?trace=1`` (or
an ``X-Trace: 1`` header, or ``"trace": true`` in a POST body) forces a
per-stage latency breakdown onto the response under ``"trace"``.

The **admin surface** is authenticated by loopback — requests from any
non-loopback peer get 403 regardless of the bind address. Every server
runs it through one :class:`~repro.serve.lifecycle.FleetLifecycle`: a
fleet worker's, or — a single process being a fleet of one — one over
a private state directory the server writes at start and removes in
:meth:`ACTServer.server_close`:

* ``GET    /admin/indexes`` — inventory with name / generation / source
  / bytes / mmap mode (plus the answering pid+worker, so operators can
  watch a rollout land on each fleet worker);
* ``POST   /admin/register`` — body ``{"name": NAME, "path":
  "idx.npz"}`` — publish a serialized index as a new name;
* ``POST   /admin/reload`` — body ``{"name": NAME[, "path": "new.npz"]}``
  — publish a fresh generation and swap it in with zero downtime; the
  response returns once every worker maps it;
* ``DELETE /admin/index/NAME`` — retire an index;
* ``GET    /admin/slowlog`` — the worker's slow-query ring (full
  per-stage traces for sampled requests, bare envelopes otherwise);
* ``GET/POST /admin/chaos`` — inspect / re-arm this process's fault
  injection (see :mod:`repro.serve.chaos`); ``{"spec": ""}`` disarms;
* ``GET    /admin/shards`` — this worker's shard view (slot, map
  generation, resident node-pool bytes, forward/local/shed counters)
  when the fleet runs sharded (404 otherwise).

A failure answers with the status its exception carries
(:data:`repro.errors.ERROR_TABLE`): 400 malformed, 403 admin off
loopback, 404 unknown index or route, 409 conflicting admin request
(duplicate register, fleet lock held), 413 a ``Content-Length`` over
the binary plane's 64 MiB frame limit (body unread, connection
closed), 503 shed, 500 anything else — so load balancers and clients
can react without parsing bodies. Every error body is ``{"error",
"request_id", "pid"}``; the stdlib's own refusals (501, 414, 431, …)
are the same JSON payload, never an HTML page. A response leaves in
one write on a ``TCP_NODELAY`` socket (no delayed-ACK wait).
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import select
import selectors
import shutil
import socket
import socketserver
import tempfile
import threading
from contextlib import ExitStack
from http.server import BaseHTTPRequestHandler
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from ..errors import (
    BudgetExceededError,
    ForbiddenError,
    FrameError,
    InvalidRequestError,
    NotFoundError,
    PayloadTooLargeError,
    ServeError,
    wire_error,
)
from ..obs import Trace, mint_request_id
from . import chaos, lifecycle
from .aserver import BinaryHandler
from .binproto import MAX_FRAME_BYTES
from .budget import Budget
from .lifecycle import FleetLifecycle, fleet_of_one
from .service import ACTService

#: Client-supplied request ids longer than this are replaced (they are
#: echoed into headers and logs; unbounded input does not belong there).
_MAX_REQUEST_ID = 128
#: ``DELETE /admin/index/NAME`` retires NAME.
_INDEX_ROUTE = "/admin/index/"


def is_loopback(ip: str) -> bool:
    """True for addresses that can only originate on this machine."""
    return (ip.startswith("127.") or ip == "::1"
            or ip.startswith("::ffff:127."))


def _param_flag(params: dict, key: str) -> bool:
    """A query-string flag: anything but ``0``, ``false`` or empty."""
    return params.get(key, ["0"])[0] not in ("0", "false", "")


def _body_flag(body: dict, key: str) -> bool:
    """A POST body flag, which must be a JSON boolean (``"false"`` is a
    string, and a string is not a flag)."""
    value = body.get(key, False)
    if not isinstance(value, bool):
        raise InvalidRequestError(
            f"{key} must be a JSON boolean, got {value!r}")
    return value


class ACTRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the attached :class:`ACTService`.

    A route handler answers success itself and raises on failure;
    :meth:`_route` is the one place that turns a failure into a status.
    """

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on every connection

    @property
    def service(self) -> ACTService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.rfile = self.server.reader(self)  # type: ignore[attr-defined]

    def handle(self) -> None:
        """The stdlib's keep-alive loop, with the drain's rule: a
        connection parked between requests closes, a request whose
        first byte has arrived is answered."""
        self.close_connection = False
        while not self.close_connection and self.rfile.next_message():
            self.handle_one_request()

    # ------------------------------------------------------------------
    # Request identity / tracing
    # ------------------------------------------------------------------
    def _assign_request_id(self) -> str:
        """This request's id: the client's ``X-Request-Id`` when sane,
        a freshly minted one otherwise. Echoed on every response."""
        supplied = (self.headers.get("X-Request-Id") or "").strip()
        if supplied and len(supplied) <= _MAX_REQUEST_ID \
                and supplied.isprintable():
            self.request_id = supplied
        else:
            self.request_id = mint_request_id()
        return self.request_id

    def _forced_trace(self, wanted: bool, kind: str) -> Optional[Trace]:
        """A forced :class:`Trace` when the client asked for one
        (``wanted`` — ``?trace=1`` or ``"trace": true`` in a POST body —
        or an ``X-Trace: 1`` header), else ``None`` (the service then
        applies sampling)."""
        if not wanted and (self.headers.get("X-Trace") or "") in ("", "0"):
            return None
        return self.service.tracer.sample(
            request_id=self.request_id, kind=kind, force=True)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._route(self._GET.get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._route(self._POST.get)

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
        self._route(lambda path: ACTRequestHandler._delete_index
                    if path.startswith(_INDEX_ROUTE)
                    and len(path) > len(_INDEX_ROUTE) else None)

    def _route(self, find: Callable[[str], Optional[Callable]]) -> None:
        """Run the handler ``find`` names for this path. The only place
        a status is picked for a failure: the one its exception carries
        (:func:`repro.errors.wire_error`); a fatal
        :class:`~repro.errors.FrameError` also closes the connection."""
        parsed = urlparse(self.path)
        self._assign_request_id()
        try:
            handler = find(parsed.path)
            if handler is None:
                raise NotFoundError(f"no route {parsed.path!r}")
            if parsed.path.startswith("/admin/"):
                self._require_loopback()
            handler(self, parsed)
        except Exception as exc:
            status, message = wire_error(exc)
            payload = self._error_payload(message)
            if isinstance(exc, BudgetExceededError):
                payload["shed"] = True
            self._send(status, payload, close=getattr(exc, "fatal", False))

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _healthz(self, parsed) -> None:
        payload = {"status": "ok", "indexes": self.service.registry.names(),
                   "pid": os.getpid()}
        worker_id = getattr(self.server, "worker_id", None)
        if worker_id is not None:
            payload["worker"] = worker_id
        self._send(200, payload)

    def _stats(self, parsed) -> None:
        payload = self.service.stats()
        extra = getattr(self.server, "stats_extra", None)
        if extra is not None:
            # fleet workers contribute an aggregated cross-worker view
            # (see repro.serve.fleet) on top of their own; the hook
            # receives this worker's snapshot so it is not recomputed
            # for the aggregate
            payload["fleet"] = extra(payload)
        self._send(200, payload)

    def _handle_query(self, parsed) -> None:
        params = parse_qs(parsed.query)
        try:
            index_name = params["index"][0]
            lng = float(params["lng"][0])
            lat = float(params["lat"][0])
        except (KeyError, ValueError, IndexError):
            raise InvalidRequestError(
                "need index=NAME&lng=FLOAT&lat=FLOAT") from None
        if not (math.isfinite(lng) and math.isfinite(lat)):
            # the answer would echo them, and NaN/inf are not JSON
            raise InvalidRequestError(
                f"lng and lat must be finite, got {lng!r}, {lat!r}")
        exact = _param_flag(params, "exact")
        budget = self._parse_budget(params.get("budget_ms", [None])[0])
        trace = self._forced_trace(_param_flag(params, "trace"), "query")
        result = self.service.query(index_name, lng, lat, exact=exact,
                                    budget=budget, trace=trace,
                                    request_id=self.request_id)
        payload = {
            "index": index_name, "lng": lng, "lat": lat, "exact": exact,
            "true_hits": list(result.true_hits),
            "candidates": list(result.candidates),
            "polygon_ids": list(result.all_ids), "is_hit": result.is_hit,
            "request_id": self.request_id,
        }
        self._send_traced(payload, trace)

    def _handle_query_batch(self, parsed) -> None:
        index_name, lngs, lats, exact, budget, trace = \
            self._parse_points_body("query_batch")
        results = self.service.query_batch(
            index_name, lngs, lats, exact=exact, budget=budget,
            trace=trace, request_id=self.request_id)
        # rows straight off the batch's columns: one tolist() per
        # column, then slices — no QueryResult per point
        true_ids = results.true_ids.tolist()
        cand_ids = results.cand_ids.tolist()
        true_end = list(accumulate(results.true_counts.tolist()))
        cand_end = list(accumulate(results.cand_counts.tolist()))
        payload = {
            "index": index_name, "num_points": len(lngs), "exact": exact,
            "request_id": self.request_id,
            "results": [
                {
                    "true_hits": true_ids[t_at:t_end],
                    "candidates": cand_ids[c_at:c_end],
                    "polygon_ids": (true_ids[t_at:t_end]
                                    + cand_ids[c_at:c_end]),
                    "is_hit": t_end > t_at or c_end > c_at,
                }
                for t_at, t_end, c_at, c_end in zip(
                    [0] + true_end, true_end, [0] + cand_end, cand_end)
            ],
        }
        self._send_traced(payload, trace)

    def _handle_join(self, parsed) -> None:
        index_name, lngs, lats, exact, budget, trace = \
            self._parse_points_body("join")
        counts = self.service.join(index_name, lngs, lats, exact=exact,
                                   budget=budget, trace=trace,
                                   request_id=self.request_id)
        nonzero = counts.nonzero()[0]
        payload = {
            "index": index_name, "num_points": len(lngs), "exact": exact,
            "counts": dict(zip(nonzero.tolist(), counts[nonzero].tolist())),
            "request_id": self.request_id,
        }
        self._send_traced(payload, trace)

    def _handle_metrics(self, parsed) -> None:
        """``GET /metrics``: Prometheus text exposition.

        When a fleet is attached, the worker's hook supplies the
        aggregated (bucket-merged) cross-worker view so any single
        scrape sees fleet-wide quantiles.
        """
        extra = getattr(self.server, "metrics_extra", None)
        fleet_view = extra() if extra is not None else None
        text = self.service.prometheus_text(
            fleet_view=fleet_view,
            worker_id=getattr(self.server, "worker_id", None),
        )
        self._respond(200, text.encode("utf-8"),
                      "text/plain; version=0.0.4; charset=utf-8")

    def _handle_readyz(self, parsed) -> None:
        """``GET /readyz``: readiness, as distinct from liveness.

        Ready means every registered index is materialized (no request
        will pay — or fail — a cold load) *and* the last lifecycle
        operation this process saw converged (a reload that ended in a
        NACK without a clean rollback leaves the process not-ready
        until the next successful operation). Not-ready answers 503 so
        load balancers and the fleet smoke can gate on the status code
        alone.
        """
        names = self.service.registry.names()
        indexes = {name: self.service.registry.is_materialized(name)
                   for name in names}
        lifecycle_state = self.server.lifecycle.status()
        ready = all(indexes.values()) and lifecycle_state["converged"]
        payload = {"ready": ready, "indexes": indexes, "pid": os.getpid()}
        payload.update(lifecycle_state)
        worker_id = getattr(self.server, "worker_id", None)
        if worker_id is not None:
            payload["worker"] = worker_id
        self._send(200 if ready else 503, payload)

    # ------------------------------------------------------------------
    # Admin surface (loopback only: see _route)
    # ------------------------------------------------------------------
    def _require_loopback(self) -> None:
        """Loopback authentication for the admin surface.

        The server may legitimately bind a routable address for query
        traffic; lifecycle mutations still require the caller to be on
        this machine.
        """
        ip = self.client_address[0] if self.client_address else ""
        if not is_loopback(ip):
            raise ForbiddenError("admin endpoints are loopback-only")

    def _admin_indexes(self, parsed) -> None:
        self._send(200, {
            "indexes": self.service.admin_indexes(),
            "pid": os.getpid(),
            "worker": getattr(self.server, "worker_id", None),
        })

    def _admin_slowlog(self, parsed) -> None:
        self._send(200, {
            "slow_queries": self.service.slowlog.entries(),
            "stats": self.service.slowlog.stats(),
            "pid": os.getpid(),
            "worker": getattr(self.server, "worker_id", None),
        })

    def _admin_shards(self, parsed) -> None:
        shard = self.service.shard_info()
        if shard is None:
            raise NotFoundError("this worker is not sharded "
                                "(start the fleet with --shards)")
        self._send(200, {
            "shard": shard,
            "pid": os.getpid(),
            "worker": getattr(self.server, "worker_id", None),
        })

    def _get_chaos(self, parsed) -> None:
        self._send(200, {
            "spec": chaos.spec(),
            "active": chaos.is_active(),
            "pid": os.getpid(),
        })

    def _post_chaos(self, parsed) -> None:
        """``POST /admin/chaos``: (re-)arm this process's fault
        injection from ``{"spec": "..."}``; an empty spec disarms."""
        spec = self._read_json_body().get("spec", "")
        if not isinstance(spec, str):
            raise InvalidRequestError("chaos spec must be a string")
        chaos.configure(spec)
        self.service.metrics.counter("admin.requests").inc()
        self._get_chaos(parsed)

    def _register(self, parsed) -> None:
        self._admin(lifecycle.OP_REGISTER, self._read_json_body())

    def _reload(self, parsed) -> None:
        self._admin(lifecycle.OP_RELOAD, self._read_json_body())

    def _delete_index(self, parsed) -> None:
        self._admin(lifecycle.OP_UNREGISTER,
                    {"name": unquote(parsed.path[len(_INDEX_ROUTE):])})

    def _admin(self, op_kind: str, request: dict) -> None:
        """Run one admin request through the server's lifecycle: it
        returns once every worker of the fleet — of one, in a single
        process — maps the result."""
        request["op"] = op_kind
        self.service.metrics.counter("admin.requests").inc()
        try:
            result = self.server.lifecycle.submit(request)
        except ServeError:
            raise
        except Exception as exc:  # an operator's file that fails to load
            raise InvalidRequestError(
                f"{type(exc).__name__}: {exc}") from exc
        self._send(200, result)

    _GET = {
        "/healthz": _healthz, "/readyz": _handle_readyz, "/stats": _stats,
        "/metrics": _handle_metrics, "/query": _handle_query,
        "/admin/indexes": _admin_indexes, "/admin/chaos": _get_chaos,
        "/admin/slowlog": _admin_slowlog, "/admin/shards": _admin_shards,
    }
    _POST = {
        "/join": _handle_join, "/query": _handle_query_batch,
        "/admin/register": _register, "/admin/reload": _reload,
        "/admin/chaos": _post_chaos,
    }

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _parse_points_body(self, kind: str):
        """``(index_name, lngs, lats, exact, budget, trace)`` from a
        batch endpoint's body."""
        body = self._read_json_body()
        index_name = body.get("index")
        points = body.get("points")
        if not isinstance(index_name, str) or not isinstance(points, list):
            raise InvalidRequestError(
                'need {"index": NAME, "points": [[lng, lat], ...]}')
        try:
            lngs = [float(p[0]) for p in points]
            lats = [float(p[1]) for p in points]
        except (TypeError, ValueError, IndexError):
            raise InvalidRequestError(
                "points must be [lng, lat] pairs") from None
        exact = _body_flag(body, "exact")
        budget = self._parse_budget(body.get("budget_ms"))
        trace = self._forced_trace(_body_flag(body, "trace"), kind)
        return index_name, lngs, lats, exact, budget, trace

    def _parse_budget(self, raw) -> Optional[Budget]:
        """``None`` -> no budget; malformed values raise
        :class:`~repro.errors.InvalidRequestError` (HTTP 400)."""
        if raw is None:
            return None
        try:
            return Budget.from_ms(float(raw))
        except (TypeError, ValueError):
            raise InvalidRequestError(
                f"budget_ms must be a number, got {raw!r}") from None

    def _read_json_body(self) -> dict:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # the body cannot be located on the stream, so a keep-alive
            # connection would misparse it as the next request (or block
            # reading to EOF on a negative length)
            raise FrameError(f"malformed Content-Length: {raw_length!r}",
                             fatal=True)
        if length > MAX_FRAME_BYTES:
            # reading it would park this thread on a body that never
            # comes, or allocate it all first; the unread bytes would
            # then be misparsed as the next request
            raise PayloadTooLargeError(
                f"Content-Length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte body limit", fatal=True)
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            raise InvalidRequestError("body must be JSON") from None
        if not isinstance(body, dict):
            raise InvalidRequestError("body must be a JSON object")
        return body

    def _error_payload(self, message: str) -> dict:
        """Error body carrying the request id and the answering pid, so
        a fleet-mode failure is attributable to one request in one
        worker process."""
        return {
            "error": message,
            "request_id": getattr(self, "request_id", None),
            "pid": os.getpid(),
        }

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """The stdlib's own refusals (unknown method, oversized request
        line or headers, bad request line) as the front's JSON error
        payload under a fresh request id, closing the connection. A
        version-less (HTTP/0.9) request line keeps the stdlib's answer:
        it has no status line or headers to carry either."""
        if self.request_version == "HTTP/0.9":
            super().send_error(code, message, explain)
            return
        # minted, not echoed: the headers may be unparsed, or left over
        # from the previous request on this connection
        self.request_id = mint_request_id()
        reason = message or self.responses.get(code, ("",))[0]
        self._send(code, self._error_payload(reason), close=True)

    def _send_traced(self, payload: dict, trace: Optional[Trace]) -> None:
        """200 with ``payload``, plus the request's trace when forced."""
        if trace is not None:
            trace.stamp("serialize")
            payload["trace"] = trace.to_dict()
        self._send(200, payload)

    def _send(self, status: int, payload: dict, close: bool = False) -> None:
        self._respond(status, json.dumps(payload).encode("utf-8"),
                      "application/json", close=close)

    def _respond(self, status: int, body: bytes, content_type: str,
                 close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:  # send_header also ends the request loop's keep-alive
            self.send_header("Connection", "close")
        request_id = getattr(self, "request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)  # no status line or headers to join
            return
        # end_headers would write the buffered status line and headers
        # alone; the blank line and the body join them: one write
        self._headers_buffer += (b"\r\n", body)
        self.flush_headers()

    def log_message(self, format: str, *args) -> None:
        """Route per-request lines to metrics instead of stderr noise."""
        try:
            self.service.metrics.counter("http.requests").inc()
        except Exception:
            pass


#: The first five bytes of an HTTP request: a method token and a space,
#: or five letters of a longer method. A binary frame opens ``ACTB``
#: and a version byte, so it never matches.
_HTTP_HEAD = re.compile(rb"[A-Z]{1,4} |[A-Z]{5}")
#: Listen backlog per socket; generous because a crashed fleet worker's
#: queue buffers connections until the supervisor respawns it.
_BACKLOG = 128


def _waiter(sock: socket.socket, wake: socket.socket) -> Callable[[], bool]:
    """A wait for ``sock``'s next byte or the drain's wake-up, whichever
    comes first; it returns whether the byte is there."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    poller.register(wake, select.POLLIN)
    fd = sock.fileno()
    return lambda: any(ready == fd for ready, _ in poller.poll())


class _SocketReads(socket.SocketIO):
    """A connection's raw reads. Between messages (``between``), a read
    also wakes for the drain, and with no byte of a next message there
    it reads as end of stream; inside a message it blocks as usual, so
    a message whose first byte has arrived is read in full."""

    between = False

    def __init__(self, sock: socket.socket, wake: socket.socket):
        super().__init__(sock, "rb")
        self._arrived = _waiter(sock, wake)

    def readinto(self, buf) -> Optional[int]:
        if self.between and not self._arrived():
            return 0
        return super().readinto(buf)


class _Reader(io.BufferedReader):
    """A connection's buffered reads, over :class:`_SocketReads`."""

    raw: _SocketReads

    def next_message(self) -> bool:
        """Wait for the first byte of the next message; ``False`` when
        the peer closed, or the drain found this connection parked."""
        self.raw.between = True
        try:
            return bool(self.peek(1))
        finally:
            self.raw.between = False


class ACTServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """The one server over an :class:`ACTService`: one accept loop over
    every listening socket it is handed, a thread per connection, and
    both protocols on every socket. A connection's first five bytes,
    peeked before any is consumed, pick its handler for good: an HTTP
    request line runs ``RequestHandlerClass`` (:class:`ACTRequestHandler`),
    anything else :class:`~repro.serve.aserver.BinaryHandler`.

    One drain — :meth:`shutdown`, then :meth:`server_close` — stops
    accepting, closes at once every connection parked before its next
    request or frame, reads in full and answers every request or frame
    whose first byte has arrived, and joins every connection's thread.
    """

    #: Fleet workers set these (see :mod:`repro.serve.fleet`): a
    #: callable — given this worker's freshly computed stats payload —
    #: whose dict is attached to ``/stats`` as the fleet-wide aggregate.
    stats_extra: Optional[Callable[[dict], dict]] = None
    #: Zero-arg callable returning the fleet's aggregated (bucket-
    #: merged) view for ``/metrics``; ``None`` exposes this process's
    #: families only.
    metrics_extra: Optional[Callable[[], dict]] = None

    def __init__(self, service: ACTService,
                 sockets: Sequence[socket.socket],
                 worker_id: Optional[int] = None,
                 lifecycle: Optional[FleetLifecycle] = None):
        """Serve on ``sockets``, bound and listening (see :func:`listen`;
        a fleet's arrive through ``fork``). ``worker_id`` is the fleet
        slot ``/healthz`` reports; ``lifecycle`` runs the admin surface
        and ``/readyz`` (a fleet worker's, or, by default, a fleet of
        one over a state directory this server owns)."""
        self._state_dir = None
        if lifecycle is None:
            self._state_dir = tempfile.mkdtemp(prefix="repro-serve-")
            try:
                lifecycle = fleet_of_one(service, self._state_dir)
            except BaseException:
                shutil.rmtree(self._state_dir, ignore_errors=True)
                raise
        self.lifecycle = lifecycle
        # not TCPServer's __init__: it would bind a socket of its own
        socketserver.BaseServer.__init__(
            self, sockets[0].getsockname()[:2], ACTRequestHandler)
        self.sockets = list(sockets)
        self.socket = self.sockets[0]
        self.service = service
        self.worker_id = worker_id
        # readable from the drain's start on: it wakes the accept loop
        # and every connection parked between messages
        self._wake, self._waker = socket.socketpair()
        self._draining = False
        self._stopped = threading.Event()
        self._stopped.set()
        # every family exists as soon as the server does, not on the
        # first request (RL004), so /stats and /metrics show them at boot
        metrics = service.metrics
        metrics.register(counters=("http.requests", "admin.requests"))
        self.c_connections = metrics.counter("binary.connections")
        self.c_frames = metrics.counter("binary.frames")
        self.c_requests = metrics.counter("binary.requests")
        self.c_errors = metrics.counter("binary.errors")
        self.c_bytes_in = metrics.counter("binary.bytes_in")
        self.c_bytes_out = metrics.counter("binary.bytes_out")
        self.h_request_seconds = metrics.histogram("binary.request_seconds")

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """``(host, port)`` of every listening socket, in order."""
        return [sock.getsockname()[:2] for sock in self.sockets]

    def serve_forever(self) -> None:
        """Accept on every listening socket until :meth:`shutdown`."""
        if self._wake.fileno() < 0:
            raise ServeError("this server was drained (servers are "
                             "single-use)")
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                for sock in [self._wake] + self.sockets:
                    selector.register(sock, selectors.EVENT_READ)
                while not self._draining:
                    for key, _ in selector.select():
                        if key.fileobj is not self._wake:
                            self._accept(key.fileobj)
        finally:
            self._stopped.set()

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn, address = listener.accept()
        except OSError:
            return  # a sibling worker won the race for a shared socket
        conn.setblocking(True)  # handlers block; listeners do not
        try:
            self.process_request(conn, address)  # its thread
        except Exception:
            self.handle_error(conn, address)
            self.shutdown_request(conn)

    def shutdown(self) -> None:
        """Start the drain: stop accepting and close the connections
        parked between messages. Returns once the accept loop has
        stopped; :meth:`server_close` finishes the drain."""
        if not self._draining:
            self._draining = True
            self._waker.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        """Finish the drain: answer every request or frame whose first
        byte has arrived, join every connection's thread, close the
        listening sockets and remove the state directory this server
        owns (idempotent)."""
        self.shutdown()
        for sock in self.sockets:
            sock.close()
        super().server_close()  # joins the connection threads
        self._wake.close()
        self._waker.close()
        if self._state_dir is not None:
            shutil.rmtree(self._state_dir, ignore_errors=True)

    def finish_request(self, request, client_address) -> None:
        """Serve one connection in the protocol its first bytes name."""
        try:
            head = (request.recv(5, socket.MSG_PEEK | socket.MSG_WAITALL)
                    if _waiter(request, self._wake)() else b"")
        except OSError:
            return  # reset before a byte was read: nothing is owed
        if head:
            handler = (self.RequestHandlerClass if _HTTP_HEAD.match(head)
                       else BinaryHandler)
            handler(request, client_address, self)

    def reader(self, handler: socketserver.StreamRequestHandler) -> _Reader:
        """``handler``'s ``rfile``, replaced by one whose wait for the
        next message also wakes for the drain."""
        handler.rfile.close()
        return _Reader(_SocketReads(handler.connection, self._wake),
                       max(handler.rbufsize, io.DEFAULT_BUFFER_SIZE))


def listen(host: str, port: int, reuseport: bool = False) -> socket.socket:
    """A listening socket on ``(host, port)`` (``port=0`` picks a free
    one), in a fleet's ``SO_REUSEPORT`` group when ``reuseport``.
    Non-blocking, so a raced ``accept`` on a socket shared by workers
    fails fast instead of wedging one of them."""
    sock = socket.create_server((host, port), backlog=_BACKLOG,
                                reuse_port=reuseport)
    sock.setblocking(False)
    return sock


def create_server(service: ACTService, host: str = "127.0.0.1",
                  port: int = 8080,
                  binary_port: Optional[int] = None) -> ACTServer:
    """A single process's :class:`ACTServer` — a fleet of one — on
    ``(host, port)`` and, given a ``binary_port``, on that address too
    (both speak both protocols); port 0 picks a free port (read them
    back from ``addresses``)."""
    ports = [port] if binary_port is None else [port, binary_port]
    with ExitStack() as bound:
        sockets = [bound.enter_context(listen(host, p)) for p in ports]
        server = ACTServer(service, sockets)
        bound.pop_all()
    return server
