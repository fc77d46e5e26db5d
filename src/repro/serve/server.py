"""Stdlib HTTP front end for the query service.

A :class:`~http.server.ThreadingHTTPServer` speaking a small JSON API so
the service is drivable with ``curl`` (no web framework in the
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

The **admin surface** (index lifecycle; see :mod:`repro.serve.
lifecycle`) is authenticated by loopback — requests from any
non-loopback peer get 403 regardless of the bind address:

* ``GET    /admin/indexes`` — inventory with name / generation / source
  / bytes / mmap mode (plus the answering pid+worker, so operators can
  watch a rollout land on each fleet worker);
* ``POST   /admin/register`` — body ``{"name": NAME, "path":
  "idx.npz"[, "mmap_mode": "r"]}`` — register + materialize a
  serialized index;
* ``POST   /admin/reload`` — body ``{"name": NAME[, "path": "new.npz"]
  [, "mmap_mode": "r"]}`` — materialize a fresh generation and swap it
  in with zero downtime (fleet-wide when a fleet is running: the
  response returns after every worker acked);
* ``DELETE /admin/index/NAME`` — retire an index;
* ``GET    /admin/slowlog`` — the worker's slow-query ring (full
  per-stage traces for sampled requests, bare envelopes otherwise);
* ``GET/POST /admin/chaos`` — inspect / re-arm this process's fault
  injection (see :mod:`repro.serve.chaos`); ``{"spec": ""}`` disarms;
* ``GET    /admin/shards`` — this worker's shard view (slot, map
  generation, resident node-pool bytes, forward/local/shed counters)
  when the fleet runs sharded (404 otherwise).

Budget overruns surface as HTTP 503 (shed), unknown indexes as 404,
malformed requests as 400, conflicting admin requests (duplicate
register) as 409, and a ``Content-Length`` over the binary plane's
64 MiB frame limit as 413 (body unread, connection closed) — so load
balancers and clients can react without parsing bodies. The stdlib's
own refusals (501 unknown method, 414 request line too long, 431, …)
are the same JSON error payload, never an HTML page. A response leaves
in one write on a ``TCP_NODELAY`` socket (no delayed-ACK wait).
"""

from __future__ import annotations

import json
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import accumulate
from typing import Callable, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlparse

from ..errors import (
    BudgetExceededError,
    InvalidRequestError,
    ServeError,
    UnknownIndexError,
)
from ..obs import Trace, mint_request_id
from . import chaos, lifecycle
from .binproto import MAX_FRAME_BYTES
from .budget import Budget
from .service import ACTService

#: Client-supplied request ids longer than this are replaced (they are
#: echoed into headers and logs; unbounded input does not belong there).
_MAX_REQUEST_ID = 128


def is_loopback(ip: str) -> bool:
    """True for addresses that can only originate on this machine."""
    return (ip.startswith("127.") or ip == "::1"
            or ip.startswith("::ffff:127."))


class ACTRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the attached :class:`ACTService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on every connection

    # the service is attached to the server object by create_server()
    @property
    def service(self) -> ACTService:
        return self.server.service  # type: ignore[attr-defined]

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

    def _forced_trace(self, params: Optional[dict] = None,
                      body: Optional[dict] = None,
                      kind: str = "query") -> Optional[Trace]:
        """A forced :class:`Trace` when the client asked for one
        (``?trace=1``, ``X-Trace: 1``, or ``"trace": true`` in a POST
        body), else ``None`` (the service then applies sampling)."""
        wanted = (self.headers.get("X-Trace") or "") not in ("", "0")
        if not wanted and params is not None:
            wanted = params.get("trace", ["0"])[0] not in ("0", "false", "")
        if not wanted and body is not None:
            wanted = bool(body.get("trace", False))
        if not wanted:
            return None
        return self.service.tracer.sample(
            request_id=self.request_id, kind=kind, force=True)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        self._assign_request_id()
        try:
            if parsed.path == "/healthz":
                payload = {
                    "status": "ok",
                    "indexes": self.service.registry.names(),
                    "pid": os.getpid(),
                }
                worker_id = getattr(self.server, "worker_id", None)
                if worker_id is not None:
                    payload["worker"] = worker_id
                self._send(200, payload)
            elif parsed.path == "/readyz":
                self._handle_readyz()
            elif parsed.path == "/stats":
                payload = self.service.stats()
                extra = getattr(self.server, "stats_extra", None)
                if extra is not None:
                    # fleet workers contribute an aggregated cross-worker
                    # view (see repro.serve.fleet) on top of their own;
                    # the hook receives this worker's snapshot so it is
                    # not recomputed for the aggregate
                    payload["fleet"] = extra(payload)
                self._send(200, payload)
            elif parsed.path == "/metrics":
                self._handle_metrics()
            elif parsed.path == "/query":
                self._handle_query(parse_qs(parsed.query))
            elif parsed.path == "/admin/indexes":
                if self._admin_allowed():
                    self._send(200, {
                        "indexes": self.service.admin_indexes(),
                        "pid": os.getpid(),
                        "worker": getattr(self.server, "worker_id", None),
                    })
            elif parsed.path == "/admin/chaos":
                if self._admin_allowed():
                    self._send(200, {
                        "spec": chaos.spec(),
                        "active": chaos.is_active(),
                        "pid": os.getpid(),
                    })
            elif parsed.path == "/admin/slowlog":
                if self._admin_allowed():
                    self._send(200, {
                        "slow_queries": self.service.slowlog.entries(),
                        "stats": self.service.slowlog.stats(),
                        "pid": os.getpid(),
                        "worker": getattr(self.server, "worker_id", None),
                    })
            elif parsed.path == "/admin/shards":
                if self._admin_allowed():
                    shard = self.service.shard_info()
                    if shard is None:
                        self._send(404, {
                            "error": "this worker is not sharded "
                                     "(start the fleet with --shards)",
                        })
                    else:
                        self._send(200, {
                            "shard": shard,
                            "pid": os.getpid(),
                            "worker": getattr(self.server, "worker_id",
                                              None),
                        })
            else:
                self._send(404, {"error": f"no route {parsed.path!r}"})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_error_for(exc)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        self._assign_request_id()
        try:
            if parsed.path == "/join":
                self._handle_join()
            elif parsed.path == "/query":
                self._handle_query_batch()
            elif parsed.path == "/admin/register":
                self._handle_admin_body(lifecycle.OP_REGISTER)
            elif parsed.path == "/admin/reload":
                self._handle_admin_body(lifecycle.OP_RELOAD)
            elif parsed.path == "/admin/chaos":
                self._handle_chaos()
            else:
                self._send(404, {"error": f"no route {parsed.path!r}"})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_error_for(exc)

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
        parsed = urlparse(self.path)
        self._assign_request_id()
        prefix = "/admin/index/"
        try:
            if parsed.path.startswith(prefix) and len(parsed.path) > len(
                    prefix):
                name = unquote(parsed.path[len(prefix):])
                if self._admin_allowed():
                    self._dispatch_admin({
                        "op": lifecycle.OP_UNREGISTER, "name": name,
                    })
            else:
                self._send(404, {"error": f"no route {parsed.path!r}"})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_error_for(exc)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_query(self, params: dict) -> None:
        try:
            index_name = params["index"][0]
            lng = float(params["lng"][0])
            lat = float(params["lat"][0])
        except (KeyError, ValueError, IndexError):
            self._send(400, {
                "error": "need index=NAME&lng=FLOAT&lat=FLOAT",
            })
            return
        exact = params.get("exact", ["0"])[0] not in ("0", "false", "")
        try:
            budget = self._parse_budget(params.get("budget_ms", [None])[0])
        except InvalidRequestError as exc:
            self._send(400, self._error_payload(exc))
            return
        trace = self._forced_trace(params=params, kind="query")
        try:
            result = self.service.query(index_name, lng, lat, exact=exact,
                                        budget=budget, trace=trace,
                                        request_id=self.request_id)
        except (UnknownIndexError, BudgetExceededError, ServeError) as exc:
            self._send_error_for(exc)
            return
        payload = {
            "index": index_name,
            "lng": lng,
            "lat": lat,
            "exact": exact,
            "true_hits": list(result.true_hits),
            "candidates": list(result.candidates),
            "polygon_ids": list(result.all_ids),
            "is_hit": result.is_hit,
            "request_id": self.request_id,
        }
        if trace is not None:
            trace.stamp("serialize")
            payload["trace"] = trace.to_dict()
        self._send(200, payload)

    def _handle_query_batch(self) -> None:
        parsed = self._parse_points_body()
        if parsed is None:
            return
        index_name, lngs, lats, exact, budget, trace = parsed
        try:
            results = self.service.query_batch(
                index_name, lngs, lats, exact=exact, budget=budget,
                trace=trace, request_id=self.request_id)
        except (UnknownIndexError, BudgetExceededError, ServeError) as exc:
            self._send_error_for(exc)
            return
        # rows straight off the batch's columns: one tolist() per
        # column, then slices — no QueryResult per point
        true_ids = results.true_ids.tolist()
        cand_ids = results.cand_ids.tolist()
        true_end = list(accumulate(results.true_counts.tolist()))
        cand_end = list(accumulate(results.cand_counts.tolist()))
        payload = {
            "index": index_name,
            "num_points": len(lngs),
            "exact": exact,
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
        if trace is not None:
            trace.stamp("serialize")
            payload["trace"] = trace.to_dict()
        self._send(200, payload)

    def _handle_join(self) -> None:
        parsed = self._parse_points_body(kind="join")
        if parsed is None:
            return
        index_name, lngs, lats, exact, budget, trace = parsed
        try:
            counts = self.service.join(index_name, lngs, lats, exact=exact,
                                       budget=budget, trace=trace,
                                       request_id=self.request_id)
        except (UnknownIndexError, BudgetExceededError, ServeError) as exc:
            self._send_error_for(exc)
            return
        nonzero = {int(pid): int(c) for pid, c in enumerate(counts) if c}
        payload = {
            "index": index_name,
            "num_points": len(lngs),
            "exact": exact,
            "counts": nonzero,
            "request_id": self.request_id,
        }
        if trace is not None:
            trace.stamp("serialize")
            payload["trace"] = trace.to_dict()
        self._send(200, payload)

    def _handle_metrics(self) -> None:
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

    def _handle_readyz(self) -> None:
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
        ready_extra = getattr(self.server, "ready_extra", None)
        lifecycle_state = (ready_extra() if ready_extra is not None
                           else {"converged": True, "last_error": None})
        ready = (all(indexes.values())
                 and bool(lifecycle_state.get("converged", True)))
        payload = {
            "ready": ready,
            "indexes": indexes,
            "pid": os.getpid(),
        }
        payload.update(lifecycle_state)
        worker_id = getattr(self.server, "worker_id", None)
        if worker_id is not None:
            payload["worker"] = worker_id
        self._send(200 if ready else 503, payload)

    def _handle_chaos(self) -> None:
        """``POST /admin/chaos``: (re-)arm this process's fault
        injection from ``{"spec": "..."}``; an empty spec disarms."""
        if not self._admin_allowed():
            return
        body = self._read_json_body()
        if body is None:
            return
        spec = body.get("spec", "")
        if not isinstance(spec, str):
            self._send(400, {"error": "chaos spec must be a string"})
            return
        try:
            chaos.configure(spec)
        except InvalidRequestError as exc:
            self._send(400, {"error": str(exc)})
            return
        self.service.metrics.counter("admin.requests").inc()
        self._send(200, {
            "spec": chaos.spec(),
            "active": chaos.is_active(),
            "pid": os.getpid(),
        })

    # ------------------------------------------------------------------
    # Admin surface
    # ------------------------------------------------------------------
    def _admin_allowed(self) -> bool:
        """Loopback authentication for the admin surface.

        The server may legitimately bind a routable address for query
        traffic; lifecycle mutations still require the caller to be on
        this machine. Sends the 403 itself when rejecting.
        """
        ip = self.client_address[0] if self.client_address else ""
        if is_loopback(ip):
            return True
        self._send(403, {
            "error": "admin endpoints are loopback-only",
        })
        return False

    def _handle_admin_body(self, op_kind: str) -> None:
        if not self._admin_allowed():
            return
        body = self._read_json_body()
        if body is None:
            return
        body["op"] = op_kind
        self._dispatch_admin(body)

    def _dispatch_admin(self, request: dict) -> None:
        """Run one admin request: fleet-wide via the server's hook when a
        fleet is attached, otherwise directly on this service."""
        self.service.metrics.counter("admin.requests").inc()
        hook = getattr(self.server, "admin_hook", None)
        try:
            if hook is not None:
                result = hook(request)
            else:
                result = lifecycle.handle_admin_request(self.service,
                                                        request)
        except UnknownIndexError as exc:
            self._send(404, {"error": str(exc)})
            return
        except InvalidRequestError as exc:
            self._send(400, {"error": str(exc)})
            return
        except ServeError as exc:
            # duplicate registration, conflicting concurrent admin op, …
            self._send(409, {"error": str(exc)})
            return
        except Exception as exc:  # bad artifact path, load failure, …
            self._send(400, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send(200, result)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _parse_points_body(self, kind: str = "query_batch"):
        """Shared body parsing for the batch endpoints.

        Returns ``(index_name, lngs, lats, exact, budget, trace)`` or
        ``None`` (a 4xx response has already been sent).
        """
        body = self._read_json_body()
        if body is None:
            return None
        index_name = body.get("index")
        points = body.get("points")
        if not isinstance(index_name, str) or not isinstance(points, list):
            self._send(400, {
                "error": 'need {"index": NAME, "points": [[lng, lat], ...]}',
            })
            return None
        try:
            lngs = [float(p[0]) for p in points]
            lats = [float(p[1]) for p in points]
        except (TypeError, ValueError, IndexError):
            self._send(400, {"error": "points must be [lng, lat] pairs"})
            return None
        exact = bool(body.get("exact", False))
        try:
            budget = self._parse_budget(body.get("budget_ms"))
        except InvalidRequestError as exc:
            self._send(400, self._error_payload(exc))
            return None
        trace = self._forced_trace(body=body, kind=kind)
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

    def _read_json_body(self) -> Optional[dict]:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # the body cannot be located on the stream, so a keep-alive
            # connection would misparse it as the next request (or block
            # reading to EOF on a negative length): 400 and close
            self._send(400, {
                "error": f"malformed Content-Length: {raw_length!r}",
            }, close=True)
            return None
        if length > MAX_FRAME_BYTES:
            # reading it would park this thread on a body that never
            # comes, or allocate it all first; the unread bytes would
            # then be misparsed as the next request: 413 and close
            self._send(413, self._error_payload(
                f"Content-Length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte body limit"), close=True)
            return None
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError):
            self._send(400, {"error": "body must be JSON"})
            return None
        if not isinstance(body, dict):
            self._send(400, {"error": "body must be a JSON object"})
            return None
        return body

    def _send_error_for(self, exc: Exception) -> None:
        if isinstance(exc, UnknownIndexError):
            self._send(404, self._error_payload(exc))
        elif isinstance(exc, InvalidRequestError):
            self._send(400, self._error_payload(exc))
        elif isinstance(exc, BudgetExceededError):
            payload = self._error_payload(exc)
            payload["shed"] = True
            self._send(503, payload)
        else:
            self._send(500, self._error_payload(exc))

    def _error_payload(self, error: Union[Exception, str]) -> dict:
        """Error body carrying the request id and the answering pid, so
        a fleet-mode failure is attributable to one request in one
        worker process."""
        return {
            "error": str(error),
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


class ACTHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with an attached :class:`ACTService`."""

    daemon_threads = True
    allow_reuse_address = True
    #: Fleet workers set these (see :mod:`repro.serve.fleet`): a worker
    #: slot id surfaced by ``/healthz``, and a callable — given this
    #: worker's freshly computed stats payload — whose dict is attached
    #: to ``/stats`` as the fleet-wide aggregate.
    worker_id: Optional[int] = None
    stats_extra: Optional[Callable[[dict], dict]] = None
    #: Zero-arg callable returning the fleet's aggregated (bucket-
    #: merged) view for ``/metrics``; ``None`` exposes this process's
    #: families only.
    metrics_extra: Optional[Callable[[], dict]] = None
    #: Fleet workers install their :meth:`repro.serve.lifecycle.
    #: FleetLifecycle.submit` here so admin mutations coordinate
    #: fleet-wide; ``None`` applies them to this process's service only.
    admin_hook: Optional[Callable[[dict], dict]] = None
    #: Zero-arg callable returning this process's lifecycle convergence
    #: state for ``/readyz`` (see :meth:`repro.serve.lifecycle.
    #: FleetLifecycle.status`); ``None`` means no fleet — always
    #: converged.
    ready_extra: Optional[Callable[[], dict]] = None

    def __init__(self, address: Tuple[str, int], service: ACTService,
                 bind_and_activate: bool = True):
        super().__init__(address, ACTRequestHandler,
                         bind_and_activate=bind_and_activate)
        self.service = service
        # the HTTP front's families exist as soon as the server does,
        # not on the first request (RL004)
        service.metrics.register(
            counters=("http.requests", "admin.requests"))


def create_server(service: ACTService, host: str = "127.0.0.1",
                  port: int = 8080) -> ACTHTTPServer:
    """Bind an :class:`ACTHTTPServer`; ``port=0`` picks a free port."""
    return ACTHTTPServer((host, port), service)
