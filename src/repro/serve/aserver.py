"""Binary front: the :mod:`~repro.serve.binproto` data plane, served
the way :mod:`~repro.serve.server` serves JSON — a threading
:mod:`socketserver` server, one thread per connection, which loops:

* read one 24-byte header (a fatal one — bad magic or version, an
  oversized payload — earns one error frame, then the connection
  closes); reads go through a buffered ``readinto``, so a small frame
  costs one ``recv``;
* read the payload into its own buffer, so
  :func:`~repro.serve.binproto.decode_points_request` returns
  ``numpy.frombuffer`` views over it: no per-point Python objects;
* dispatch onto the service path the JSON front uses (budgets,
  generation pinning, the cell cache, telemetry, request ids);
* ``sendall`` the reply frame.

A client may pipeline frames on one connection; its thread answers
them strictly in request order. A sharded router's batch blocks only
its own connection's thread while it scatters: a sibling's
``OP_FORWARD_*`` arrives on another connection, so another thread
answers it, and a forward is never re-routed, so no wait closes a
cycle. :meth:`BinaryFrontend.stop` stops accepting, wakes idle readers
and joins every connection's thread: a frame already read is answered.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from typing import Optional, Set, Tuple

from ..errors import FrameError, ServeError, wire_error
from ..obs import mint_request_id
from . import binproto, chaos
from .budget import Budget
from .server import adopt_socket
from .service import ACTService


def _bin_request_id(request_id: int) -> str:
    """Trace id for a binary frame: from the wire request id when the
    client sent one (client and server logs correlate), else minted —
    kept out of :meth:`_BinaryHandler._handle`, which formats nothing."""
    return f"bin-{request_id:x}" if request_id else mint_request_id()


def _encode_counts(counts, request_id: int) -> bytes:
    """The sparse ``OP_COUNTS`` reply for a dense count-per-polygon."""
    nonzero = counts.nonzero()[0]
    return binproto.encode_counts(nonzero, counts[nonzero], request_id)


#: Request op -> (the service method that answers it, the encoder of
#: its reply). The method is looked up by name on each frame. Forwarded
#: ops answer from the local shard slice and are never re-routed, so
#: routing loops are structurally impossible.
_OPS = {
    binproto.OP_QUERY: ("query_batch", binproto.encode_results),
    binproto.OP_JOIN: ("join", _encode_counts),
    binproto.OP_FORWARD_QUERY: ("local_query_batch",
                                binproto.encode_results),
    binproto.OP_FORWARD_JOIN: ("local_join", _encode_counts),
}


class _BinaryHandler(socketserver.StreamRequestHandler):
    """One binary connection: read a frame, answer it, repeat to EOF."""

    server: "_BinaryServer"
    rbufsize = 1 << 16
    disable_nagle_algorithm = True  # TCP_NODELAY on every connection

    def handle(self) -> None:
        self.frontend = self.server.frontend
        self.service = self.frontend.service
        self.frontend.c_connections.inc()
        header = bytearray(binproto.HEADER_SIZE)
        try:
            while self._read(header):
                try:
                    op, flags, request_id, payload_len = \
                        binproto.try_parse_header(header)
                except FrameError as exc:
                    # the stream cannot be re-synchronized: answer with
                    # an error frame, then close
                    self._send_error(exc, 0)
                    return
                payload = bytearray(payload_len)
                if not (self._read(payload)
                        and self._handle(op, flags, request_id, payload)):
                    return
        except OSError:
            pass  # the peer reset or vanished: nothing is owed to it

    def _read(self, buf: bytearray) -> bool:
        """Fill ``buf`` from the connection; ``False`` at end of stream
        (the peer closed, or :meth:`BinaryFrontend.stop` woke us)."""
        got = self.rfile.readinto(buf)
        self.frontend.c_bytes_in.inc(got)
        return got == len(buf)

    def _handle(self, op: int, flags: int, request_id: int,
                payload: bytearray) -> bool:
        """Answer one frame; ``False`` closes the connection."""
        self.frontend.c_frames.inc()
        try:
            # chaos seam: armed tests cut connections mid-pipeline here
            # to exercise the client's reconnect-and-retry discipline
            chaos.fault("binary.request", self.service.metrics)
        except ConnectionResetError:
            return False
        if op == binproto.OP_PING:
            self._send(binproto.encode_pong(request_id))
            return True
        start = time.perf_counter()
        try:
            if op not in _OPS:
                raise FrameError(f"unknown op 0x{op:02x}")
            method, encode = _OPS[op]
            name, lngs, lats, budget_ms = \
                binproto.decode_points_request(payload)
            answer = getattr(self.service, method)(
                name, lngs, lats, exact=bool(flags & binproto.FLAG_EXACT),
                budget=None if budget_ms is None
                else Budget.from_ms(budget_ms),
                request_id=_bin_request_id(request_id))
            frame = encode(answer, request_id)
        except Exception as exc:
            self._send_error(exc, request_id)
            return True
        # count before writing: a client that already holds the
        # response must observe the counters it caused
        self.frontend.c_requests.inc()
        self.frontend.h_request_seconds.observe(
            time.perf_counter() - start)
        self._send(frame)
        return True

    def _send(self, frame: bytes) -> None:
        self.frontend.c_bytes_out.inc(len(frame))
        self.request.sendall(frame)

    def _send_error(self, exc: Exception, request_id: int) -> None:
        self.frontend.c_errors.inc()
        self._send(binproto.encode_error(*wire_error(exc), request_id))


class _BinaryServer(socketserver.ThreadingTCPServer):
    """A thread per connection, joined by ``server_close``; tracks the
    open connections so :meth:`BinaryFrontend.stop` can wake them."""

    allow_reuse_address = True

    def __init__(self, frontend: "BinaryFrontend",
                 address: Tuple[str, int], bind_and_activate: bool = True):
        self.frontend = frontend
        self.open: Set[socket.socket] = set()
        self.open_lock = threading.Lock()
        super().__init__(address, _BinaryHandler,
                         bind_and_activate=bind_and_activate)

    def get_request(self):
        conn, address = self.socket.accept()
        # the fleet's listening sockets are non-blocking; handlers block
        conn.setblocking(True)
        with self.open_lock:
            self.open.add(conn)
        return conn, address

    def shutdown_request(self, request) -> None:
        with self.open_lock:
            self.open.discard(request)
        super().shutdown_request(request)


class BinaryFrontend:
    """Runs the binary front's accept loop in a daemon thread.

    Either binds ``(host, port)`` itself (``port=0`` picks a free one)
    or adopts a pre-bound listening socket (the fleet's
    ``SO_REUSEPORT`` sockets arrive through ``fork``). Counters and
    the request-latency histogram live in the attached service's
    :class:`~repro.serve.metrics.MetricsRegistry` under ``binary.*``,
    so ``/stats`` and ``/metrics`` report the fast data plane next to
    the JSON one.
    """

    def __init__(self, service: ACTService, host: str = "127.0.0.1",
                 port: int = 0, sock: Optional[socket.socket] = None,
                 worker_id: Optional[int] = None):
        self.service = service
        self.host = host
        self.port = port
        self._sock = sock
        self.worker_id = worker_id
        self.address: Optional[Tuple[str, int]] = None
        self._server: Optional[_BinaryServer] = None
        self._thread: Optional[threading.Thread] = None
        # created eagerly so the binary.* families exist in /stats and
        # /metrics from boot, not from first traffic
        metrics = service.metrics
        self.c_connections = metrics.counter("binary.connections")
        self.c_frames = metrics.counter("binary.frames")
        self.c_requests = metrics.counter("binary.requests")
        self.c_errors = metrics.counter("binary.errors")
        self.c_bytes_in = metrics.counter("binary.bytes_in")
        self.c_bytes_out = metrics.counter("binary.bytes_out")
        self.h_request_seconds = metrics.histogram(
            "binary.request_seconds")

    # -- lifecycle ----------------------------------------------------
    def start(self) -> "BinaryFrontend":
        if self._server is not None:
            raise ServeError("binary frontend already started "
                             "(frontends are single-use)")
        try:
            if self._sock is None:
                server = _BinaryServer(self, (self.host, self.port))
            else:
                server = _BinaryServer(self, self._sock.getsockname()[:2],
                                       bind_and_activate=False)
                adopt_socket(server, self._sock)
        except OSError as exc:
            raise ServeError(
                f"binary frontend failed to start: {exc}") from exc
        self._server = server
        self.address = server.server_address[:2]
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1},
            name="binary-frontend", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, wake every idle connection and join each
        connection's thread — a frame already read is answered first
        (idempotent)."""
        server, thread = self._server, self._thread
        if server is None or thread is None:
            return
        self._thread = None
        server.shutdown()  # the accept loop exits: no new connections
        thread.join()
        with server.open_lock:
            for conn in server.open:
                try:
                    # a blocked recv returns end-of-stream; replies
                    # still go out on the write side
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        server.server_close()  # joins the connection threads

    def __enter__(self) -> "BinaryFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def create_binary_frontend(service: ACTService, host: str = "127.0.0.1",
                           port: int = 0) -> BinaryFrontend:
    """Bind and start a :class:`BinaryFrontend`; ``port=0`` picks a
    free port (read it back from ``frontend.address``)."""
    return BinaryFrontend(service, host=host, port=port).start()
