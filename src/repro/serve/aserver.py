"""Asyncio binary front: pipelined connections for the fast data plane.

The JSON front is thread-per-connection: every connection parks a
thread, every request pays header parsing, JSON decoding, and response
string building. This front serves the :mod:`~repro.serve.binproto` protocol
from one ``asyncio`` event loop per process instead:

* connections are cheap (no thread per connection — the selector owns
  them all), so a client keeps one connection and **pipelines**: it
  sends many frames without waiting for responses, and the server
  answers them strictly in order as fast as the core can;
* frame headers are decoded with ``struct.unpack_from`` over a
  ``memoryview`` — the payload bytes are never copied to find out what
  they are — and a frame that arrives in one TCP segment is decoded
  *in place*: ``numpy.frombuffer`` views straight into the receive
  buffer feed :meth:`~repro.serve.service.ACTService.query_batch`
  with zero per-point Python objects;
* requests dispatch onto the *existing* service path, so latency
  budgets, generation pinning, the cell cache, telemetry counters and
  histograms, and request-id semantics behave exactly as they do over
  JSON — the two fronts are views of one service.

Batches execute inline on the event loop: ``query_batch`` is pure
vectorized compute that never blocks, and each fleet worker runs its
own loop in its own process, so cross-connection fairness degrades
only as far as the GIL already degrades it.

:class:`BinaryFrontend` wraps the loop in a daemon thread so the front
runs next to the threaded JSON server inside one process (single
``repro-act serve`` or each :class:`~repro.serve.fleet.ServingFleet`
worker).
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Optional, Set, Tuple

from ..errors import FrameError, ServeError, wire_error
from ..obs import mint_request_id
from . import binproto, chaos
from .budget import Budget
from .service import ACTService


def _bin_request_id(request_id: int) -> str:
    """Trace id for a binary frame.

    Deterministic from the wire request id when the client sent one
    (so client and server logs correlate), freshly minted otherwise.
    Minting is intrinsic per-request work, kept out of the frame
    handler itself so the handler stays formatting-free.
    """
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


def _release(view: memoryview) -> None:
    """Release a view over an immutable frame buffer (hygiene only —
    the buffers are ``bytes``, so a still-exported view is harmless)."""
    try:
        view.release()
    except BufferError:  # pragma: no cover - an escaped array view
        pass


class _BinaryProtocol(asyncio.Protocol):
    """One binary connection: buffer, frame, dispatch, respond.

    Frames are processed in arrival order on the event loop; behind an
    unsharded service responses can therefore never overtake each
    other. Behind a sharded router, plain query/join ops may *block on
    the network* mid-scatter, so they execute on the frontend's
    scatter pool and reply as they finish — responses may reorder, and
    clients correlate by the echoed request id (the reference client
    does). Forwarded ops always stay on the loop: they touch only the
    local slice, so the loop can keep draining sibling scatters even
    while every pool thread is waiting, which is what makes
    router-to-router traffic deadlock-free.
    The receive path has a zero-copy fast lane — when a complete frame
    sits inside the ``bytes`` object the transport delivered, headers
    and payload are decoded from memoryviews of it directly; only a
    frame fragmented across TCP segments is reassembled (once, guided
    by the declared frame length) into the carry-over buffer.
    """

    def __init__(self, frontend: "BinaryFrontend"):
        self.frontend = frontend
        self.service = frontend.service
        self.transport: Optional[asyncio.Transport] = None
        self._buf = bytearray()
        #: Bytes needed before the carry-over buffer can hold a full
        #: frame (skip re-joining it on every small segment).
        self._need = binproto.HEADER_SIZE
        self._closing = False

    # -- connection lifecycle -----------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        try:
            transport.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, AttributeError):
            pass
        self.frontend.connections.add(self)
        self.frontend.c_connections.inc()

    def connection_lost(self, exc) -> None:
        self.frontend.connections.discard(self)

    # -- receive path -------------------------------------------------
    def data_received(self, data: bytes) -> None:
        self.frontend.c_bytes_in.inc(len(data))
        if self._closing:
            return
        if not self._buf:
            # fast lane: `data` is immutable, so frames inside it are
            # decoded in place (zero-copy views) with no reassembly
            consumed = self._process(data)
            if consumed < len(data) and not self._closing:
                self._buf += memoryview(data)[consumed:]
                self._update_need()
            return
        self._buf += data
        if len(self._buf) < self._need:
            return  # cheap wait: the frame cannot be complete yet
        complete = bytes(self._buf)
        consumed = self._process(complete)
        del self._buf[:consumed]
        self._update_need()

    def _update_need(self) -> None:
        try:
            header = binproto.try_parse_header(self._buf)
        except FrameError:
            # fatal header; let _process handle it on the next pass
            self._need = len(self._buf)
            return
        if header is None:
            self._need = binproto.HEADER_SIZE
        else:
            self._need = binproto.HEADER_SIZE + header[3]

    def _process(self, buf) -> int:
        """Handle every complete frame in ``buf``; return bytes consumed."""
        offset = 0
        size = len(buf)
        view = memoryview(buf)
        try:
            while size - offset >= binproto.HEADER_SIZE:
                try:
                    header = binproto.try_parse_header(view, offset)
                except FrameError as exc:
                    # the stream cannot be re-synchronized: answer with
                    # an error frame, then close cleanly
                    self._send_error(exc, 0)
                    self._close()
                    return size
                op, flags, request_id, payload_len = header
                end = offset + binproto.HEADER_SIZE + payload_len
                if size < end:
                    break
                payload = view[offset + binproto.HEADER_SIZE:end]
                try:
                    self._handle(op, flags, request_id, payload)
                finally:
                    _release(payload)
                offset = end
                if self._closing:
                    return size
        finally:
            _release(view)
        return offset

    # -- dispatch -----------------------------------------------------
    def _handle(self, op: int, flags: int, request_id: int,
                payload) -> None:
        self.frontend.c_frames.inc()
        try:
            # chaos seam: armed tests cut connections mid-pipeline here
            # to exercise the client's reconnect-and-retry discipline
            chaos.fault("binary.request", self.service.metrics)
        except ConnectionResetError:
            self._closing = True
            if self.transport is not None:
                self.transport.abort()
            return
        if op == binproto.OP_PING:
            self._write(binproto.encode_pong(request_id))
            return
        start = time.perf_counter()
        try:
            if op not in _OPS:
                raise FrameError(f"unknown op 0x{op:02x}")
            name, lngs, lats, budget_ms = \
                binproto.decode_points_request(payload)
        except FrameError as exc:
            self._send_error(exc, request_id)
            return
        exact = bool(flags & binproto.FLAG_EXACT)
        budget = None if budget_ms is None else Budget.from_ms(budget_ms)
        run = partial(self._execute, op, name, exact, budget,
                      _bin_request_id(request_id), request_id, start)
        pool = self.frontend.scatter_pool
        if pool is not None and op in (binproto.OP_QUERY,
                                       binproto.OP_JOIN):
            # a sharded router may block on the network scattering
            # this batch to sibling shards; that wait must never park
            # the event loop (two mutually-scattering workers would
            # deadlock until the forward timeout). Copy the point
            # columns out of the receive buffer — the zero-copy views
            # die with this frame — and execute + reply from the pool.
            self._dispatch_scatter(pool, run, lngs.copy(), lats.copy())
            return
        self._write(run(lngs, lats))

    def _dispatch_scatter(self, pool, run, lngs, lats) -> None:
        loop = asyncio.get_running_loop()

        def job() -> None:
            frame = run(lngs, lats)
            try:
                loop.call_soon_threadsafe(self._write, frame)
            except RuntimeError:  # loop already closed at shutdown
                pass

        pool.submit(job)

    def _execute(self, op, name, exact, budget, service_id, request_id,
                 start, lngs, lats) -> bytes:
        """Run one decoded request down to a ready-to-send reply frame.

        Called on the event loop for loop-safe work and from the
        scatter pool for requests that may wait on sibling shards;
        everything it touches (service, registry, metrics) is already
        thread-safe for the HTTP front's thread-per-connection model.
        """
        method, encode = _OPS[op]
        try:
            answer = getattr(self.service, method)(
                name, lngs, lats, exact=exact, budget=budget,
                request_id=service_id)
            frame = encode(answer, request_id)
        except Exception as exc:
            self.frontend.c_errors.inc()
            return binproto.encode_error(*wire_error(exc), request_id)
        # count before writing: a client that already holds the
        # response must observe the counters it caused
        self.frontend.c_requests.inc()
        self.frontend.h_request_seconds.observe(
            time.perf_counter() - start)
        return frame

    # -- send path ----------------------------------------------------
    def _write(self, frame: bytes) -> None:
        transport = self.transport
        if transport is None or transport.is_closing():
            return
        self.frontend.c_bytes_out.inc(len(frame))
        transport.write(frame)

    def _send_error(self, exc: FrameError, request_id: int) -> None:
        self.frontend.c_errors.inc()
        self._write(binproto.encode_error(*wire_error(exc), request_id))

    def _close(self) -> None:
        self._closing = True
        if self.transport is not None:
            self.transport.close()  # flushes the error frame first


class BinaryFrontend:
    """Runs the binary front's event loop in a daemon thread.

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
        self.connections: Set[_BinaryProtocol] = set()
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        #: Execution pool for requests that may *wait on the network*
        #: (a sharded router scattering to sibling slots). Created in
        #: :meth:`start` — never at import or construction time — and
        #: only when the attached service actually routes; ``None``
        #: keeps plain services on the zero-thread fast path.
        self._scatter_pool: Optional[ThreadPoolExecutor] = None
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
        if self._thread is not None or self._loop is not None:
            raise ServeError("binary frontend already started "
                             "(frontends are single-use)")
        if self.service.shard_info() is not None:
            self._scatter_pool = ThreadPoolExecutor(
                max_workers=16, thread_name_prefix="binary-scatter")
        self._thread = threading.Thread(
            target=self._run, name="binary-frontend", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise ServeError(
                f"binary frontend failed to start: "
                f"{self._startup_error}") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            if self._sock is not None:
                factory = loop.create_server(
                    lambda: _BinaryProtocol(self), sock=self._sock)
            else:
                factory = loop.create_server(
                    lambda: _BinaryProtocol(self),
                    host=self.host, port=self.port)
            self._server = loop.run_until_complete(factory)
            self.address = self._server.sockets[0].getsockname()[:2]
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            for conn in list(self.connections):
                if conn.transport is not None:
                    conn.transport.abort()
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            # let transport close callbacks run before tearing down
            loop.run_until_complete(asyncio.sleep(0))
            loop.close()

    @property
    def scatter_pool(self) -> Optional[ThreadPoolExecutor]:
        """The routing pool, or ``None`` behind an unsharded service."""
        return self._scatter_pool

    def stop(self) -> None:
        """Stop accepting, drop connections, and join the loop thread
        (idempotent)."""
        loop = self._loop
        thread = self._thread
        if loop is None or thread is None:
            return
        if thread.is_alive():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:
                pass  # loop already closed
            thread.join(timeout=10.0)
        self._thread = None
        pool = self._scatter_pool
        if pool is not None:
            self._scatter_pool = None
            # in-flight scatters abort with their connections; don't
            # wait on forwards that may be riding a sibling's respawn
            pool.shutdown(wait=False)

    def __enter__(self) -> "BinaryFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def create_binary_frontend(service: ACTService, host: str = "127.0.0.1",
                           port: int = 0) -> BinaryFrontend:
    """Bind and start a :class:`BinaryFrontend`; ``port=0`` picks a
    free port (read it back from ``frontend.address``)."""
    return BinaryFrontend(service, host=host, port=port).start()
