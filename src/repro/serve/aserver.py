"""Binary protocol handler: the :mod:`~repro.serve.binproto` data
plane, spoken on any connection of the one server
(:class:`~repro.serve.server.ACTServer`) whose first bytes are not an
HTTP request line. Its thread loops:

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
cycle. The server's drain closes a connection parked between frames
and answers a frame whose first byte has arrived.
"""

from __future__ import annotations

import socketserver
import time

from ..errors import FrameError, wire_error
from ..obs import mint_request_id
from . import binproto, chaos
from .budget import Budget


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


class BinaryHandler(socketserver.StreamRequestHandler):
    """One binary connection: read a frame, answer it, repeat until the
    peer closes or the drain finds it parked between frames."""

    rbufsize = 1 << 16
    disable_nagle_algorithm = True  # TCP_NODELAY on every connection

    def setup(self) -> None:
        super().setup()
        self.rfile = self.server.reader(self)

    def handle(self) -> None:
        self.service = self.server.service
        self.server.c_connections.inc()
        header = bytearray(binproto.HEADER_SIZE)
        try:
            while self.rfile.next_message() and self._read(header):
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
        """Fill ``buf`` from the connection; ``False`` if the peer
        closed first."""
        got = self.rfile.readinto(buf)
        self.server.c_bytes_in.inc(got)
        return got == len(buf)

    def _handle(self, op: int, flags: int, request_id: int,  # repro-lint: hot
                payload: bytearray) -> bool:
        """Answer one frame; ``False`` closes the connection."""
        self.server.c_frames.inc()
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
        self.server.c_requests.inc()
        self.server.h_request_seconds.observe(
            time.perf_counter() - start)
        self._send(frame)
        return True

    def _send(self, frame: bytes) -> None:
        self.server.c_bytes_out.inc(len(frame))
        self.request.sendall(frame)

    def _send_error(self, exc: Exception, request_id: int) -> None:
        self.server.c_errors.inc()
        self._send(binproto.encode_error(*wire_error(exc), request_id))
