"""Zero-copy binary batch protocol: the serving stack's fast data plane.

The JSON API costs milliseconds per batch in parsing and string
building alone — the ACT core answers a 20k-point exact batch in a
fraction of that. This module defines a length-prefixed, versioned,
little-endian frame protocol whose payloads are packed ``float64``
arrays: a request's lng/lat columns are handed to
``numpy.frombuffer`` straight out of the receive buffer (no per-point
Python objects, no text), and a response packs the classified results
back as flat count/id arrays the same way.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"ACTB"
    4       1     version (= 1)
    5       1     op
    6       2     flags        (bit 0: exact refinement)
    8       8     request id   (uint64, echoed verbatim on responses)
    16      4     payload length (uint32, bytes after the header)
    20      4     reserved (0)
    24      ...   payload

The 24-byte header keeps every ``float64`` column inside the payload
8-byte aligned relative to the frame start, so a frame received into
one buffer can be decoded without re-packing.

Ops: ``OP_PING``/``OP_PONG`` (liveness), ``OP_QUERY`` ->
``OP_RESULTS`` (classified batch lookup, the ``POST /query`` analog),
``OP_JOIN`` -> ``OP_COUNTS`` (count-per-polygon aggregation, the
``POST /join`` analog), ``OP_FORWARD_QUERY``/``OP_FORWARD_JOIN``
(shard-router fan-out: identical payloads, answered from the
receiver's local shard slice without re-routing), and ``OP_ERROR``
(status + message; statuses mirror the HTTP codes: 400 malformed,
404 unknown index, 503 shed, 500 internal). The full spec lives in
``docs/PROTOCOL.md``.

The decoder is strict: bad magic, unsupported version, and frames
whose declared payload exceeds :data:`MAX_FRAME_BYTES` are *fatal*
(:class:`FrameError` with ``fatal=True`` — the stream cannot be
trusted past them); a structurally sound frame whose payload is
truncated or inconsistent (a point count that implies more bytes than
the payload carries, a name that overruns it) is rejected with a
per-frame error so the connection survives.

:class:`Client` is the blocking-socket reference client used by the
benchmarks, the tests, and CI smoke: one call per request/response, or
``send_query`` / ``recv_results`` split apart to pipeline many frames
on one connection.
"""

from __future__ import annotations

import random
import socket
import struct
import time
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..act.core import QueryResult, ResultBatch
from ..errors import (
    ERROR_TABLE,
    BudgetExceededError,
    ConnectionLostError,
    FrameError,
    InvalidRequestError,
    ServeError,
    UnknownIndexError,
)

#: Anything the decoders accept as a frame or payload byte buffer.
Buffer = Union[bytes, bytearray, memoryview]
#: Point columns: an ndarray or anything ``np.asarray`` turns into one.
PointArray = Union[np.ndarray, Sequence[float]]

#: Frame magic: "ACT Binary".
MAGIC = b"ACTB"
#: Protocol version this codec speaks.
VERSION = 1
#: Hard ceiling on a frame's declared payload; anything larger is a
#: protocol violation (about 2M points per request), not a real batch.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: magic, version, op, flags, request_id, payload_len, reserved.
HEADER = struct.Struct("<4sBBHQII")
HEADER_SIZE = HEADER.size  # 24

# Request ops.
OP_PING = 0x01
OP_QUERY = 0x02
OP_JOIN = 0x03
# Shard-routing forward ops (bit 4 set): same payload as their plain
# counterparts, but the receiving worker answers from its *local*
# shard slice without re-routing — a forwarded frame never forwards
# again, so routing loops are impossible by construction. Responses
# reuse OP_RESULTS/OP_COUNTS.
OP_FORWARD_QUERY = 0x12
OP_FORWARD_JOIN = 0x13
# Response ops (high bit set).
OP_PONG = 0x81
OP_RESULTS = 0x82
OP_COUNTS = 0x83
OP_ERROR = 0xFF

#: Request flag: refine candidates (exact classification).
FLAG_EXACT = 0x0001

#: Points-request sub-header: name_len, reserved, n_points, budget_ms
#: (NaN = no budget).
_REQ = struct.Struct("<HHId")
#: Results sub-header: n_points, total_true, total_candidates, reserved.
_RES = struct.Struct("<IIII")
#: Counts sub-header: num_entries, reserved.
_CNT = struct.Struct("<II")
#: Error sub-header: status, reserved (message utf-8 after).
_ERR = struct.Struct("<HH")

#: Error statuses: the ``status`` of the :mod:`repro.errors` class
#: that carries each (the same numbers the JSON front answers with).
STATUS_BAD_REQUEST = InvalidRequestError.status
STATUS_NOT_FOUND = UnknownIndexError.status
STATUS_INTERNAL = ServeError.status
STATUS_SHED = BudgetExceededError.status

#: The error table read in reverse: status -> the class it is raised as.
_RAISED_AS = {cls.status: cls for cls in ERROR_TABLE}


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def encode_header(op: int, flags: int, request_id: int,
                  payload_len: int) -> bytes:
    return HEADER.pack(MAGIC, VERSION, op, flags, request_id,
                       payload_len, 0)


def try_parse_header(buf: Buffer, offset: int = 0,
                     ) -> Optional[Tuple[int, int, int, int]]:
    """``(op, flags, request_id, payload_len)`` at ``buf[offset:]``.

    Returns ``None`` when fewer than :data:`HEADER_SIZE` bytes are
    available (wait for more). Raises a *fatal* :class:`FrameError` on
    bad magic, unsupported version, or an oversized declared payload —
    the caller must answer with an error frame and close.
    """
    if len(buf) - offset < HEADER_SIZE:
        return None
    magic, version, op, flags, request_id, payload_len, _ = \
        HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise FrameError(f"bad magic {bytes(magic)!r} (want {MAGIC!r})",
                         fatal=True)
    if version != VERSION:
        raise FrameError(f"unsupported protocol version {version} "
                         f"(this server speaks {VERSION})", fatal=True)
    if payload_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"declared payload of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit", fatal=True)
    return op, flags, request_id, payload_len


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def encode_points_request(op: int, index: str, lngs: np.ndarray,
                          lats: np.ndarray, exact: bool = False,
                          budget_ms: Optional[float] = None,
                          request_id: int = 0) -> bytes:
    """One ``OP_QUERY``/``OP_JOIN`` frame for a point batch."""
    lngs = np.ascontiguousarray(lngs, dtype="<f8")
    lats = np.ascontiguousarray(lats, dtype="<f8")
    if lngs.shape != lats.shape or lngs.ndim != 1:
        raise InvalidRequestError(
            f"need matching 1-D lngs/lats, got shapes {lngs.shape} "
            f"and {lats.shape}")
    name = index.encode("utf-8")
    if len(name) > 0xFFFF:
        raise InvalidRequestError("index name too long")
    pad = (-(_REQ.size + len(name))) % 8
    n = int(lngs.shape[0])
    budget = float("nan") if budget_ms is None else float(budget_ms)
    payload_len = _REQ.size + len(name) + pad + 16 * n
    flags = FLAG_EXACT if exact else 0
    return b"".join((
        encode_header(op, flags, request_id, payload_len),
        _REQ.pack(len(name), 0, n, budget),
        name,
        b"\x00" * pad,
        lngs.tobytes(),
        lats.tobytes(),
    ))


def decode_points_request(payload: Buffer,
                          ) -> Tuple[str, np.ndarray, np.ndarray,
                                     Optional[float]]:
    """``(index, lngs, lats, budget_ms)`` from a points-request payload.

    ``lngs``/``lats`` are zero-copy ``numpy.frombuffer`` views into
    ``payload`` — no per-point objects are ever created. Every length
    is bounds-checked against the actual payload size; inconsistencies
    raise a non-fatal :class:`FrameError` (the framing was sound, only
    this request is bad).
    """
    if len(payload) < _REQ.size:
        raise FrameError(
            f"truncated request: payload of {len(payload)} bytes is "
            f"shorter than the {_REQ.size}-byte request header")
    name_len, _, n, budget = _REQ.unpack_from(payload, 0)
    pad = (-(_REQ.size + name_len)) % 8
    arrays_at = _REQ.size + name_len + pad
    expect = arrays_at + 16 * n
    if len(payload) != expect:
        raise FrameError(
            f"truncated request: {n} points and a {name_len}-byte name "
            f"need a {expect}-byte payload, got {len(payload)} bytes")
    try:
        name = bytes(payload[_REQ.size:_REQ.size + name_len]) \
            .decode("utf-8")
    except UnicodeDecodeError:
        raise FrameError("index name is not valid UTF-8") from None
    lngs = np.frombuffer(payload, dtype="<f8", count=n, offset=arrays_at)
    lats = np.frombuffer(payload, dtype="<f8", count=n,
                         offset=arrays_at + 8 * n)
    budget_ms = None if np.isnan(budget) else float(budget)
    return name, lngs, lats, budget_ms


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_results(results: Sequence[QueryResult],  # repro-lint: hot
                   request_id: int = 0) -> bytes:
    """An ``OP_RESULTS`` frame: per-point hit counts + flat id columns
    — the four columns of a :class:`ResultBatch`, which any other
    sequence of results is turned into first."""
    batch = ResultBatch.from_results(results)
    n, num_true, num_cand = (len(batch), batch.true_ids.shape[0],
                             batch.cand_ids.shape[0])
    return b"".join((
        encode_header(OP_RESULTS, 0, request_id,
                      _RES.size + 8 * (n + num_true + num_cand)),
        _RES.pack(n, num_true, num_cand, 0),
        batch.true_counts.tobytes(),
        batch.cand_counts.tobytes(),
        batch.true_ids.tobytes(),
        batch.cand_ids.tobytes(),
    ))


def decode_results(payload: Buffer) -> ResultBatch:  # repro-lint: hot
    """The :class:`ResultBatch` an ``OP_RESULTS`` payload carries
    (strict: every count is checked against the byte budget). Its
    columns are ``frombuffer`` views that borrow ``payload``: hand it
    immutable ``bytes``, as :class:`Client` does, or leave the buffer
    alone while the batch is in use."""
    if len(payload) < _RES.size:
        raise FrameError("truncated results payload")
    n, total_true, total_cand, _ = _RES.unpack_from(payload, 0)
    ids_at = _RES.size + 8 * n
    expect = ids_at + 8 * (total_true + total_cand)
    if len(payload) != expect:
        raise FrameError(
            f"results payload of {len(payload)} bytes does not match "
            f"its declared shape ({expect} bytes)")
    true_counts = np.frombuffer(payload, dtype="<u4", count=n,
                                offset=_RES.size)
    cand_counts = np.frombuffer(payload, dtype="<u4", count=n,
                                offset=_RES.size + 4 * n)
    if (int(true_counts.sum()) != total_true
            or int(cand_counts.sum()) != total_cand):
        raise FrameError("results payload counts disagree with totals")
    return ResultBatch(
        true_counts, cand_counts,
        np.frombuffer(payload, dtype="<i8", count=total_true,
                      offset=ids_at),
        np.frombuffer(payload, dtype="<i8", count=total_cand,
                      offset=ids_at + 8 * total_true))


def encode_counts(polygon_ids: np.ndarray, counts: np.ndarray,
                  request_id: int = 0) -> bytes:
    """An ``OP_COUNTS`` frame: sparse nonzero per-polygon counts."""
    polygon_ids = np.ascontiguousarray(polygon_ids, dtype="<i8")
    counts = np.ascontiguousarray(counts, dtype="<i8")
    num = int(polygon_ids.shape[0])
    payload_len = _CNT.size + 16 * num
    return b"".join((
        encode_header(OP_COUNTS, 0, request_id, payload_len),
        _CNT.pack(num, 0),
        polygon_ids.tobytes(),
        counts.tobytes(),
    ))


def decode_counts(payload: Buffer) -> Dict[int, int]:
    """``{polygon_id: count}`` from an ``OP_COUNTS`` payload."""
    if len(payload) < _CNT.size:
        raise FrameError("truncated counts payload")
    num, _ = _CNT.unpack_from(payload, 0)
    expect = _CNT.size + 16 * num
    if len(payload) != expect:
        raise FrameError(
            f"counts payload of {len(payload)} bytes does not match "
            f"its declared {num} entries ({expect} bytes)")
    ids = np.frombuffer(payload, dtype="<i8", count=num,
                        offset=_CNT.size)
    counts = np.frombuffer(payload, dtype="<i8", count=num,
                           offset=_CNT.size + 8 * num)
    return {int(pid): int(c) for pid, c in zip(ids.tolist(),
                                               counts.tolist())}


def encode_error(status: int, message: str,
                 request_id: int = 0) -> bytes:
    text = message.encode("utf-8")[:4096]
    return b"".join((
        encode_header(OP_ERROR, 0, request_id, _ERR.size + len(text)),
        _ERR.pack(status, 0),
        text,
    ))


def decode_error(payload: Buffer) -> Tuple[int, str]:
    if len(payload) < _ERR.size:
        raise FrameError("truncated error payload")
    status, _ = _ERR.unpack_from(payload, 0)
    message = bytes(payload[_ERR.size:]).decode("utf-8", "replace")
    return status, message


def encode_ping(request_id: int = 0) -> bytes:
    return encode_header(OP_PING, 0, request_id, 0)


def encode_pong(request_id: int = 0) -> bytes:
    return encode_header(OP_PONG, 0, request_id, 0)


def raise_for_error(payload: Buffer) -> None:
    """Raise the serve-layer exception an ``OP_ERROR`` payload encodes:
    the class :data:`~repro.errors.ERROR_TABLE` lists for its status,
    :class:`~repro.errors.ServeError` for any other."""
    status, message = decode_error(payload)
    cls = _RAISED_AS.get(status, ServeError)
    if cls is ServeError:
        message = f"binary server error {status}: {message}"
    raise cls(message)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Client:
    """Blocking reference client for the binary protocol.

    One connection, request/response or pipelined::

        with Client(host, port) as client:
            results = client.query_batch("census", lngs, lats, exact=True)

        # pipelined: N requests in flight on one connection
        ids = [client.send_query("census", lngs, lats) for _ in range(8)]
        for rid in ids:
            got_rid, results = client.recv_results()
            assert got_rid == rid

    **Fault tolerance.** Every request frame is held in a pending table
    until its response (matched by echoed request id) arrives. If the
    connection dies — reset, EOF, or a receive timeout, after which the
    byte stream can no longer be framed — the client closes it, drops
    the (now untrustworthy) receive buffer, and reconnects with
    exponential backoff plus jitter, bounded by ``timeout`` per call
    and ``retries`` attempts per reconnection round. On reconnect it
    replays every pending frame oldest-first: the server answers
    strictly in submission order and queries/joins are idempotent
    reads, so replay returns exactly the answers the dead connection
    owed, in the order the pipelining caller expects. ``retries=0``
    disables reconnection entirely — failures then surface as
    :class:`~repro.errors.ConnectionLostError` (a
    :class:`~repro.errors.ServeError`) and the client refuses further
    use of the broken stream rather than desynchronize.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 retries: int = 2, backoff_s: float = 0.05,
                 backoff_max_s: float = 2.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.backoff_max_s = float(backoff_max_s)
        self._buf = bytearray()
        self._next_id = 1
        #: Unacknowledged request frames by id, in submission order.
        self._pending: Dict[int, bytes] = {}
        self._dead = False
        self._death_reason = ""
        self._closed = False
        self.reconnects = 0
        self.sock: Optional[socket.socket] = self._connect(timeout)

    def _connect(self, timeout: float) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=timeout)
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    # -- connection state ---------------------------------------------
    @property
    def owes_reply(self) -> bool:
        """Whether a request sent on this connection is still
        unanswered — its reply, or a replay's, is what the next
        ``recv`` on this stream returns."""
        return bool(self._pending)

    def _mark_dead(self, reason: str) -> None:
        """The stream cannot be trusted past this point: drop the
        receive buffer (it may hold a partial frame) and the socket."""
        self._dead = True
        self._death_reason = reason
        self._buf.clear()
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass

    def _ensure_connected(self, deadline: float) -> None:
        """Reconnect (and replay pending frames) if the connection died.

        Exponential backoff with jitter between attempts, bounded by
        ``retries`` per round and the caller's ``deadline`` overall.
        """
        if self.sock is not None and not self._dead:
            return
        if self._closed:
            raise ConnectionLostError("binary client is closed")
        if self.retries <= 0:
            raise ConnectionLostError(
                f"binary connection to {self.host}:{self.port} is dead "
                f"({self._death_reason}) and reconnection is disabled")
        attempts = 0
        backoff = self.backoff_s
        last = self._death_reason
        while True:
            remaining = deadline - time.monotonic()
            if attempts >= self.retries or remaining <= 0:
                raise ConnectionLostError(
                    f"could not reconnect to {self.host}:{self.port} "
                    f"after {attempts} attempt(s) "
                    f"(last error: {last or 'deadline exceeded'})")
            attempts += 1
            try:
                sock = self._connect(min(self.timeout, remaining))
                self.sock = sock
                self._buf.clear()
                self._dead = False
                self.reconnects += 1
                # replay every unacknowledged frame oldest-first: the
                # server answers strictly in order, so the new stream
                # owes exactly the responses the dead one did
                for frame in list(self._pending.values()):
                    sock.sendall(frame)
                return
            except OSError as exc:
                last = f"{type(exc).__name__}: {exc}"
                self._mark_dead(last)
            time.sleep(min(max(deadline - time.monotonic(), 0.0),
                           backoff * (0.5 + random.random())))
            backoff = min(backoff * 2.0, self.backoff_max_s)

    # -- low-level ----------------------------------------------------
    def _take_id(self, request_id: Optional[int]) -> int:
        if request_id is None:
            request_id = self._next_id
            self._next_id += 1
        return request_id

    def _recv_frame(self) -> Tuple[int, int, bytes]:
        """``(op, request_id, payload)`` for the next frame.

        Any receive failure — EOF, reset, or a timeout that may have
        left a *partial frame* in the buffer — marks the connection
        dead and clears the buffer before raising, so a later call can
        never misparse the tail of an abandoned frame as a new header.
        """
        sock = self.sock
        if sock is None:
            raise ConnectionLostError("binary client has no connection")
        while True:
            try:
                header = try_parse_header(self._buf)
            except FrameError:
                self._mark_dead("fatal frame error from server")
                raise
            if header is not None:
                op, _, request_id, payload_len = header
                total = HEADER_SIZE + payload_len
                if len(self._buf) >= total:
                    payload = bytes(
                        memoryview(self._buf)[HEADER_SIZE:total])
                    del self._buf[:total]
                    return op, request_id, payload
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout as exc:
                mid = len(self._buf) > 0
                self._mark_dead("receive timeout"
                                + (" mid-frame" if mid else ""))
                raise ConnectionLostError(
                    f"binary receive timed out"
                    f"{' with a partial frame buffered' if mid else ''}; "
                    f"the stream can no longer be framed and the "
                    f"connection was closed") from exc
            except OSError as exc:
                self._mark_dead(f"{type(exc).__name__}: {exc}")
                raise ConnectionLostError(
                    f"binary connection to {self.host}:{self.port} "
                    f"died mid-receive: {exc}") from exc
            if not chunk:
                self._mark_dead("server closed the connection")
                raise ConnectionLostError(
                    "binary connection closed by server mid-frame")
            self._buf += chunk

    def recv(self) -> Tuple[int, int, bytes]:
        """Next frame as ``(op, request_id, payload)``; raises the
        mapped exception for ``OP_ERROR`` frames.

        Reconnects and replays pending frames on a dead connection
        (see the class docstring) until the response arrives or the
        per-call deadline (``timeout``) passes.
        """
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                self._ensure_connected(deadline)
                op, request_id, payload = self._recv_frame()
            except ConnectionLostError:
                if self.retries <= 0 or time.monotonic() >= deadline:
                    raise
                continue
            self._pending.pop(request_id, None)
            if op == OP_ERROR:
                raise_for_error(payload)
            return op, request_id, payload

    def _send(self, frame: bytes, request_id: int) -> None:
        """Record ``frame`` as pending, then put it on the wire —
        through a reconnect (which replays it) if the connection died."""
        if self._closed:
            raise ConnectionLostError("binary client is closed")
        self._pending[request_id] = frame
        deadline = time.monotonic() + self.timeout
        while True:
            if self.sock is None or self._dead:
                # reconnecting replays every pending frame, this one
                # included — nothing further to send
                self._ensure_connected(deadline)
                return
            try:
                self.sock.sendall(frame)
                return
            except OSError as exc:
                self._mark_dead(f"send failed: {exc}")
                if self.retries <= 0 or time.monotonic() >= deadline:
                    raise ConnectionLostError(
                        f"binary send to {self.host}:{self.port} "
                        f"failed: {exc}") from exc

    # -- pipelining ---------------------------------------------------
    def _send_points(self, op: int, index: str, lngs: PointArray,
                     lats: PointArray, exact: bool,
                     budget_ms: Optional[float],
                     request_id: Optional[int]) -> int:
        request_id = self._take_id(request_id)
        self._send(encode_points_request(
            op, index, np.asarray(lngs), np.asarray(lats), exact=exact,
            budget_ms=budget_ms, request_id=request_id), request_id)
        return request_id

    def send_query(self, index: str, lngs: PointArray, lats: PointArray,
                   exact: bool = False,
                   budget_ms: Optional[float] = None,
                   request_id: Optional[int] = None) -> int:
        return self._send_points(OP_QUERY, index, lngs, lats, exact,
                                 budget_ms, request_id)

    def send_join(self, index: str, lngs: PointArray, lats: PointArray,
                  exact: bool = False,
                  budget_ms: Optional[float] = None,
                  request_id: Optional[int] = None) -> int:
        return self._send_points(OP_JOIN, index, lngs, lats, exact,
                                 budget_ms, request_id)

    def send_forward_query(self, index: str, lngs: PointArray,
                           lats: PointArray, exact: bool = False,
                           budget_ms: Optional[float] = None,
                           request_id: Optional[int] = None) -> int:
        """Shard-router fan-out: answered from the receiver's local
        slice, never re-routed (see ``OP_FORWARD_QUERY``)."""
        return self._send_points(OP_FORWARD_QUERY, index, lngs, lats,
                                 exact, budget_ms, request_id)

    def send_forward_join(self, index: str, lngs: PointArray,
                          lats: PointArray, exact: bool = False,
                          budget_ms: Optional[float] = None,
                          request_id: Optional[int] = None) -> int:
        """Shard-router join fan-out (see ``OP_FORWARD_JOIN``)."""
        return self._send_points(OP_FORWARD_JOIN, index, lngs, lats,
                                 exact, budget_ms, request_id)

    def _recv_reply(self, want: int, decode):
        op, request_id, payload = self.recv()
        if op != want:
            raise ServeError(f"expected op 0x{want:02x}, got op 0x{op:02x}")
        return request_id, decode(payload)

    def recv_results(self) -> Tuple[int, ResultBatch]:
        return self._recv_reply(OP_RESULTS, decode_results)

    def recv_counts(self) -> Tuple[int, Dict[int, int]]:
        return self._recv_reply(OP_COUNTS, decode_counts)

    # -- one-shot -----------------------------------------------------
    def ping(self) -> bool:
        request_id = self._take_id(None)
        self._send(encode_ping(request_id), request_id)
        op, got, _ = self.recv()
        return op == OP_PONG and got == request_id

    @staticmethod
    def _matched(sent: int, reply: tuple):
        """The answer in ``reply``, which must be the one to ``sent``."""
        request_id, answer = reply
        if request_id != sent:
            raise ServeError(
                f"response id {request_id} does not match request "
                f"{sent} (pipelining misuse?)")
        return answer

    def query_batch(self, index: str, lngs: PointArray, lats: PointArray,  # repro-lint: hot
                    exact: bool = False,
                    budget_ms: Optional[float] = None,
                    ) -> ResultBatch:
        sent = self.send_query(index, lngs, lats, exact=exact,
                               budget_ms=budget_ms)
        return self._matched(sent, self.recv_results())

    def join(self, index: str, lngs: PointArray, lats: PointArray,  # repro-lint: hot
             exact: bool = False,
             budget_ms: Optional[float] = None) -> Dict[int, int]:
        sent = self.send_join(index, lngs, lats, exact=exact,
                              budget_ms=budget_ms)
        return self._matched(sent, self.recv_counts())

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = None
        self._dead = True
        self._closed = True
        self._death_reason = "closed by caller"
        self._pending.clear()
        self._buf.clear()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
