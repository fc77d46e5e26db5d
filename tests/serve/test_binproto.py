"""Codec tests for the zero-copy binary batch protocol
(:mod:`repro.serve.binproto`) — framing, strict bounds checking, and
the fatal/non-fatal error taxonomy, all without a live server."""

import numpy as np
import pytest

from repro.act.core import QueryResult
from repro.errors import (
    BudgetExceededError,
    InvalidRequestError,
    ServeError,
    UnknownIndexError,
)
from repro.serve import binproto


def _payload(frame: bytes) -> bytes:
    return frame[binproto.HEADER_SIZE:]


class TestHeader:
    def test_round_trip(self):
        frame = binproto.encode_header(binproto.OP_QUERY,
                                       binproto.FLAG_EXACT, 77, 160)
        assert len(frame) == binproto.HEADER_SIZE == 24
        op, flags, request_id, payload_len = \
            binproto.try_parse_header(frame)
        assert op == binproto.OP_QUERY
        assert flags == binproto.FLAG_EXACT
        assert request_id == 77
        assert payload_len == 160

    def test_short_buffer_waits(self):
        frame = binproto.encode_ping(1)
        for cut in range(binproto.HEADER_SIZE):
            assert binproto.try_parse_header(frame[:cut]) is None

    def test_offset_parse(self):
        frame = binproto.encode_ping(9)
        buf = b"\x00" * 5 + frame
        assert binproto.try_parse_header(buf, 5)[2] == 9

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda f: b"XXXB" + f[4:], "magic"),
        (lambda f: f[:4] + bytes([99]) + f[5:], "version"),
    ])
    def test_fatal_header_violations(self, mutate, fragment):
        frame = mutate(binproto.encode_ping(1))
        with pytest.raises(binproto.FrameError) as excinfo:
            binproto.try_parse_header(frame)
        assert excinfo.value.fatal
        assert fragment in str(excinfo.value)

    def test_oversized_declared_payload_is_fatal(self):
        frame = binproto.encode_header(
            binproto.OP_QUERY, 0, 1, binproto.MAX_FRAME_BYTES + 1)
        with pytest.raises(binproto.FrameError) as excinfo:
            binproto.try_parse_header(frame)
        assert excinfo.value.fatal
        assert "frame limit" in str(excinfo.value)

    def test_max_payload_is_not_fatal(self):
        frame = binproto.encode_header(
            binproto.OP_QUERY, 0, 1, binproto.MAX_FRAME_BYTES)
        assert binproto.try_parse_header(frame)[3] == \
            binproto.MAX_FRAME_BYTES


class TestPointsRequest:
    def test_round_trip_zero_copy(self):
        lngs = np.linspace(-74.1, -73.8, 33)
        lats = np.linspace(40.6, 40.9, 33)
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", lngs, lats, exact=True,
            budget_ms=12.5, request_id=5)
        op, flags, request_id, payload_len = \
            binproto.try_parse_header(frame)
        assert (op, flags, request_id) == (binproto.OP_QUERY,
                                           binproto.FLAG_EXACT, 5)
        payload = _payload(frame)
        assert len(payload) == payload_len
        name, got_lngs, got_lats, budget_ms = \
            binproto.decode_points_request(payload)
        assert name == "nyc"
        assert budget_ms == 12.5
        np.testing.assert_array_equal(got_lngs, lngs)
        np.testing.assert_array_equal(got_lats, lats)
        # zero-copy: the decoded columns are views into the payload
        assert got_lngs.base is not None
        assert got_lats.base is not None

    def test_columns_are_8_aligned_in_frame(self):
        # alignment holds for any name length thanks to the pad
        for name in ("a", "ab", "abc", "abcdefg", "x" * 13, "né"):
            frame = binproto.encode_points_request(
                binproto.OP_QUERY, name, np.zeros(3), np.zeros(3))
            name_bytes = len(name.encode("utf-8"))
            arrays_at = binproto.HEADER_SIZE + binproto._REQ.size + \
                name_bytes + ((-(binproto._REQ.size + name_bytes)) % 8)
            assert arrays_at % 8 == 0
            decoded = binproto.decode_points_request(_payload(frame))
            assert decoded[0] == name

    def test_no_budget_is_none(self):
        frame = binproto.encode_points_request(
            binproto.OP_JOIN, "n", np.zeros(1), np.zeros(1))
        assert binproto.decode_points_request(_payload(frame))[3] is None

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidRequestError):
            binproto.encode_points_request(
                binproto.OP_QUERY, "n", np.zeros(3), np.zeros(4))

    def test_truncated_payload_is_non_fatal(self):
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", np.zeros(10), np.zeros(10))
        with pytest.raises(binproto.FrameError) as excinfo:
            binproto.decode_points_request(_payload(frame)[:40])
        assert not excinfo.value.fatal
        assert excinfo.value.status == binproto.STATUS_BAD_REQUEST

    def test_overlong_name_length_is_non_fatal(self):
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", np.zeros(2), np.zeros(2))
        payload = bytearray(_payload(frame))
        payload[0:2] = (60_000).to_bytes(2, "little")  # name overruns
        with pytest.raises(binproto.FrameError) as excinfo:
            binproto.decode_points_request(bytes(payload))
        assert not excinfo.value.fatal

    def test_bad_utf8_name_is_non_fatal(self):
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "ab", np.zeros(1), np.zeros(1))
        payload = bytearray(_payload(frame))
        payload[binproto._REQ.size] = 0xFF  # invalid UTF-8 start byte
        with pytest.raises(binproto.FrameError) as excinfo:
            binproto.decode_points_request(bytes(payload))
        assert "UTF-8" in str(excinfo.value)


class TestResults:
    def test_round_trip(self):
        results = [
            QueryResult((1, 2), (7,)),
            QueryResult((), ()),
            QueryResult((5,), (0, 3, 9)),
        ]
        frame = binproto.encode_results(results, request_id=11)
        decoded = binproto.decode_results(_payload(frame))
        assert decoded == results

    def test_empty_batch(self):
        assert binproto.decode_results(
            _payload(binproto.encode_results([]))) == []

    def test_byte_budget_mismatch_rejected(self):
        frame = binproto.encode_results([QueryResult((1,), (2,))])
        with pytest.raises(binproto.FrameError):
            binproto.decode_results(_payload(frame)[:-8])

    def test_count_total_mismatch_rejected(self):
        frame = binproto.encode_results([QueryResult((1,), ())])
        payload = bytearray(_payload(frame))
        # bump the per-point true count without touching the total
        payload[binproto._RES.size] += 1
        with pytest.raises(binproto.FrameError) as excinfo:
            binproto.decode_results(bytes(payload))
        assert "disagree" in str(excinfo.value)


class TestCountsAndErrors:
    def test_counts_round_trip(self):
        ids = np.array([3, 17, 250], dtype=np.int64)
        counts = np.array([1, 40, 7], dtype=np.int64)
        frame = binproto.encode_counts(ids, counts, request_id=2)
        assert binproto.decode_counts(_payload(frame)) == \
            {3: 1, 17: 40, 250: 7}

    def test_counts_length_mismatch_rejected(self):
        frame = binproto.encode_counts(np.array([1]), np.array([2]))
        with pytest.raises(binproto.FrameError):
            binproto.decode_counts(_payload(frame) + b"\x00" * 8)

    def test_error_round_trip(self):
        frame = binproto.encode_error(404, "no index 'x'", request_id=9)
        status, message = binproto.decode_error(_payload(frame))
        assert (status, message) == (404, "no index 'x'")

    @pytest.mark.parametrize("status, exc", [
        (binproto.STATUS_NOT_FOUND, UnknownIndexError),
        (binproto.STATUS_SHED, BudgetExceededError),
        (binproto.STATUS_BAD_REQUEST, InvalidRequestError),
        (binproto.STATUS_INTERNAL, ServeError),
    ])
    def test_raise_for_error_mapping(self, status, exc):
        frame = binproto.encode_error(status, "boom")
        with pytest.raises(exc, match="boom"):
            binproto.raise_for_error(_payload(frame))


# ---------------------------------------------------------------------
# Client fault tolerance against a scripted raw-socket server
# ---------------------------------------------------------------------

import socket
import threading

from repro.errors import ConnectionLostError


class _ConnReader:
    """Incremental frame reader for scripted server connections."""

    def __init__(self, conn):
        self.conn = conn
        self.buf = bytearray()

    def frame(self):
        """``(op, request_id)`` of the next request, or ``None`` on
        EOF. Handles several pipelined frames per ``recv``."""
        while True:
            header = binproto.try_parse_header(self.buf)
            if header is not None:
                op, _, request_id, payload_len = header
                total = binproto.HEADER_SIZE + payload_len
                if len(self.buf) >= total:
                    del self.buf[:total]
                    return op, request_id
            try:
                chunk = self.conn.recv(1 << 16)
            except OSError:
                return None
            if not chunk:
                return None
            self.buf += chunk


class _ScriptedServer:
    """Raw-socket server whose per-connection behavior is scripted.

    Connection *k* runs ``scripts[k]`` (the last script repeats), which
    lets a test express "drop the first connection mid-pipeline, serve
    the second normally" deterministically.
    """

    def __init__(self, scripts):
        self.scripts = list(scripts)
        self.connections = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.1)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            script = self.scripts[
                min(self.connections, len(self.scripts) - 1)]
            self.connections += 1
            try:
                script(conn, self._stop)
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


def _stall_mid_frame(conn, stop):
    """Answer with *half* a pong header, then go silent."""
    got = _ConnReader(conn).frame()
    if got is not None:
        pong = binproto.encode_header(binproto.OP_PONG, 0, got[1], 0)
        conn.sendall(pong[:10])
        stop.wait(30.0)


def _drop_after_read(conn, stop):
    """Read one request and close without answering."""
    _ConnReader(conn).frame()


def _echo_pongs(conn, stop):
    reader = _ConnReader(conn)
    while True:
        got = reader.frame()
        if got is None:
            return
        conn.sendall(binproto.encode_header(
            binproto.OP_PONG, 0, got[1], 0))


def _answer_one_query_then_drop(conn, stop):
    got = _ConnReader(conn).frame()
    if got is not None:
        conn.sendall(_canned_results(got[1]))


def _echo_query_results(conn, stop):
    reader = _ConnReader(conn)
    while True:
        got = reader.frame()
        if got is None:
            return
        conn.sendall(_canned_results(got[1]))


def _canned_results(request_id):
    # a per-request-id payload so tests can prove which answer is whose
    return binproto.encode_results(
        [QueryResult((int(request_id),), ())], request_id=request_id)


class TestClientResilience:
    def test_timeout_mid_frame_never_desyncs(self):
        # regression: a receive timeout used to leave the half-received
        # frame in the buffer, desynchronizing every later response
        with _ScriptedServer([_stall_mid_frame]) as server:
            client = binproto.Client("127.0.0.1", server.port,
                                     timeout=0.4, retries=0)
            with pytest.raises(ConnectionLostError,
                               match="partial frame") as excinfo:
                client.ping()
            # typed (a ServeError subclass) so existing handlers catch it
            assert isinstance(excinfo.value, ServeError)
            # the untrustworthy tail was dropped with the connection …
            assert client._buf == bytearray()
            # … and with reconnection disabled the broken stream
            # refuses further use rather than misframe
            with pytest.raises(ConnectionLostError, match="disabled"):
                client.ping()

    def test_reconnect_replays_unacknowledged_ping(self):
        with _ScriptedServer([_drop_after_read, _echo_pongs]) as server:
            client = binproto.Client("127.0.0.1", server.port,
                                     timeout=10.0, retries=3,
                                     backoff_s=0.01)
            assert client.ping() is True  # survives the dropped conn
            assert client.reconnects == 1
            assert client._pending == {}
            assert client.ping() is True  # the new stream is healthy
            client.close()

    def test_reconnect_replays_pipeline_in_order(self):
        lngs, lats = [0.0], [0.0]
        with _ScriptedServer([_answer_one_query_then_drop,
                              _echo_query_results]) as server:
            client = binproto.Client("127.0.0.1", server.port,
                                     timeout=10.0, retries=3,
                                     backoff_s=0.01)
            assert not client.owes_reply
            sent = [client.send_query("idx", lngs, lats)
                    for _ in range(3)]
            got = []
            for _ in range(3):
                assert client.owes_reply  # until the last answer is in
                got.append(client.recv_results())
            assert not client.owes_reply
            client.close()
        # the dead connection owed responses 2 and 3; replay produced
        # exactly those, in pipeline order, each with its own answer
        assert [rid for rid, _ in got] == sent
        for rid, results in got:
            assert results == [QueryResult((rid,), ())]
        assert client.reconnects == 1

    def test_closed_client_refuses_reconnect(self):
        with _ScriptedServer([_echo_pongs]) as server:
            client = binproto.Client("127.0.0.1", server.port,
                                     timeout=5.0, retries=2)
            assert client.ping() is True
            client.close()
            with pytest.raises(ConnectionLostError, match="closed"):
                client.ping()
        assert client._pending == {}

    def test_retries_zero_send_failure_is_typed(self):
        with _ScriptedServer([_drop_after_read]) as server:
            client = binproto.Client("127.0.0.1", server.port,
                                     timeout=0.5, retries=0)
            with pytest.raises(ConnectionLostError):
                client.ping()
            client.close()
