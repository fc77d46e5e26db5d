"""Live tests for the binary front (:mod:`repro.serve.aserver`):
pipelining, malformed-frame robustness, and bit-identical parity with
the JSON path over one shared service."""

import json
import socket
import threading
import urllib.request

import numpy as np
import pytest

from repro.errors import ServeError, UnknownIndexError
from repro.serve import (
    ACTService,
    binproto,
    create_binary_frontend,
    create_server,
)


@pytest.fixture(scope="module")
def binary_stack(nyc_index):
    """One service behind both fronts: JSON HTTP and the binary plane."""
    service = ACTService()
    service.registry.register_index("nyc", nyc_index)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    frontend = create_binary_frontend(service)
    yield service, server, frontend
    frontend.stop()
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _client(frontend) -> binproto.Client:
    return binproto.Client(*frontend.address, timeout=30.0)


def _raw_connection(frontend) -> socket.socket:
    sock = socket.create_connection(frontend.address, timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _recv_frame(sock):
    """``(op, request_id, payload)`` read with plain socket recv."""
    buf = b""
    while True:
        header = binproto.try_parse_header(buf)
        if header is not None:
            op, _, request_id, payload_len = header
            if len(buf) >= binproto.HEADER_SIZE + payload_len:
                return op, request_id, \
                    buf[binproto.HEADER_SIZE:
                        binproto.HEADER_SIZE + payload_len]
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise AssertionError("connection closed before a full frame")
        buf += chunk


def _recv_eof(sock) -> bool:
    """True when the server closes cleanly (no hang, no reset)."""
    try:
        return sock.recv(1 << 16) == b""
    except ConnectionResetError:
        return False


class TestHappyPath:
    def test_ping(self, binary_stack):
        _, _, frontend = binary_stack
        with _client(frontend) as client:
            assert client.ping()

    @pytest.mark.parametrize("exact", [False, True])
    def test_query_parity_with_service(self, binary_stack, query_points,
                                       exact):
        service, _, frontend = binary_stack
        lngs, lats = query_points
        with _client(frontend) as client:
            got = client.query_batch("nyc", lngs, lats, exact=exact)
        want = service.query_batch("nyc", lngs, lats, exact=exact)
        assert got == want

    def test_join_parity_with_service(self, binary_stack, query_points):
        service, _, frontend = binary_stack
        lngs, lats = query_points
        with _client(frontend) as client:
            got = client.join("nyc", lngs, lats, exact=True)
        counts = service.join("nyc", lngs, lats, exact=True)
        want = {int(pid): int(c) for pid, c in enumerate(counts) if c}
        assert got == want

    def test_binary_bit_identical_to_json(self, binary_stack,
                                          query_points):
        """The acceptance property: both fronts, one batch, equal bits."""
        _, server, frontend = binary_stack
        lngs, lats = query_points
        with _client(frontend) as client:
            binary = client.query_batch("nyc", lngs, lats, exact=True)
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/query",
            data=json.dumps({
                "index": "nyc", "exact": True,
                "points": [[float(a), float(b)]
                           for a, b in zip(lngs, lats)],
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30.0) as response:
            via_json = json.loads(response.read())["results"]
        assert len(via_json) == len(binary)
        for from_json, from_binary in zip(via_json, binary):
            assert from_json["true_hits"] == list(from_binary.true_hits)
            assert from_json["candidates"] == \
                list(from_binary.candidates)

    def test_pipelining_answers_in_order(self, binary_stack,
                                         query_points):
        """N queued frames on one connection: in-order, id-matched."""
        service, _, frontend = binary_stack
        lngs, lats = query_points
        slices = [slice(i * 16, (i + 1) * 16) for i in range(12)]
        with _client(frontend) as client:
            sent = [client.send_query("nyc", lngs[s], lats[s],
                                      exact=(i % 2 == 0))
                    for i, s in enumerate(slices)]
            for i, (s, rid) in enumerate(zip(slices, sent)):
                got_rid, results = client.recv_results()
                assert got_rid == rid
                assert results == service.query_batch(
                    "nyc", lngs[s], lats[s], exact=(i % 2 == 0))

    def test_fragmented_frame_reassembly(self, binary_stack,
                                         query_points):
        _, _, frontend = binary_stack
        lngs, lats = query_points
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", lngs, lats, request_id=41)
        sock = _raw_connection(frontend)
        try:
            for at in range(0, len(frame), 23):  # misaligned dribble
                sock.sendall(frame[at:at + 23])
            op, rid, payload = _recv_frame(sock)
            assert (op, rid) == (binproto.OP_RESULTS, 41)
            assert len(binproto.decode_results(payload)) == len(lngs)
        finally:
            sock.close()


class TestRobustness:
    @pytest.mark.parametrize("frame, fragment", [
        (b"XXXB" + binproto.encode_ping(1)[4:], "magic"),
        (binproto.encode_ping(1)[:4] + bytes([9])
         + binproto.encode_ping(1)[5:], "version"),
        (binproto.encode_header(binproto.OP_QUERY, 0, 1,
                                binproto.MAX_FRAME_BYTES + 1),
         "frame limit"),
    ], ids=["bad-magic", "bad-version", "oversized"])
    def test_fatal_frames_get_error_then_close(self, binary_stack,
                                               frame, fragment):
        """Unsyncable streams: one clean error frame, then EOF —
        never a hung or reset connection."""
        _, _, frontend = binary_stack
        sock = _raw_connection(frontend)
        try:
            sock.sendall(frame)
            op, rid, payload = _recv_frame(sock)
            assert op == binproto.OP_ERROR
            assert rid == 0  # the frame's own id is untrustworthy
            status, message = binproto.decode_error(payload)
            assert status == binproto.STATUS_BAD_REQUEST
            assert fragment in message
            assert _recv_eof(sock)
        finally:
            sock.close()

    def test_truncated_request_keeps_connection(self, binary_stack):
        """A sound frame with an inconsistent payload is a per-frame
        error; the same connection then serves a good request."""
        _, _, frontend = binary_stack
        good = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", np.zeros(4), np.zeros(4))
        bad = binproto.encode_header(binproto.OP_QUERY, 0, 42, 24) \
            + _payloadless_request()
        sock = _raw_connection(frontend)
        try:
            sock.sendall(bad)
            op, rid, payload = _recv_frame(sock)
            assert (op, rid) == (binproto.OP_ERROR, 42)
            assert binproto.decode_error(payload)[0] == \
                binproto.STATUS_BAD_REQUEST
            sock.sendall(good)
            op, _, _ = _recv_frame(sock)
            assert op == binproto.OP_RESULTS
        finally:
            sock.close()

    def test_unknown_op_keeps_connection(self, binary_stack):
        _, _, frontend = binary_stack
        sock = _raw_connection(frontend)
        try:
            sock.sendall(binproto.encode_header(0x7E, 0, 3, 0))
            op, rid, payload = _recv_frame(sock)
            assert (op, rid) == (binproto.OP_ERROR, 3)
            assert "unknown op" in binproto.decode_error(payload)[1]
            sock.sendall(binproto.encode_ping(4))
            assert _recv_frame(sock)[0] == binproto.OP_PONG
        finally:
            sock.close()

    def test_unknown_index_maps_and_survives(self, binary_stack):
        _, _, frontend = binary_stack
        with _client(frontend) as client:
            with pytest.raises(UnknownIndexError):
                client.query_batch("nope", np.zeros(1), np.zeros(1))
            assert client.ping()  # non-fatal: same connection lives on

    def test_results_op_from_client_is_rejected(self, binary_stack):
        _, _, frontend = binary_stack
        sock = _raw_connection(frontend)
        try:
            sock.sendall(binproto.encode_results([], request_id=8))
            op, rid, _ = _recv_frame(sock)
            assert (op, rid) == (binproto.OP_ERROR, 8)
        finally:
            sock.close()


class TestTelemetry:
    def test_binary_counters_and_families(self, binary_stack,
                                          query_points):
        service, _, frontend = binary_stack
        lngs, lats = query_points
        before = service.metrics.snapshot()["counters"]
        with _client(frontend) as client:
            client.query_batch("nyc", lngs, lats)
        after = service.metrics.snapshot()["counters"]
        assert after["binary.requests"] == before["binary.requests"] + 1
        assert after["binary.frames"] == before["binary.frames"] + 1
        assert after["binary.bytes_in"] > before["binary.bytes_in"]
        assert after["binary.bytes_out"] > before["binary.bytes_out"]
        # the shared service path ran, so core counters moved too
        assert after["queries.total"] > before["queries.total"]
        text = service.prometheus_text()
        from repro.obs import validate_exposition
        assert validate_exposition(text) == []
        for family in ("repro_binary_requests_total",
                       "repro_binary_bytes_in_total",
                       "repro_binary_request_seconds_bucket"):
            assert family in text

    def test_frontend_is_single_use(self, binary_stack):
        _, _, frontend = binary_stack
        with pytest.raises(ServeError, match="single-use"):
            frontend.start()


def _payloadless_request() -> bytes:
    """24 declared payload bytes that cannot hold the 4 points the
    sub-header inside them promises."""
    return binproto._REQ.pack(3, 0, 4, float("nan")) + b"nyc" \
        + b"\x00" * (24 - binproto._REQ.size - 3)
