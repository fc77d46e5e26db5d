"""Live tests for the binary protocol (:mod:`repro.serve.aserver`) on
the one server: pipelining, malformed-frame robustness, bit-identical
parity with the JSON path over one shared service, both protocols on
every listening address, and the drain."""

import http.client
import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.datasets import taxi_points
from repro.errors import ServeError, UnknownIndexError
from repro.serve import ACTService, binproto, create_server


@pytest.fixture(scope="module")
def binary_stack(nyc_index):
    """One service behind one server on two addresses: the HTTP port
    and the ``--binary-port`` one (the third element)."""
    service = ACTService()
    service.registry.register_index("nyc", nyc_index)
    server = create_server(service, port=0, binary_port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, server, server.addresses[1]
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _client(address) -> binproto.Client:
    return binproto.Client(*address, timeout=30.0)


def _raw_connection(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=30.0)
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
        _, _, address = binary_stack
        with _client(address) as client:
            assert client.ping()

    @pytest.mark.parametrize("exact", [False, True])
    def test_query_parity_with_service(self, binary_stack, query_points,
                                       exact):
        service, _, address = binary_stack
        lngs, lats = query_points
        with _client(address) as client:
            got = client.query_batch("nyc", lngs, lats, exact=exact)
        want = service.query_batch("nyc", lngs, lats, exact=exact)
        assert got == want

    def test_join_parity_with_service(self, binary_stack, query_points):
        service, _, address = binary_stack
        lngs, lats = query_points
        with _client(address) as client:
            got = client.join("nyc", lngs, lats, exact=True)
        counts = service.join("nyc", lngs, lats, exact=True)
        want = {int(pid): int(c) for pid, c in enumerate(counts) if c}
        assert got == want

    def test_binary_bit_identical_to_json(self, binary_stack,
                                          query_points):
        """The acceptance property: both fronts, one batch, equal bits."""
        _, server, address = binary_stack
        lngs, lats = query_points
        with _client(address) as client:
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
        service, _, address = binary_stack
        lngs, lats = query_points
        slices = [slice(i * 16, (i + 1) * 16) for i in range(12)]
        with _client(address) as client:
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
        _, _, address = binary_stack
        lngs, lats = query_points
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", lngs, lats, request_id=41)
        sock = _raw_connection(address)
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
        _, _, address = binary_stack
        sock = _raw_connection(address)
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
        _, _, address = binary_stack
        good = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", np.zeros(4), np.zeros(4))
        bad = binproto.encode_header(binproto.OP_QUERY, 0, 42, 24) \
            + _payloadless_request()
        sock = _raw_connection(address)
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
        _, _, address = binary_stack
        sock = _raw_connection(address)
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
        _, _, address = binary_stack
        with _client(address) as client:
            with pytest.raises(UnknownIndexError):
                client.query_batch("nope", np.zeros(1), np.zeros(1))
            assert client.ping()  # non-fatal: same connection lives on

    def test_results_op_from_client_is_rejected(self, binary_stack):
        _, _, address = binary_stack
        sock = _raw_connection(address)
        try:
            sock.sendall(binproto.encode_results([], request_id=8))
            op, rid, _ = _recv_frame(sock)
            assert (op, rid) == (binproto.OP_ERROR, 8)
        finally:
            sock.close()


class TestTelemetry:
    def test_binary_counters_and_families(self, binary_stack,
                                          query_points):
        service, _, address = binary_stack
        lngs, lats = query_points
        before = service.metrics.snapshot()["counters"]
        with _client(address) as client:
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

    def test_frontend_is_single_use(self):
        """A drained server has closed its sockets: it cannot serve
        again."""
        service = ACTService()
        server = create_server(service, port=0)
        server.server_close()
        service.close()
        with pytest.raises(ServeError, match="single-use"):
            server.serve_forever()


def _payloadless_request() -> bytes:
    """24 declared payload bytes that cannot hold the 4 points the
    sub-header inside them promises."""
    return binproto._REQ.pack(3, 0, 4, float("nan")) + b"nyc" \
        + b"\x00" * (24 - binproto._REQ.size - 3)


def _post_query(address, lngs, lats, exact):
    """``POST /query`` over HTTP: the ``results`` rows."""
    request = urllib.request.Request(
        f"http://{address[0]}:{address[1]}/query",
        data=json.dumps({
            "index": "nyc", "exact": exact,
            "points": [[float(a), float(b)] for a, b in zip(lngs, lats)],
        }).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return json.loads(response.read())["results"]


def _rows(results):
    """``POST /query`` rows for an in-process ``ResultBatch``."""
    return [{"true_hits": list(r.true_hits),
             "candidates": list(r.candidates),
             "polygon_ids": list(r.true_hits) + list(r.candidates),
             "is_hit": r.is_hit} for r in results]


@pytest.mark.parametrize("listener", [0, 1], ids=["http-port",
                                                  "binary-port"])
class TestEveryListenerSpeaksBoth:
    """The HTTP address and the ``--binary-port`` address are two
    sockets of one server: each answers both protocols, bit-identical
    to the in-process service."""

    def test_ping(self, binary_stack, listener):
        _, server, _ = binary_stack
        address = server.addresses[listener]
        with _client(address) as client:
            assert client.ping()
        host, port = address
        with urllib.request.urlopen(f"http://{host}:{port}/healthz",
                                    timeout=30.0) as response:
            assert json.loads(response.read())["status"] == "ok"

    @pytest.mark.parametrize("exact", [False, True])
    def test_post_query(self, binary_stack, query_points, listener, exact):
        service, server, _ = binary_stack
        lngs, lats = query_points
        got = _post_query(server.addresses[listener], lngs, lats, exact)
        assert got == _rows(service.query_batch("nyc", lngs, lats,
                                                exact=exact))

    @pytest.mark.parametrize("exact", [False, True])
    def test_op_query(self, binary_stack, query_points, listener, exact):
        service, server, _ = binary_stack
        lngs, lats = query_points
        with _client(server.addresses[listener]) as client:
            got = client.query_batch("nyc", lngs, lats, exact=exact)
        assert got == service.query_batch("nyc", lngs, lats, exact=exact)


@pytest.fixture()
def fresh(nyc_index):
    """A server of its own, for tests that drain it or count its
    threads: ``(service, server)``."""
    service = ACTService()
    service.registry.register_index("nyc", nyc_index)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, server
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _accepted(server) -> None:
    """Return once every connection made so far to the server's first
    address has been accepted: a later connection's round trip implies
    it (one listening socket accepts in arrival order)."""
    with _client(server.server_address) as client:
        assert client.ping()


def _drain_in_background(server) -> threading.Thread:
    """Start the drain; return its thread, which finishes the drain."""
    server.shutdown()  # returns once the accept loop has stopped
    drain = threading.Thread(target=server.server_close)
    drain.start()
    return drain


class TestClassification:
    """A connection's first five bytes, peeked, pick its protocol."""

    def test_magic_one_byte_at_a_time(self, binary_stack, query_points):
        service, server, _ = binary_stack
        lngs, lats = query_points
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", lngs[:8], lats[:8], request_id=9)
        sock = _raw_connection(server.server_address)
        try:
            for at in range(8):  # the peek waits out a dribbled ACTB
                sock.sendall(frame[at:at + 1])
                time.sleep(0.01)
            sock.sendall(frame[8:])
            op, rid, payload = _recv_frame(sock)
            assert (op, rid) == (binproto.OP_RESULTS, 9)
            assert binproto.decode_results(payload) == \
                service.query_batch("nyc", lngs[:8], lats[:8])
        finally:
            sock.close()

    @pytest.mark.parametrize("listener", [0, 1], ids=["http-port",
                                                      "binary-port"])
    def test_put_answers_501_as_json(self, binary_stack, listener):
        _, server, _ = binary_stack
        conn = http.client.HTTPConnection(*server.addresses[listener],
                                          timeout=30.0)
        try:
            conn.request("PUT", "/")
            response = conn.getresponse()
            assert response.status == 501
            assert response.getheader("Content-Type") == \
                "application/json"
            assert "error" in json.loads(response.read())
        finally:
            conn.close()

    def test_peer_closing_after_two_bytes_leaves_nothing(self, fresh,
                                                         capsys):
        _, server = fresh
        _accepted(server)
        before = threading.active_count()
        sock = _raw_connection(server.server_address)
        sock.sendall(b"AC")
        sock.close()
        _accepted(server)
        deadline = time.monotonic() + 10.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= before
        assert "Traceback" not in capsys.readouterr().err

    def test_idle_connection_does_not_hold_the_drain(self, fresh):
        _, server = fresh
        idle = _raw_connection(server.server_address)  # never sends
        _accepted(server)
        start = time.monotonic()
        server.shutdown()
        server.server_close()
        assert time.monotonic() - start < 2.0
        try:
            assert _recv_eof(idle)
        finally:
            idle.close()


class TestDrain:
    """One drain: a connection parked between messages closes at once;
    a request or frame whose first byte has arrived is read in full and
    answered."""

    def test_parked_connection_closes_at_once(self, fresh):
        _, server = fresh
        parked = _raw_connection(server.server_address)
        try:
            parked.sendall(binproto.encode_ping(1))
            assert _recv_frame(parked)[0] == binproto.OP_PONG
            start = time.monotonic()
            server.shutdown()
            server.server_close()
            assert time.monotonic() - start < 2.0
            assert _recv_eof(parked)
        finally:
            parked.close()

    def test_half_received_frame_is_answered(self, fresh):
        service, server = fresh
        lngs, lats = taxi_points(1_000, seed=11)
        frame = binproto.encode_points_request(
            binproto.OP_QUERY, "nyc", lngs, lats, exact=True,
            request_id=77)
        sock = _raw_connection(server.server_address)
        try:
            sock.sendall(binproto.encode_ping(1))
            assert _recv_frame(sock)[0] == binproto.OP_PONG
            half = len(frame) // 2
            sock.sendall(frame[:half])
            drain = _drain_in_background(server)
            sock.sendall(frame[half:])
            op, rid, payload = _recv_frame(sock)
            drain.join(timeout=10.0)
            assert not drain.is_alive()
            assert (op, rid) == (binproto.OP_RESULTS, 77)
            assert binproto.decode_results(payload) == \
                service.query_batch("nyc", lngs, lats, exact=True)
            assert _recv_eof(sock)
        finally:
            sock.close()

    def test_half_received_post_is_answered(self, fresh):
        service, server = fresh
        lngs, lats = taxi_points(1_000, seed=11)
        body = json.dumps({
            "index": "nyc", "exact": True,
            "points": [[float(a), float(b)] for a, b in zip(lngs, lats)],
        }).encode("utf-8")
        request = (b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
                   + str(len(body)).encode() + b"\r\n\r\n" + body)
        sock = _raw_connection(server.server_address)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            first = http.client.HTTPResponse(sock)
            first.begin()
            assert first.status == 200
            first.read()
            half = len(request) // 2
            sock.sendall(request[:half])
            drain = _drain_in_background(server)
            sock.sendall(request[half:])
            response = http.client.HTTPResponse(sock)
            response.begin()
            results = json.loads(response.read())["results"]
            drain.join(timeout=10.0)
            assert not drain.is_alive()
            assert response.status == 200
            assert results == _rows(service.query_batch(
                "nyc", lngs, lats, exact=True))
        finally:
            sock.close()
