"""HTTP smoke tests: the JSON API served by ``repro-act serve``."""

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from _legacy_results import json_rows
from repro.act.core import QueryResult, ResultBatch
from repro.serve import ACTService, create_server
from repro.serve.server import ACTRequestHandler


@pytest.fixture(scope="module")
def http_server(nyc_index):
    service = ACTService()
    service.registry.register_index("nyc", nyc_index)
    server = create_server(service, port=0)  # free port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _get(server, path):
    port = server.server_address[1]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10.0) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as resp:
        return resp.status, json.loads(resp.read())


class TestRoutes:
    def test_healthz(self, http_server):
        status, body = _get(http_server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["indexes"] == ["nyc"]

    def test_query(self, http_server, nyc_index):
        status, body = _get(
            http_server, "/query?index=nyc&lng=-73.97&lat=40.75")
        assert status == 200
        expected = nyc_index.query(-73.97, 40.75)
        assert tuple(body["true_hits"]) == expected.true_hits
        assert tuple(body["candidates"]) == expected.candidates
        assert body["is_hit"] == expected.is_hit

    def test_query_exact(self, http_server, nyc_index):
        status, body = _get(
            http_server, "/query?index=nyc&lng=-73.97&lat=40.75&exact=1")
        assert status == 200
        assert sorted(body["true_hits"]) == sorted(
            nyc_index.query_exact(-73.97, 40.75))
        assert body["candidates"] == []

    def test_batch_query(self, http_server, nyc_index):
        points = [[-73.97, 40.75], [-74.0, 40.7], [0.0, 0.0]]
        status, body = _post(http_server, "/query",
                             {"index": "nyc", "points": points})
        assert status == 200
        assert body["num_points"] == 3
        assert len(body["results"]) == 3
        for result, (lng, lat) in zip(body["results"], points):
            want = nyc_index.query(lng, lat)
            assert tuple(result["true_hits"]) == want.true_hits
            assert tuple(result["candidates"]) == want.candidates
            assert result["is_hit"] == want.is_hit

    def test_batch_query_exact(self, http_server, nyc_index):
        points = [[-73.97, 40.75], [-74.0, 40.7]]
        status, body = _post(http_server, "/query",
                             {"index": "nyc", "points": points,
                              "exact": True})
        assert status == 200
        for result, (lng, lat) in zip(body["results"], points):
            assert sorted(result["true_hits"]) == sorted(
                nyc_index.query_exact(lng, lat))
            assert result["candidates"] == []

    def test_batch_body_is_the_list_based_one(self, http_server,
                                              monkeypatch):
        """The rows are read off the batch's columns; the body is, byte
        for byte, what one ``QueryResult`` per point serialized to."""
        # misses, true-only, candidate-only, both (a partition like the
        # nyc fixture never answers "both", so the batch is handed in)
        mixed = [QueryResult((), ()), QueryResult((1, 2), ()),
                 QueryResult((), (7,)), QueryResult((5,), (0, 3, 9)),
                 QueryResult((), ()), QueryResult((2, 1), (1,))]
        monkeypatch.setattr(
            http_server.service, "query_batch",
            lambda *args, **kwargs: ResultBatch.from_results(mixed))
        port = http_server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/query",
            data=json.dumps({"index": "nyc",
                             "points": [[0.0, 0.0]] * len(mixed)}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "rows-1"})
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            body = resp.read()
        assert body == json.dumps({
            "index": "nyc", "num_points": len(mixed), "exact": False,
            "request_id": "rows-1", "results": json_rows(mixed),
        }).encode("utf-8")

    def test_join(self, http_server, nyc_index):
        points = [[-73.97, 40.75], [-74.0, 40.7], [0.0, 0.0]]
        status, body = _post(http_server, "/join",
                             {"index": "nyc", "points": points})
        assert status == 200
        assert body["num_points"] == 3
        counts = nyc_index.count_points(
            [p[0] for p in points], [p[1] for p in points])
        expected = {str(i): int(c) for i, c in enumerate(counts) if c}
        assert body["counts"] == expected

    def test_stats(self, http_server):
        status, body = _get(http_server, "/stats")
        assert status == 200
        assert body["indexes"][0]["name"] == "nyc"
        assert "cache" in body and "metrics" in body


class TestErrorMapping:
    def _get_error(self, server, path):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server, path)
        with exc.value:  # the error holds its response open
            return exc.value.code, json.loads(exc.value.read())

    def test_unknown_route_404(self, http_server):
        code, _ = self._get_error(http_server, "/nope")
        assert code == 404

    def test_unknown_index_404(self, http_server):
        code, body = self._get_error(
            http_server, "/query?index=zzz&lng=0&lat=0")
        assert code == 404
        assert "zzz" in body["error"]

    def test_missing_params_400(self, http_server):
        code, _ = self._get_error(http_server, "/query?index=nyc")
        assert code == 400

    def test_bad_floats_400(self, http_server):
        code, _ = self._get_error(
            http_server, "/query?index=nyc&lng=abc&lat=40.7")
        assert code == 400

    def test_malformed_budget_400(self, http_server):
        code, body = self._get_error(
            http_server,
            "/query?index=nyc&lng=-73.97&lat=40.75&budget_ms=fifty")
        assert code == 400
        assert "budget_ms" in body["error"]

    def test_spent_budget_503(self, http_server):
        code, body = self._get_error(
            http_server,
            "/query?index=nyc&lng=-73.97&lat=40.75&budget_ms=-1")
        assert code == 503
        assert body["shed"] is True

    def test_bad_join_body_400(self, http_server):
        port = http_server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/join", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=10.0)
        exc.value.close()
        assert exc.value.code == 400

    def test_join_missing_fields_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(http_server, "/join", {"index": "nyc"})
        exc.value.close()
        assert exc.value.code == 400

    def test_batch_query_missing_fields_400(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(http_server, "/query", {"points": [[0.0, 0.0]]})
        exc.value.close()
        assert exc.value.code == 400

    def test_batch_query_invalid_request_400(self, http_server):
        # InvalidRequestError raised inside the service (e.g. mismatched
        # batch arrays) must surface as 400, not a 500 from deep inside
        # the batch descent
        from repro.errors import InvalidRequestError

        service = http_server.service
        original = service.query_batch

        def mismatched(*args, **kwargs):
            return original("nyc", [-73.97, -74.0], [40.75], **kwargs)

        service.query_batch = mismatched
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _post(http_server, "/query",
                      {"index": "nyc", "points": [[-73.97, 40.75]]})
        finally:
            service.query_batch = original
        with exc.value:
            assert exc.value.code == 400
            assert "shapes" in json.loads(exc.value.read())["error"]
        with pytest.raises(InvalidRequestError):
            service.query_batch("nyc", [-73.97, -74.0], [40.75])

    def test_batch_query_unknown_index_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(http_server, "/query",
                  {"index": "zzz", "points": [[0.0, 0.0]]})
        exc.value.close()
        assert exc.value.code == 404

    def test_batch_query_spent_budget_503(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(http_server, "/query",
                  {"index": "nyc", "points": [[-73.97, 40.75]],
                   "budget_ms": -1})
        exc.value.close()
        assert exc.value.code == 503


class TestKeepAliveContentLength:
    """A malformed Content-Length means the request body cannot be
    located on the stream; the server must answer 400 and close the
    connection, not silently misparse the body as the next request."""

    def _raw(self, http_server):
        port = http_server.server_address[1]
        sock = socket.create_connection(("127.0.0.1", port),
                                        timeout=10.0)
        sock.settimeout(10.0)
        return sock

    @staticmethod
    def _request(content_length) -> bytes:
        body = b'{"index": "nyc", "points": [[0.0, 0.0]]}'
        return (b"POST /query HTTP/1.1\r\n"
                b"Host: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + content_length + b"\r\n"
                b"\r\n" + body)

    @staticmethod
    def _read_response(sock) -> bytes:
        """Read until the server closes (EOF) — asserts no hang."""
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)

    @pytest.mark.parametrize("bad", [b"abc", b"-7"],
                             ids=["non-numeric", "negative"])
    def test_malformed_content_length_400_and_close(self, http_server,
                                                    bad):
        sock = self._raw(http_server)
        try:
            sock.sendall(self._request(bad))
            response = self._read_response(sock)
        finally:
            sock.close()
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in head.lower()
        assert b"malformed Content-Length" in payload
        # _read_response returning proves EOF: the unread body was not
        # silently consumed as a second pipelined request

    @pytest.mark.parametrize("huge", [b"2000000000", b"100000000000"],
                             ids=["2e9", "1e11"])
    def test_oversized_content_length_413_and_close(self, http_server,
                                                    huge):
        """Over the 64 MiB frame limit nothing is read: a 2e9 length
        would park the handler thread waiting for the body, a 1e11 one
        would raise MemoryError (a 500) before reading a byte."""
        sock = self._raw(http_server)
        try:
            sock.sendall(self._request(huge))
            response = self._read_response(sock)
        finally:
            sock.close()
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"connection: close" in head.lower()
        assert json.loads(payload)["error"].startswith(
            "Content-Length " + huge.decode())

    def test_valid_keep_alive_still_pipelines(self, http_server):
        """Control: two well-formed requests on one connection both get
        answers (the close is for malformed framing only)."""
        sock = self._raw(http_server)
        try:
            request = self._request(b"40")
            sock.sendall(request + request)
            seen = b""
            while seen.count(b"HTTP/1.1 200") < 2:
                chunk = sock.recv(1 << 16)
                assert chunk, "connection closed before both responses"
                seen += chunk
        finally:
            sock.close()


def _exchange(server, request: bytes):
    """One raw request on a fresh connection: its response (an
    ``http.client.HTTPResponse``), the response body, and the client's
    address as the server sees it."""
    sock = socket.create_connection(("127.0.0.1", server.server_address[1]),
                                    timeout=10.0)
    try:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response, response.read(), sock.getsockname()
    finally:
        sock.close()


class TestStdlibErrors:
    """``send_error`` — the stdlib's own refusals — answers like every
    other error of the front: JSON, with a request id."""

    def test_unknown_method_501_is_json(self, http_server):
        response, body, _ = _exchange(
            http_server, b"PUT /query HTTP/1.1\r\nHost: x\r\n"
                         b"X-Request-Id: client-chosen\r\n\r\n")
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Connection") == "close"
        request_id = response.getheader("X-Request-Id")
        # minted: the stdlib may refuse before the headers are parsed
        assert request_id and request_id != "client-chosen"
        payload = json.loads(body)
        assert payload["request_id"] == request_id
        assert "PUT" in payload["error"]

    def test_oversized_request_line_414_is_json(self, http_server):
        response, body, _ = _exchange(
            http_server,
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        assert response.status == 414
        assert response.getheader("Content-Type") == "application/json"
        assert json.loads(body)["request_id"] == \
            response.getheader("X-Request-Id")


class _WriteCountingHandler(ACTRequestHandler):
    """Records every ``wfile.write`` per connection, and the accepted
    socket's ``TCP_NODELAY``, keyed by the client's address."""

    def setup(self):
        super().setup()
        self.server.nodelay[self.client_address] = \
            self.connection.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)
        writes = self.server.writes.setdefault(self.client_address, [])
        write = self.wfile.write

        def counted(data):
            writes.append(bytes(data))  # before the client can see it
            return write(data)

        self.wfile.write = counted


@pytest.fixture(scope="module")
def counting_server(nyc_index):
    service = ACTService()
    service.registry.register_index("nyc", nyc_index)
    server = create_server(service, port=0)
    server.RequestHandlerClass = _WriteCountingHandler
    server.writes, server.nodelay = {}, {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _http(method: str, path: str, body: bytes = b"",
          length=None) -> bytes:
    length = str(len(body)).encode() if length is None else length
    return (method.encode() + b" " + path.encode() + b" HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: " + length + b"\r\n\r\n" + body)


_POINTS = b'{"index": "nyc", "points": [[-73.97, 40.75], [-74.0, 40.7]]}'


class TestOneWritePerResponse:
    """Status line, headers and body leave in one write on a socket with
    Nagle off. Written in two, the body waits out the client's delayed
    ACK (~40 ms on Linux) — the stall is counted here, not timed."""

    @pytest.mark.parametrize("request_bytes, status", [
        (_http("POST", "/query", _POINTS), 200),
        (_http("GET", "/query?index=nyc&lng=-73.97&lat=40.75"), 200),
        (_http("GET", "/metrics"), 200),
        (_http("GET", "/stats"), 200),
        (_http("POST", "/query", b"not json"), 400),
        (_http("GET", "/query?index=zzz&lng=0&lat=0"), 404),
        (_http("POST", "/query", b'{"index": "nyc", "points": '
                                 b'[[1.5, 2.5]], "budget_ms": -1}'), 503),
        (_http("POST", "/query", _POINTS, length=b"abc"), 400),
        (_http("POST", "/query", _POINTS, length=b"2000000000"), 413),
        (_http("PUT", "/query"), 501),
    ], ids=["post-query-200", "get-query-200", "metrics-200", "stats-200",
            "bad-body-400", "unknown-index-404", "shed-503",
            "malformed-length-400-close", "oversized-413", "stdlib-501"])
    def test_one_write(self, counting_server, request_bytes, status):
        response, body, client = _exchange(counting_server, request_bytes)
        assert response.status == status
        writes = counting_server.writes[client]
        assert len(writes) == 1, [w[:40] for w in writes]
        assert writes[0].endswith(body)
        assert counting_server.nodelay[client] != 0


class TestConcurrentClients:
    def test_parallel_requests(self, http_server, nyc_index, query_points):
        lngs, lats = query_points
        expected = [nyc_index.query(lng, lat)
                    for lng, lat in zip(lngs[:64], lats[:64])]
        failures = []

        def client(i):
            try:
                status, body = _get(
                    http_server,
                    f"/query?index=nyc&lng={lngs[i]}&lat={lats[i]}")
                if (status != 200
                        or tuple(body["true_hits"]) != expected[i].true_hits
                        or tuple(body["candidates"])
                        != expected[i].candidates):
                    failures.append((i, body))
            except Exception as exc:  # pragma: no cover - failure path
                failures.append((i, exc))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
