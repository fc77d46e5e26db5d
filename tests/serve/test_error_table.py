"""One error table (``repro.errors``): a failure's status is the one its
exception carries — on the JSON front, on the binary front for every
failure the two share, and in the reference client read back — and
every HTTP error body names the request and the process that failed."""

import http.client
import json
import os
import socket
import threading

import numpy as np
import pytest

from repro.act.serialize import save_index
from repro.errors import ERROR_TABLE, ServeError
from repro.serve import ACTService, binproto, create_server


@pytest.fixture(scope="module")
def fronts(nyc_index, tmp_path_factory):
    """One service behind one server — HTTP requests on its first
    address, binary frames on its second — plus an artifact of its
    index (registering it again under the served name is a conflict)."""
    service = ACTService()
    service.registry.register_index("nyc", nyc_index)
    server = create_server(service, port=0, binary_port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    artifact = tmp_path_factory.mktemp("artifact") / "nyc.npz"
    save_index(nyc_index, artifact)
    yield service, server, server.addresses[1], artifact
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _http(server, method, path, body=b"", length=None, request_id=None):
    """One raw request on a fresh connection: ``(response, body)``."""
    length = str(len(body)).encode() if length is None else length
    head = (method.encode() + b" " + path.encode() + b" HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: " + length + b"\r\n")
    if request_id is not None:
        head += b"X-Request-Id: " + request_id.encode() + b"\r\n"
    sock = socket.create_connection(("127.0.0.1", server.server_address[1]),
                                    timeout=10.0)
    try:
        sock.sendall(head + b"\r\n" + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response, response.read()
    finally:
        sock.close()


def _binary_status(binary_address, frame) -> int:
    """The ``OP_ERROR`` status the binary front answers ``frame`` with."""
    sock = socket.create_connection(binary_address, timeout=10.0)
    try:
        sock.sendall(frame)
        buf = b""
        while (header := binproto.try_parse_header(buf)) is None \
                or len(buf) < binproto.HEADER_SIZE + header[3]:
            chunk = sock.recv(1 << 16)
            assert chunk, "connection closed before a full frame"
            buf += chunk
    finally:
        sock.close()
    assert header[0] == binproto.OP_ERROR
    return binproto.decode_error(buf[binproto.HEADER_SIZE:])[0]


def _points(op, index="nyc", budget_ms=None):
    return binproto.encode_points_request(
        op, index, np.array([-73.91]), np.array([40.61]),
        budget_ms=budget_ms, request_id=5)


def _body(**fields) -> bytes:
    return json.dumps({"index": "nyc", "points": [[-73.97, 40.75]],
                       **fields}).encode()


def _boom(*args, **kwargs):
    raise RuntimeError("injected")  # not a ServeError: a 500


# (id, HTTP method, path, body, the binary frame for the same failure
# or None when only the JSON front has it, expected status)
_CASES = [
    ("unknown-index-query", "POST", "/query", _body(index="zzz"),
     _points(binproto.OP_QUERY, "zzz"), 404),
    ("unknown-index-join", "POST", "/join", _body(index="zzz"),
     _points(binproto.OP_JOIN, "zzz"), 404),
    ("shed", "POST", "/query", _body(budget_ms=-1),
     _points(binproto.OP_QUERY, budget_ms=-1), 503),
    ("malformed-points", "POST", "/query",
     b'{"index": "nyc", "points": [[1.0]]}',
     binproto.encode_header(binproto.OP_QUERY, 0, 5, 24)
     + binproto._REQ.pack(3, 0, 4, float("nan")) + b"nyc" + b"\0" * 5,
     400),
    ("internal", "POST", "/query", _body(), _points(binproto.OP_QUERY),
     500),
    ("unknown-index-get", "GET", "/query?index=zzz&lng=0&lat=0", b"",
     None, 404),
    ("no-route", "GET", "/nope", b"", None, 404),
    ("missing-params", "GET", "/query?index=nyc", b"", None, 400),
    ("nan-lng", "GET", "/query?index=nyc&lng=nan&lat=0", b"", None, 400),
    ("inf-lat", "GET", "/query?index=nyc&lng=0&lat=-inf", b"", None, 400),
    ("bad-budget", "GET", "/query?index=nyc&lng=0&lat=0&budget_ms=x",
     b"", None, 400),
    ("not-json", "POST", "/query", b"not json", None, 400),
    ("not-an-object", "POST", "/join", b"[1, 2]", None, 400),
    ("missing-fields", "POST", "/join", b'{"index": "nyc"}', None, 400),
    ("string-exact", "POST", "/query", _body(exact="false"), None, 400),
    ("number-trace", "POST", "/join", _body(trace=1), None, 400),
    ("bad-chaos-spec", "POST", "/admin/chaos", b'{"spec": 7}', None, 400),
    ("register-no-path", "POST", "/admin/register", b'{"name": "x"}',
     None, 400),
    ("register-missing-file", "POST", "/admin/register",
     b'{"name": "x", "path": "/nonexistent.npz"}', None, 400),
    ("duplicate-register", "POST", "/admin/register", b"ARTIFACT", None,
     409),
    ("reload-unknown", "POST", "/admin/reload", b'{"name": "ghost"}', None,
     404),
    ("delete-unknown", "DELETE", "/admin/index/ghost", b"", None, 404),
    ("not-sharded", "GET", "/admin/shards", b"", None, 404),
    ("off-loopback", "GET", "/admin/indexes", b"", None, 403),
    ("too-large", "POST", "/query", b"", None, 413),
    ("malformed-length", "POST", "/query", b"", None, 400),
]


@pytest.mark.parametrize("case, method, path, body, frame, status",
                         _CASES, ids=[case[0] for case in _CASES])
def test_status_and_error_body(fronts, monkeypatch, case, method, path,
                               body, frame, status):
    service, server, binary_address, artifact = fronts
    if case == "internal":
        # the binary front looks the method up on each frame
        monkeypatch.setattr(service, "query_batch", _boom)
    if case == "off-loopback":
        from repro.serve import server as server_module
        monkeypatch.setattr(server_module, "is_loopback", lambda ip: False)
    if body == b"ARTIFACT":
        body = json.dumps({"name": "nyc", "path": str(artifact)}).encode()
    length = {"too-large": b"2000000000",
              "malformed-length": b"-7"}.get(case)
    response, raw = _http(server, method, path, body, length=length,
                          request_id=f"case-{case}")
    assert response.status == status
    payload = json.loads(raw)
    assert payload["error"]
    assert payload["request_id"] == f"case-{case}"
    assert response.getheader("X-Request-Id") == f"case-{case}"
    assert payload["pid"] == os.getpid()
    assert payload.get("shed", False) is (status == 503)
    # a body the front cannot skip past closes the connection
    closes = case in ("too-large", "malformed-length")
    assert (response.getheader("Connection") == "close") is closes
    if frame is not None:
        assert _binary_status(binary_address, frame) == status


def test_batch_points_out_of_domain_are_misses_on_both_fronts(fronts):
    """Non-finite batch points are points outside the grid, not errors
    (only the scalar GET, which echoes lng/lat, refuses them)."""
    _, server, binary_address, _ = fronts
    body = b'{"index": "nyc", "points": [[NaN, 0.0], [0.0, Infinity]]}'
    response, raw = _http(server, "POST", "/query", body)
    assert response.status == 200
    assert [row["is_hit"] for row in json.loads(raw)["results"]] \
        == [False, False]
    with binproto.Client(*binary_address, timeout=10.0) as client:
        got = client.query_batch("nyc", [np.nan, 0.0], [0.0, np.inf])
    assert [result.is_hit for result in got] == [False, False]


def test_json_flags_are_booleans(fronts):
    """``"exact": "false"`` used to run exact mode (``bool("false")``);
    real booleans still pass."""
    _, server, _, _ = fronts
    for flag in (True, False):
        response, raw = _http(server, "POST", "/query",
                              _body(exact=flag, trace=flag))
        assert response.status == 200
        payload = json.loads(raw)
        assert payload["exact"] is flag and ("trace" in payload) is flag


@pytest.mark.parametrize("cls", ERROR_TABLE,
                         ids=[cls.__name__ for cls in ERROR_TABLE])
def test_client_raises_the_class_the_table_lists(cls):
    payload = binproto.encode_error(cls.status, "boom")[binproto.HEADER_SIZE:]
    with pytest.raises(ServeError) as excinfo:
        binproto.raise_for_error(payload)
    assert type(excinfo.value) is cls


def test_table_has_one_class_per_status():
    statuses = [cls.status for cls in ERROR_TABLE]
    assert statuses == sorted(set(statuses))
