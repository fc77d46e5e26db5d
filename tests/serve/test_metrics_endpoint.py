"""``GET /metrics``, request IDs, and forced traces over real HTTP."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import parse_exposition, validate_exposition
from repro.serve import ACTService, create_server


@pytest.fixture(scope="module")
def metrics_server(nyc_index):
    service = ACTService()
    service.registry.register("nyc", lambda: nyc_index)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, service
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _get_raw(server, path, headers=None):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {})
    with urllib.request.urlopen(request, timeout=10.0) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


def _scrape(server):
    status, headers, text = _get_raw(server, "/metrics")
    assert status == 200
    return headers, text


def _sample_value(families, family, name, want_labels=None):
    for sample_name, labels, value in families[family]["samples"]:
        if sample_name != name:
            continue
        if want_labels and any(labels.get(k) != v
                               for k, v in want_labels.items()):
            continue
        return value
    raise AssertionError(f"no sample {name} in {family}")


class TestMetricsEndpoint:
    def test_valid_exposition_and_content_type(self, metrics_server):
        server, _ = metrics_server
        headers, text = _scrape(server)
        assert headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        assert validate_exposition(text) == []

    def test_counters_monotone_across_scrapes(self, metrics_server):
        server, _ = metrics_server
        _get_raw(server, "/query?index=nyc&lng=-73.97&lat=40.75")
        _, text = _scrape(server)
        first = parse_exposition(text)
        before = _sample_value(first, "repro_queries_total",
                               "repro_queries_total")
        for _ in range(5):
            _get_raw(server, "/query?index=nyc&lng=-73.97&lat=40.75")
        _, text = _scrape(server)
        second = parse_exposition(text)
        after = _sample_value(second, "repro_queries_total",
                              "repro_queries_total")
        assert after >= before + 5
        # the latency histogram kept pace and stayed consistent
        count = _sample_value(second, "repro_queries_latency_seconds",
                              "repro_queries_latency_seconds_count")
        inf = _sample_value(second, "repro_queries_latency_seconds",
                            "repro_queries_latency_seconds_bucket",
                            {"le": "+Inf"})
        assert count == inf >= after

    def test_cache_rejections_are_rendered(self, metrics_server):
        server, service = metrics_server
        # a cell's first miss is a doorkeeper rejection
        _get_raw(server, "/query?index=nyc&lng=-73.91&lat=40.81")
        _, text = _scrape(server)
        rejected = _sample_value(parse_exposition(text),
                                 "repro_cache_rejected_total",
                                 "repro_cache_rejected_total")
        assert rejected == service.cache.rejected >= 1

    def test_generation_label_changes_across_reload(self, metrics_server):
        server, service = metrics_server
        _get_raw(server, "/query?index=nyc&lng=-73.97&lat=40.75")
        _, text = _scrape(server)
        families = parse_exposition(text)

        def generations(fams):
            return {
                labels["index"]: labels["generation"]
                for _n, labels, _v in
                fams["repro_index_generation"]["samples"]
            }

        before = generations(families)["nyc"]
        port = server.server_address[1]
        with urllib.request.urlopen(urllib.request.Request(
                f"http://127.0.0.1:{port}/admin/reload",
                data=json.dumps({"name": "nyc"}).encode("utf-8")),
                timeout=30.0) as resp:
            assert json.loads(resp.read())["complete"] is True
        _, text = _scrape(server)
        after = generations(parse_exposition(text))["nyc"]
        assert int(after) == int(before) + 1
        assert validate_exposition(text) == []


class TestRequestIds:
    def test_minted_id_on_every_response(self, metrics_server):
        server, _ = metrics_server
        _, headers, body = _get_raw(
            server, "/query?index=nyc&lng=-73.97&lat=40.75")
        minted = headers["X-Request-Id"]
        assert minted
        assert json.loads(body)["request_id"] == minted
        _, headers2, _ = _get_raw(server, "/healthz")
        assert headers2["X-Request-Id"] != minted

    def test_client_supplied_id_is_echoed(self, metrics_server):
        server, _ = metrics_server
        _, headers, body = _get_raw(
            server, "/query?index=nyc&lng=-73.97&lat=40.75",
            headers={"X-Request-Id": "client-abc-123"})
        assert headers["X-Request-Id"] == "client-abc-123"
        assert json.loads(body)["request_id"] == "client-abc-123"

    def test_error_responses_carry_the_id(self, metrics_server):
        server, _ = metrics_server
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get_raw(server, "/query?index=missing&lng=0&lat=0",
                     headers={"X-Request-Id": "err-42"})
        err = exc.value
        assert err.headers["X-Request-Id"] == "err-42"
        assert json.loads(err.read())["request_id"] == "err-42"

    def test_metrics_scrape_has_an_id_too(self, metrics_server):
        server, _ = metrics_server
        _, headers, _ = _get_raw(server, "/metrics")
        assert headers["X-Request-Id"]


class TestForcedTrace:
    def test_trace_param_returns_stage_breakdown(self, metrics_server):
        server, _ = metrics_server
        _, _, body = _get_raw(
            server, "/query?index=nyc&lng=-73.97&lat=40.75&trace=1")
        payload = json.loads(body)
        trace = payload["trace"]
        assert trace["request_id"] == payload["request_id"]
        stages = [s["stage"] for s in trace["stages"]]
        assert "serialize" in stages
        # acceptance criterion: the per-stage breakdown tiles the
        # request — stage sum within 10% of the end-to-end latency
        assert trace["stage_sum_ms"] <= trace["total_ms"]
        assert trace["stage_sum_ms"] == pytest.approx(
            trace["total_ms"], rel=0.10, abs=0.25)

    def test_untraced_requests_have_no_trace_key(self, metrics_server):
        server, _ = metrics_server
        _, _, body = _get_raw(
            server, "/query?index=nyc&lng=-73.97&lat=40.75")
        assert "trace" not in json.loads(body)


class TestSlowlogEndpoint:
    def test_slowlog_route(self, metrics_server):
        server, service = metrics_server
        service.slowlog.clear()
        service.slowlog.maybe_record(
            service.slowlog.threshold_s + 1.0, "query",
            request_id="slow-http")
        _, _, body = _get_raw(server, "/admin/slowlog")
        payload = json.loads(body)
        assert [e["request_id"] for e in payload["slow_queries"]] == \
            ["slow-http"]
        assert payload["stats"]["size"] == 1
        assert payload["pid"] == payload["slow_queries"][0]["pid"]
