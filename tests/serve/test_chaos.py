"""Chaos-harness tests: injected faults against the live serving stack.

The fault-tolerance layer is only trustworthy if it has met real
faults, so this suite arms :mod:`repro.serve.chaos` against live
servers and fleets and asserts the contracts the rest of the stack
advertises: a corrupt artifact can never be served (rejected
fleet-wide, old generation keeps answering 100% 2xx), a SIGKILLed
worker under pipelined binary traffic loses no in-flight request, and
injected connection resets converge back to healthy. The integrity
perf gate (checksum verification <5% of an mmap cold load) lives here
too, since it is the price of the protection the rest of the suite
exercises.
"""

import json
import os
import shutil
import signal
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import ACTIndex
from repro.act.serialize import load_index, save_index
from repro.datasets import neighborhoods
from repro.errors import InvalidRequestError
from repro.serve import (
    ACTService,
    IndexRegistry,
    MetricsRegistry,
    binproto,
    chaos,
    create_server,
)
from repro.serve.fleet import FleetConfig, ServingFleet, fleet_available


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with this process disarmed."""
    chaos.configure("")
    yield
    chaos.configure("")


def _get(address, path, timeout=15.0):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _post(address, path, payload, timeout=60.0):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


class TestSpecParsing:
    def test_full_spec_round_trip(self):
        faults = chaos.parse_spec(
            "artifact.load=fail:1.0, query=slow:0.5:0.2,"
            "binary.request=reset")
        assert [(f.point, f.action, f.prob, f.arg) for f in faults] == [
            ("artifact.load", "fail", 1.0, 0.05),
            ("query", "slow", 0.5, 0.2),
            ("binary.request", "reset", 1.0, 0.05),
        ]

    def test_empty_spec_is_no_faults(self):
        assert chaos.parse_spec("") == []
        assert chaos.parse_spec(" , ,") == []

    @pytest.mark.parametrize("spec", [
        "query",                    # no action
        "nope=fail:1.0",            # unknown point
        "query=explode:1.0",        # unknown action
        "query=fail:2.0",           # probability out of range
        "query=fail:-0.1",
        "query=fail:x",             # non-numeric probability
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(InvalidRequestError):
            chaos.parse_spec(spec)

    def test_configure_arms_and_disarms(self):
        chaos.configure("query=slow:1.0:0.0")
        assert chaos.is_active()
        assert chaos.spec() == "query=slow:1.0:0.0"
        chaos.configure("")
        assert not chaos.is_active()
        assert chaos.spec() == ""


class TestInjectionSeam:
    def test_disarmed_seam_is_a_noop(self):
        for point in chaos.POINTS:
            chaos.fault(point)  # must not raise, sleep, or kill

    def test_fail_action_raises_and_counts(self):
        chaos.configure("artifact.load=fail:1.0")
        metrics = MetricsRegistry()
        with pytest.raises(OSError, match="chaos"):
            chaos.fault("artifact.load", metrics)
        assert metrics.counter("faults.chaos_injections").value == 1
        # other points stay quiet
        chaos.fault("query", metrics)
        assert metrics.counter("faults.chaos_injections").value == 1

    def test_reset_action_raises_connection_reset(self):
        chaos.configure("binary.request=reset:1.0")
        with pytest.raises(ConnectionResetError):
            chaos.fault("binary.request")

    def test_slow_action_sleeps(self):
        chaos.configure("query=slow:1.0:0.05")
        start = time.perf_counter()
        chaos.fault("query")
        assert time.perf_counter() - start >= 0.04

    def test_zero_probability_never_fires(self):
        chaos.configure("query=fail:0.0")
        for _ in range(100):
            chaos.fault("query")


class TestCorruptArtifactHelper:
    def test_bitflip_and_truncate_damage_detectably(self, nyc_index,
                                                    tmp_path):
        good = tmp_path / "good.npz"
        save_index(nyc_index, good)
        for mode in ("bitflip", "truncate"):
            bad = tmp_path / f"{mode}.npz"
            shutil.copyfile(good, bad)
            chaos.corrupt_artifact(bad, mode=mode)
            from repro.errors import ArtifactCorruptError
            with pytest.raises(ArtifactCorruptError):
                load_index(bad, mmap_mode="r", verify="full")
        from repro.errors import InvalidRequestError
        with pytest.raises(InvalidRequestError):
            chaos.corrupt_artifact(good, mode="arson")


class TestReloadVerificationEscalation:
    """Operator-shipped bytes are hashed in full at the admin boundary.

    Found by driving a live fleet: a bit flip deep in an mmap-ed node
    pool passes ``verify="header"`` (lazy by design) AND the zip
    layer's CRC (mmap never inflates the member), so without the
    escalation a corrupt reload was *accepted*.
    """

    def test_admin_ops_reject_bitflipped_pool_under_mmap(self, nyc_index,
                                                         tmp_path):
        from repro.serve.lifecycle import fleet_of_one

        good = tmp_path / "good.npz"
        save_index(nyc_index, good)

        def bitflipped(name):
            bad = tmp_path / name
            shutil.copyfile(good, bad)
            chaos.corrupt_artifact(bad, mode="bitflip")
            return str(bad)

        # the lazy header mode cannot see the flip — that is the gap
        # the admin escalation closes
        load_index(bitflipped("probe.npz"), mmap_mode="r", verify="header")

        registry = IndexRegistry()
        registry.register_path("n", good, mmap_mode="r")
        (tmp_path / "state").mkdir()
        with ACTService(registry=registry) as service:
            single = fleet_of_one(service, tmp_path / "state")
            generation = registry.pin("n").generation
            for request in ({"op": "reload", "name": "n"},
                            {"op": "register", "name": "m"}):
                result = single.submit(
                    dict(request, path=bitflipped("bad.npz")))
                assert result["complete"] is False
                assert "ArtifactCorruptError" in result["error"]
            assert registry.pin("n").generation == generation  # old data
            assert registry.names() == ["n"]
            counters = service.metrics.snapshot()["counters"]
            assert counters["faults.artifact_corrupt"] == 2
            assert counters["faults.quarantined"] == 2


class TestChaosAdminAndReadyz:
    """The single-process HTTP surface: /admin/chaos and /readyz."""

    @pytest.fixture
    def server(self, nyc_index):
        service = ACTService()
        service.registry.register_index("nyc", nyc_index)
        srv = create_server(service, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()
        service.close()
        thread.join(timeout=5.0)

    def _address(self, server):
        return server.server_address[:2]

    def test_admin_chaos_arms_and_disarms(self, server):
        address = self._address(server)
        status, body = _post(address, "/admin/chaos",
                             {"spec": "query=slow:1.0:0.0"})
        assert status == 200 and body["active"] is True
        status, body = _get(address, "/admin/chaos")
        assert body["spec"] == "query=slow:1.0:0.0"
        status, body = _post(address, "/admin/chaos", {"spec": ""})
        assert status == 200 and body["active"] is False
        assert not chaos.is_active()

    def test_admin_chaos_rejects_bad_spec(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(self._address(server), "/admin/chaos",
                  {"spec": "nope=fail:1.0"})
        assert err.value.code == 400
        assert not chaos.is_active()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(self._address(server), "/admin/chaos", {"spec": 7})
        assert err.value.code == 400

    def test_readyz_tracks_materialization(self, server, nyc_index,
                                           tmp_path):
        address = self._address(server)
        status, body = _get(address, "/readyz")
        assert status == 200 and body["ready"] is True
        assert body["indexes"] == {"nyc": True}
        assert body["converged"] is True
        # a registered-but-cold index makes the process not ready …
        path = tmp_path / "cold.npz"
        save_index(nyc_index, path)
        server.service.registry.register_path("cold", path)
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(address, "/readyz")
        assert err.value.code == 503
        payload = json.loads(err.value.read())
        assert payload["ready"] is False
        assert payload["indexes"]["cold"] is False
        # … and serving its first query warms it back to ready
        status, _ = _get(address,
                         "/query?index=cold&lng=-73.97&lat=40.75")
        assert status == 200
        status, body = _get(address, "/readyz")
        assert status == 200 and body["indexes"]["cold"] is True


# ---------------------------------------------------------------------
# Live-fleet chaos (forks real processes, like test_fleet.py)
# ---------------------------------------------------------------------

fleet_only = pytest.mark.skipif(
    not fleet_available(),
    reason="fleet needs the 'fork' start method",
)


def _fleet_over_artifact(path, tmp_path, **overrides):
    registry = IndexRegistry()
    # mmap the pool (the production deployment shape — and the strict
    # case for integrity: the lazy header mode never hashes it)
    registry.register_path("nyc", path, mmap_mode="r")
    registry.pin("nyc")  # materialize pre-fork: workers start ready
    config = FleetConfig(workers=2, stats_interval_s=0.1,
                         restart_backoff_s=0.05,
                         artifact_dir=str(tmp_path), **overrides)
    return ServingFleet(registry, config)


def _wait_counter(fleet, name, minimum, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = fleet.stats()["counters"].get(name, 0)
        if value >= minimum:
            return value
        time.sleep(0.05)
    return fleet.stats()["counters"].get(name, 0)


@fleet_only
class TestFleetChaos:
    @pytest.fixture
    def artifact(self, nyc_index, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos-artifacts") / "nyc.npz"
        save_index(nyc_index, path)
        return path

    def test_corrupt_reload_rejected_fleet_wide(self, artifact,
                                                nyc_index, tmp_path):
        """The acceptance scenario: a deliberately corrupted artifact
        is reloaded into a live fleet under traffic. The reload must
        come back as a structured failure, the corrupt file must be
        quarantined, and the old generation must answer 100% 2xx with
        correct results during and after the abort."""
        lng, lat = -73.97, 40.75
        want = sorted(nyc_index.query_exact(lng, lat))
        bad = tmp_path / "bad.npz"
        shutil.copyfile(artifact, bad)
        # a single flipped bit deep in the stored node pool — the
        # hardest case: the zip layer never CRCs an mmap-ed member and
        # the header verify mode never hashes the pool, so only the
        # reload path's full-verification escalation can catch it
        chaos.corrupt_artifact(bad, mode="bitflip")

        failures = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, body = _get(
                        fleet.address,
                        f"/query?index=nyc&lng={lng}&lat={lat}&exact=1")
                except Exception as exc:  # non-2xx, cut connection, …
                    failures.append(repr(exc))
                    continue
                if status != 200 or sorted(body["true_hits"]) != want:
                    failures.append((status, body))

        with _fleet_over_artifact(artifact, tmp_path) as fleet:
            fleet.start()
            threads = [threading.Thread(target=hammer, daemon=True)
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)  # traffic flowing on generation 1

            status, body = _post(fleet.address, "/admin/reload",
                                 {"name": "nyc", "path": str(bad)})
            # structured failure, not a 5xx and not a hang
            assert status == 200
            assert body["complete"] is False
            assert body["rolled_back"] is False
            assert "ArtifactCorruptError" in body["error"]
            # the corrupt file was quarantined, not left for a retry
            assert body["quarantined"] and ".quarantine" in \
                body["quarantined"]
            assert not bad.exists()

            time.sleep(0.3)  # traffic continues after the abort
            # the fleet still converges and reports ready
            status, ready = _get(fleet.address, "/readyz")
            assert status == 200 and ready["ready"] is True

            # a good retry proves the fleet is undamaged
            status, body = _post(fleet.address, "/admin/reload",
                                 {"name": "nyc", "path": str(artifact)})
            assert status == 200 and body["complete"] is True, body

            # fault counters made it into the fleet-wide aggregation
            assert _wait_counter(fleet, "faults.artifact_corrupt", 1) >= 1
            assert _wait_counter(fleet, "faults.quarantined", 1) >= 1

            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not failures, failures[:10]

    def test_sigkill_under_pipelined_binary_traffic(self, artifact,
                                                    nyc_index,
                                                    query_points,
                                                    tmp_path):
        """SIGKILL every worker mid-pipeline: the resilient client must
        reconnect (to the supervisor's respawned workers) and replay
        its unacknowledged frames — zero in-flight requests lost."""
        lngs, lats = query_points
        expected = [nyc_index.query_exact(lng, lat)
                    for lng, lat in zip(lngs, lats)]
        with _fleet_over_artifact(artifact, tmp_path,
                                  binary_port=0) as fleet:
            fleet.start()
            host, _ = fleet.address
            client = binproto.Client(host, fleet.binary_address[1],
                                     timeout=30.0, retries=10,
                                     backoff_s=0.05)
            assert client.ping()
            # pipeline a burst, then kill every worker before reading
            sent = [client.send_query("nyc", lngs, lats, exact=True)
                    for _ in range(6)]
            for proc in list(fleet._processes):
                if proc is not None and proc.pid:
                    os.kill(proc.pid, signal.SIGKILL)
            answers = {}
            for _ in sent:
                rid, results = client.recv_results()
                answers[rid] = results
            client.close()
            # every pipelined request was answered, correctly, once
            assert sorted(answers) == sorted(sent)
            for rid in sent:
                got = [sorted(r.true_hits) for r in answers[rid]]
                assert got == [sorted(e) for e in expected]
            assert client.reconnects >= 1
            # the fleet healed: both workers respawned and serving
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and fleet.live_workers() < 2:
                time.sleep(0.05)
            assert fleet.live_workers() == 2

    def test_killed_coordinator_does_not_wedge_admin(self, artifact,
                                                     tmp_path):
        """A worker SIGKILLed while it coordinates a reload — inside
        ``submit``, holding the fleet-wide operation lock — must not
        leave that lock held: the next admin operation, from a sibling,
        acquires within its timeout and completes."""
        import http.client

        with _fleet_over_artifact(artifact, tmp_path,
                                  admin_timeout_s=15.0) as fleet:
            fleet.start()
            # one keep-alive connection, so that the worker that armed
            # the fault is the one that takes the reload
            conn = http.client.HTTPConnection(*fleet.address, timeout=30.0)
            headers = {"Content-Type": "application/json"}
            conn.request("POST", "/admin/chaos", headers=headers, body=(
                json.dumps({"spec": "artifact.load=kill:1.0"})))
            armed = conn.getresponse()
            assert armed.status == 200, armed.read()
            victim = json.loads(armed.read())["pid"]
            assert victim in [p.pid for p in fleet._processes]
            reload_request = {"name": "nyc", "path": str(artifact)}
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.request("POST", "/admin/reload", headers=headers,
                             body=json.dumps(reload_request))
                conn.getresponse()
            conn.close()
            # the parent is the sibling: no HTTP, so no chance of the
            # kernel handing the request to anyone in particular
            response = fleet.admin({"op": "reload", **reload_request})
            assert response["complete"] is True, response
            # the victim died before it wrote anything: this is the
            # first new generation
            assert response["generation"] == 2
            assert victim not in [p.pid for p in fleet._processes]

    def test_injected_resets_converge(self, artifact, nyc_index,
                                      query_points, tmp_path):
        """Arm connection-reset chaos on the binary front (workers
        inherit the armed state through fork): the client's transparent
        reconnect keeps every answer correct, and the injections are
        visible in the fleet counters."""
        lngs, lats = query_points
        expected = [sorted(nyc_index.query_exact(lng, lat))
                    for lng, lat in zip(lngs, lats)]
        chaos.configure("binary.request=reset:0.2")
        try:
            with _fleet_over_artifact(artifact, tmp_path,
                                      binary_port=0) as fleet:
                fleet.start()
                chaos.configure("")  # parent disarmed; workers stay armed
                host, _ = fleet.address
                client = binproto.Client(host, fleet.binary_address[1],
                                         timeout=30.0, retries=10,
                                         backoff_s=0.02)
                for _ in range(25):
                    results = client.query_batch("nyc", lngs, lats,
                                                 exact=True)
                    assert [sorted(r.true_hits) for r in results] == \
                        expected
                client.close()
                assert client.reconnects >= 1
                assert _wait_counter(
                    fleet, "faults.chaos_injections", 1) >= 1
        finally:
            chaos.configure("")


class TestIntegrityPerfGate:
    def test_header_verification_under_5_percent_of_cold_load(
            self, tmp_path_factory):
        """The acceptance perf gate: header-level verification must add
        <5% to an mmap cold load of a realistically sized artifact.
        Each of 150 pairs times one load of each mode in this thread's
        CPU time (``time.thread_time``: another process's load is not
        counted), in alternating order, and the gate reads the median
        of the pairs' ratios — a paired estimator, so drift between
        pairs cancels. A failing round gets one remeasure before the
        gate counts it."""
        polygons = neighborhoods(32, seed=3, complexity=3)
        index = ACTIndex.build(polygons, precision_meters=150.0)
        path = tmp_path_factory.mktemp("perf") / "gate.npz"
        save_index(index, path)
        # warm the page cache and the import paths
        load_index(path, mmap_mode="r", verify="off")
        load_index(path, mmap_mode="r", verify="header")

        def cpu_seconds(verify):
            start = time.thread_time()
            load_index(path, mmap_mode="r", verify=verify)
            return time.thread_time() - start

        def measure(pairs=150):
            ratios = []
            for pair in range(pairs):
                if pair % 2:
                    header = cpu_seconds("header")
                    off = cpu_seconds("off")
                else:
                    off = cpu_seconds("off")
                    header = cpu_seconds("header")
                ratios.append(header / off)
            return statistics.median(ratios) - 1.0

        overhead = measure()
        if overhead >= 0.05:  # one retry before failing
            overhead = measure()
        assert overhead < 0.05, (
            f"header verification costs {overhead:.1%} of an mmap cold "
            f"load (median of paired thread-CPU ratios)"
        )
