"""Fleet smoke tests: pre-fork workers on one address, supervised.

Everything here forks real processes and speaks real HTTP, so the
module skips wholesale where ``fork`` is unavailable. Workloads are
kept tiny — the scaling measurements live in
``benchmarks/bench_12_fleet.py``.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (ACTService, FleetConfig, IndexRegistry,
                         ServingFleet, binproto, chaos)
from repro.serve.fleet import aggregate_snapshots, fleet_available

pytestmark = pytest.mark.skipif(
    not fleet_available(),
    reason="fleet needs the 'fork' start method",
)


def _get(address, path, timeout=15.0):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _get_text(address, path, timeout=15.0):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


def _post(address, path, payload, timeout=60.0):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _delete(address, path, timeout=60.0):
    host, port = address
    request = urllib.request.Request(f"http://{host}:{port}{path}",
                                     method="DELETE")
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture()
def fleet_registry(nyc_index):
    registry = IndexRegistry()
    registry.register_index("nyc", nyc_index)
    return registry


def _fleet(registry, **overrides):
    config = FleetConfig(workers=2, stats_interval_s=0.1,
                         restart_backoff_s=0.05, **overrides)
    return ServingFleet(registry, config)


def _await(condition, what, deadline_s=20.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {what}")


class TestFleetServing:
    def test_hammer_aggregated_stats_and_clean_shutdown(
            self, fleet_registry, nyc_index, query_points):
        lngs, lats = query_points
        with _fleet(fleet_registry) as fleet:
            fleet.start()
            sent = 0
            for lng, lat in zip(lngs[:40], lats[:40]):
                status, body = _get(
                    fleet.address,
                    f"/query?index=nyc&lng={lng}&lat={lat}&exact=1")
                assert status == 200
                expected = nyc_index.query_exact(lng, lat)
                assert sorted(body["true_hits"]) == sorted(expected)
                sent += 1
            # every worker publishes on its stats interval; poll until
            # the fleet-wide counter converges on what we sent
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                _, stats = _get(fleet.address, "/stats")
                fleet_view = stats["fleet"]
                if fleet_view["counters"]["queries.total"] == sent:
                    break
                time.sleep(0.1)
            assert fleet_view["workers"] == 2
            assert fleet_view["counters"]["queries.total"] == sent
            assert fleet_view["counters"]["queries.errors"] == 0
            assert fleet_view["qps"] > 0
            # the parent sees the same aggregate without HTTP
            parent_view = fleet.stats()
            assert parent_view["counters"]["queries.total"] == sent
            fleet.shutdown()
            exitcodes = [p.exitcode for p in fleet._processes
                         if p is not None]
            assert exitcodes == [0, 0], \
                "drained workers must exit cleanly, not be killed"

    def test_binary_roundtrip_against_live_fleet(
            self, fleet_registry, nyc_index, query_points):
        """CI smoke: one binary round-trip through ``binproto.Client``
        against a live 2-worker fleet, with the ``binary.*`` families
        visible in the fleet's ``/metrics`` exposition."""
        from repro.obs import validate_exposition
        from repro.serve import binproto

        lngs, lats = query_points
        with _fleet(fleet_registry, binary_port=0) as fleet:
            fleet.start()
            with binproto.Client(*fleet.binary_address,
                                 timeout=30.0) as client:
                assert client.ping()
                results = client.query_batch("nyc", lngs[:32], lats[:32],
                                             exact=True)
            for result, lng, lat in zip(results, lngs, lats):
                assert sorted(result.true_hits) == sorted(
                    nyc_index.query_exact(lng, lat))
            status, text = _get_text(fleet.address, "/metrics")
            assert status == 200
            assert validate_exposition(text) == []
            assert "repro_fleet_binary_requests_total" in text
            assert "repro_fleet_binary_request_seconds_bucket" in text
            fleet.shutdown()

    def test_shared_socket_fallback_serves(self, fleet_registry, nyc_index):
        # reuseport=False forces the classic one-socket pre-fork model
        with _fleet(fleet_registry, reuseport=False) as fleet:
            fleet.start()
            assert not fleet.reuseport
            for _ in range(10):
                status, body = _get(
                    fleet.address, "/query?index=nyc&lng=-73.97&lat=40.75")
                assert status == 200
                assert tuple(body["true_hits"]) == nyc_index.query(
                    -73.97, 40.75).true_hits

    def test_worker_crash_is_survived(self, fleet_registry):
        with _fleet(fleet_registry) as fleet:
            fleet.start()
            # traffic first, so the crashed worker has counters to lose
            for _ in range(20):
                _get(fleet.address, "/query?index=nyc&lng=-73.97&lat=40.75")
            time.sleep(0.3)  # let snapshots publish
            before = fleet.stats()["counters"]["queries.total"]
            status, body = _get(fleet.address, "/healthz")
            assert status == 200
            os.kill(body["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and fleet.restarts < 1:
                time.sleep(0.05)
            assert fleet.restarts >= 1, "supervisor never respawned"
            while time.monotonic() < deadline and fleet.live_workers() < 2:
                time.sleep(0.05)
            assert fleet.live_workers() == 2
            # /healthz answers again (possibly from the replacement)
            status, _ = _get(fleet.address, "/healthz")
            assert status == 200
            # the dead worker's counters were folded into the retired
            # baseline: fleet totals never go backwards across restarts
            assert fleet.stats()["counters"]["queries.total"] >= before

    def test_shutdown_racing_startup_still_drains(self, fleet_registry):
        """SIGTERM sent while a worker is still starting (no drain
        handler yet) must wait for the handler, not kill the worker."""
        for _ in range(3):
            with _fleet(fleet_registry) as fleet:
                fleet.start()
                fleet.shutdown()
                assert [p.exitcode for p in fleet._processes
                        if p is not None] == [0, 0]

    def test_parked_keepalive_connection_does_not_block_drain(
            self, fleet_registry):
        import http.client

        with _fleet(fleet_registry) as fleet:
            fleet.start()
            host, port = fleet.address
            # park an idle HTTP/1.1 keep-alive connection: the drain
            # closes it at once rather than join a thread that waits
            # for a request which never comes
            parked = http.client.HTTPConnection(host, port, timeout=30)
            parked.request("GET", "/healthz")
            parked.getresponse().read()
            start = time.monotonic()
            fleet.shutdown()
            drain = time.monotonic() - start
            parked.close()
            exitcodes = [p.exitcode for p in fleet._processes
                         if p is not None]
            assert exitcodes == [0, 0], \
                "drain must finish without killing workers"
            assert drain < 8.0

    def test_sigterm_drains_in_flight_requests(self, fleet_registry,
                                               nyc_index):
        from repro.datasets import taxi_points

        lngs, lats = taxi_points(200_000, seed=5)
        payload = {
            "index": "nyc",
            "points": [[float(a), float(b)] for a, b in zip(lngs, lats)],
            "exact": True,
        }
        # a 200k-point exact answer is a multi-MB JSON write; on a
        # loaded machine that can outlive the default 10 s drain
        # window, degrading the drain to a kill and flaking the test.
        with _fleet(fleet_registry, drain_timeout_s=30.0) as fleet:
            fleet.start()
            outcome = {}

            def client():
                try:
                    outcome["status"], body = _post(
                        fleet.address, "/query", payload)
                    outcome["num_points"] = body["num_points"]
                except Exception as exc:  # pragma: no cover - failure path
                    outcome["error"] = exc

            thread = threading.Thread(target=client)
            thread.start()
            # wait for *admission*, not a fixed sleep: queries.total
            # counts points when the batch is admitted and workers
            # publish every 0.1 s, so this triggers the drain while the
            # request is genuinely in flight. (A fixed sleep raced the
            # client's multi-MB JSON upload on slow machines and shut
            # the listener down before the request was ever accepted.)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and thread.is_alive():
                if fleet.stats()["counters"]["queries.total"] >= len(lngs):
                    break
                time.sleep(0.05)
            fleet.shutdown()
            thread.join(timeout=60.0)
            assert outcome.get("error") is None, \
                f"in-flight request was cut: {outcome.get('error')}"
            assert outcome["status"] == 200
            assert outcome["num_points"] == len(lngs)
            exitcodes = [p.exitcode for p in fleet._processes
                         if p is not None]
            assert all(code == 0 for code in exitcodes)


    def test_parked_binary_connection_does_not_block_sharded_drain(
            self, fleet_registry):
        with _fleet(fleet_registry, shards=2) as fleet:
            fleet.start()
            # park an idle binary connection: its thread sits in the
            # next-header read until the drain wakes it
            parked = binproto.Client(*fleet.binary_address, timeout=30.0)
            assert parked.ping()
            start = time.monotonic()
            fleet.shutdown()
            drain = time.monotonic() - start
            parked.close()
            exitcodes = [p.exitcode for p in fleet._processes
                         if p is not None]
            assert exitcodes == [0, 0], \
                "drain must finish without killing workers"
            assert drain < 8.0

    def test_sigterm_drains_routed_binary_frames(self, fleet_registry):
        from repro.datasets import taxi_points

        lngs, lats = taxi_points(20_000, seed=5)
        # every batch leg stalls 1 s at admission: once both workers
        # fired, slot 1 has read the forward and slot 0 runs its local
        # leg — the routed frame is in flight on both sides of the hop
        chaos.configure("query=slow:1.0:1.0")
        try:
            with _fleet(fleet_registry, shards=2,
                        drain_timeout_s=30.0) as fleet:
                fleet.start()
                chaos.configure("")  # parent disarmed; workers stay armed
                client = binproto.Client(*fleet.binary_address,
                                         timeout=60.0, retries=0)
                sent = client.send_query("nyc", lngs, lats, exact=True)
                _await(lambda: fleet.stats()["counters"].get(
                    "faults.chaos_injections", 0) >= 2,
                    "both legs of the routed batch admitted")
                fleet.shutdown()
                rid, results = client.recv_results()
                client.close()
                exitcodes = [p.exitcode for p in fleet._processes
                             if p is not None]
        finally:
            chaos.configure("")
        assert rid == sent
        plain = ACTService(registry=fleet_registry)
        try:
            assert results == plain.query_batch("nyc", lngs, lats,
                                                exact=True)
        finally:
            plain.close()
        assert exitcodes == [0, 0]

class TestFleetReload:
    """The fleet-wide zero-downtime reload protocol (admin surface).

    Two distinguishable index generations (west-half vs east-half
    polygon) are flipped via ``POST /admin/reload`` on a live worker
    while clients hammer ``/query`` and ``/join``: zero failed
    requests, and after the reload every worker answers from the new
    generation (each worker slot's ack is read off its snapshot; the
    ``/admin/indexes`` listing is then polled until both worker pids
    report it).
    """

    @pytest.fixture()
    def half_index_paths(self, tmp_path):
        from repro import ACTIndex
        from repro.act.serialize import save_index
        from repro.datasets.nyc import REGION
        from repro.geometry import Polygon

        mid_x = (REGION.min_x + REGION.max_x) / 2.0
        paths = {}
        for side, lo, hi in [("west", REGION.min_x, mid_x),
                             ("east", mid_x, REGION.max_x)]:
            polygon = Polygon([(lo, REGION.min_y), (hi, REGION.min_y),
                               (hi, REGION.max_y), (lo, REGION.max_y)])
            index = ACTIndex.build([polygon], precision_meters=500.0)
            paths[side] = tmp_path / f"{side}.npz"
            save_index(index, paths[side])
        probe = (REGION.min_x + 0.75 * (REGION.max_x - REGION.min_x),
                 REGION.min_y + 0.50 * (REGION.max_y - REGION.min_y))
        return paths, probe

    def test_fleet_wide_reload_under_traffic(self, half_index_paths):
        paths, (lng, lat) = half_index_paths
        registry = IndexRegistry()
        registry.register_path("halves", paths["west"], mmap_mode="r")
        answers = {"west": [], "east": [0]}
        state = {"history": ["west"], "pending": None}
        failures = []
        stop = threading.Event()

        def hammer(kind):
            while not stop.is_set():
                sent_at = len(state["history"])
                try:
                    if kind == "query":
                        _status, body = _get(
                            fleet.address,
                            f"/query?index=halves&lng={lng}&lat={lat}"
                            f"&exact=1")
                        got = sorted(body["true_hits"])
                    else:
                        _status, body = _post(fleet.address, "/join", {
                            "index": "halves", "exact": True,
                            "points": [[lng, lat]] * 4,
                        })
                        got = [0] if body["counts"] else []
                except Exception as exc:
                    failures.append(f"{kind}: {exc!r}")
                    continue
                received_at = len(state["history"])
                acceptable = set(state["history"][sent_at - 1:received_at])
                if state["pending"] is not None:
                    acceptable.add(state["pending"])
                if not any(got == answers[s] for s in acceptable):
                    failures.append(
                        f"{kind}: stale answer {got} "
                        f"(acceptable {sorted(acceptable)})")

        with _fleet(registry, admin_timeout_s=60.0) as fleet:
            fleet.start()
            threads = [
                threading.Thread(target=hammer, args=(kind,), daemon=True)
                for kind in ("query", "join", "query")
            ]
            for thread in threads:
                thread.start()
            for side in ("east", "west", "east"):
                time.sleep(0.3)
                state["pending"] = side
                status, body = _post(fleet.address, "/admin/reload", {
                    "name": "halves", "path": str(paths[side]),
                    "mmap_mode": "r",
                }, timeout=90.0)
                assert status == 200
                # every worker mapped it before the call returned
                assert body["complete"] is True, body
                assert body["index"]["path"] == str(paths[side])
                assert set(body["acks"]) == {"0", "1"}
                for ack in body["acks"].values():
                    assert ack["ok"], ack
                state["history"].append(side)
                state["pending"] = None
            generation = body["generation"]
            assert generation == 4  # initial + three reloads
            time.sleep(0.3)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not failures, failures[:10]
            # post-reload, the answer reflects the final generation …
            for _ in range(8):
                _status, body = _get(
                    fleet.address,
                    f"/query?index=halves&lng={lng}&lat={lat}&exact=1")
                assert sorted(body["true_hits"]) == answers["east"]
            # … and every worker process reports serving it
            seen = {}
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and len(seen) < 2:
                _status, listing = _get(fleet.address, "/admin/indexes")
                (entry,) = listing["indexes"]
                seen[listing["worker"]] = (entry["generation"],
                                           entry["path"])
            assert seen == {0: (generation, str(paths["east"])),
                            1: (generation, str(paths["east"]))}
            # after reload-under-traffic, any worker's /metrics scrape
            # is valid exposition carrying the *final* generation label
            # and the bucket-merged fleet latency histogram
            from repro.obs import parse_exposition, validate_exposition

            deadline = time.monotonic() + 20.0
            families = {}
            while time.monotonic() < deadline:
                status, text = _get_text(fleet.address, "/metrics")
                assert status == 200
                assert validate_exposition(text) == []
                families = parse_exposition(text)
                if "repro_fleet_queries_latency_seconds" in families:
                    break
                time.sleep(0.1)  # first stats publish may lag
            fleet_latency = families["repro_fleet_queries_latency_seconds"]
            assert fleet_latency["type"] == "histogram"
            assert any(labels.get("le") == "+Inf"
                       for _name, labels, _v in fleet_latency["samples"])
            generations = {
                labels["generation"]
                for _name, labels, _v
                in families["repro_index_generation"]["samples"]
            }
            assert generations == {str(generation)}

    def test_fleet_reload_via_parent_api(self, half_index_paths):
        paths, (lng, lat) = half_index_paths
        registry = IndexRegistry()
        registry.register_path("halves", paths["west"], mmap_mode="r")
        with _fleet(registry, admin_timeout_s=60.0) as fleet:
            fleet.start()
            result = fleet.admin({
                "op": "reload", "name": "halves",
                "path": str(paths["east"]), "mmap_mode": "r",
            })
            assert result["complete"] is True, result
            assert result["generation"] == 2
            # the parent maps nothing; a worker describes what it serves
            assert result["index"]["path"] == str(paths["east"])
            assert result["index"]["materialized"] is True
            assert result["index"]["generation"] == 2
            assert result["index"]["num_polygons"] == 1
            _status, body = _get(
                fleet.address,
                f"/query?index=halves&lng={lng}&lat={lat}&exact=1")
            assert sorted(body["true_hits"]) == [0]

    def test_workers_keep_the_records_they_forked_with(
            self, half_index_paths):
        """A worker serves the parent's prewarmed record of the first
        directory — it maps the operator's file, never the directory's
        ``full.npz`` — until a reload; a worker respawned after it maps
        the reloaded directory, not the record it inherited."""
        paths, (lng, lat) = half_index_paths
        registry = IndexRegistry()
        registry.register_path("halves", paths["west"], mmap_mode="r")

        def archives(pid):
            """Every ``.npz`` the process has memory-mapped."""
            try:
                with open(f"/proc/{pid}/maps") as fp:
                    return {line.split(None, 5)[5].strip() for line in fp
                            if line.rstrip().endswith(".npz")}
            except FileNotFoundError:  # a worker that just died
                return set()

        def mapped(want):
            snaps = [fleet._snapshots.get(str(slot)) or {}
                     for slot in range(2)]
            return all(snap.get("mapped") == {"halves": want["generation"]}
                       and archives(snap.get("pid")) == {want["file"]}
                       and snap["indexes"][0]["path"] == want["path"]
                       for snap in snaps)

        with _fleet(registry, admin_timeout_s=60.0) as fleet:
            fleet.start()
            gens = os.path.join(fleet._artifact_dir, "gens", "halves")
            _await(lambda: mapped({"generation": 1,
                                   "file": str(paths["west"]),
                                   "path": str(paths["west"])}),
                   "workers on their inherited records")
            assert os.path.samefile(paths["west"],
                                    os.path.join(gens, "1", "full.npz"))
            result = fleet.admin({"op": "reload", "name": "halves",
                                  "path": str(paths["east"])})
            assert result["complete"] is True, result
            on_east = {"generation": 2, "path": str(paths["east"]),
                       "file": os.path.join(gens, "2", "full.npz")}
            _await(lambda: mapped(on_east), "workers on the reload")
            victim = fleet._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            _await(lambda: fleet.restarts >= 1
                   and fleet._processes[0].pid != victim.pid
                   and mapped(on_east), "the respawn on the reload")
            for _ in range(8):
                _status, body = _get(
                    fleet.address,
                    f"/query?index=halves&lng={lng}&lat={lat}&exact=1")
                assert sorted(body["true_hits"]) == [0]

    def test_fleet_register_and_unregister(self, half_index_paths,
                                           fleet_registry):
        paths, (lng, lat) = half_index_paths
        with _fleet(fleet_registry, admin_timeout_s=60.0) as fleet:
            fleet.start()
            status, body = _post(fleet.address, "/admin/register", {
                "name": "east", "path": str(paths["east"]),
                "mmap_mode": "r",
            }, timeout=90.0)
            assert status == 200 and body["complete"] is True, body
            # the new index serves on every worker (poll both pids)
            seen = set()
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and len(seen) < 2:
                _status, q = _get(
                    fleet.address,
                    f"/query?index=east&lng={lng}&lat={lat}&exact=1")
                assert sorted(q["true_hits"]) == [0]
                _status, listing = _get(fleet.address, "/admin/indexes")
                if {e["name"] for e in listing["indexes"]} >= \
                        {"east", "nyc"}:
                    seen.add(listing["worker"])
            assert seen == {0, 1}
            status, body = _delete(fleet.address, "/admin/index/east")
            assert status == 200 and body["complete"] is True, body
            # eventually 404s everywhere (either worker may answer)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    _get(fleet.address,
                         f"/query?index=east&lng={lng}&lat={lat}")
                except urllib.error.HTTPError as exc:
                    if exc.code == 404:
                        break
                time.sleep(0.05)
            else:
                pytest.fail("unregistered index kept serving")


class TestAggregation:
    def _snapshot(self, worker, total, shed, uptime, samples):
        from repro.obs import MergeableHistogram

        latency = MergeableHistogram()
        for s in samples:
            latency.observe(s)
        return {
            "worker": worker,
            "pid": 1000 + worker,
            "uptime_seconds": uptime,
            "metrics": {
                "counters": {"queries.total": total, "queries.shed": shed},
                "histograms": {
                    "queries.latency_seconds": latency.snapshot(),
                },
            },
        }

    def test_aggregate_snapshots(self):
        # worker 0 is the slow one: its samples dominate the fleet tail
        view = aggregate_snapshots({
            0: self._snapshot(0, total=100, shed=2, uptime=10.0,
                              samples=[0.05] * 100),
            1: self._snapshot(1, total=300, shed=0, uptime=8.0,
                              samples=[0.01] * 300),
        })
        assert view["workers"] == 2
        assert view["counters"]["queries.total"] == 400
        assert view["counters"]["queries.shed"] == 2
        assert view["qps"] == pytest.approx(40.0)  # 400 over max uptime
        assert [w["worker"] for w in view["per_worker"]] == [0, 1]
        # bucket-merged fleet quantiles are quantiles of the union of
        # all 400 samples: p99 lands in the slow worker's bucket (the
        # top quarter of traffic), p50 in the fast worker's — the old
        # worst-worker aggregation would have called p50 0.05 too
        merged = view["histograms"]["queries.latency_seconds"]
        assert merged["count"] == 400
        assert view["latency_p99_seconds"] == pytest.approx(0.05, rel=0.6)
        assert view["latency_p50_seconds"] == pytest.approx(0.01, rel=0.6)
        assert view["latency_p50_seconds"] < view["latency_p99_seconds"]

    def test_aggregate_empty(self):
        view = aggregate_snapshots({})
        assert view["workers"] == 0
        assert view["qps"] == 0.0

    def test_aggregate_includes_retired_counters(self):
        from repro.serve.fleet import RETIRED_KEY

        view = aggregate_snapshots({
            0: self._snapshot(0, total=50, shed=0, uptime=5.0,
                              samples=[0.01] * 50),
            RETIRED_KEY: {"counters": {"queries.total": 1000,
                                       "queries.shed": 7}},
        })
        # crashed predecessors' counters keep the totals monotone
        assert view["workers"] == 1
        assert view["counters"]["queries.total"] == 1050
        assert view["counters"]["queries.shed"] == 7
        assert view["retired_counters"]["queries.total"] == 1000

    def test_aggregate_includes_retired_histograms(self):
        from repro.serve.fleet import RETIRED_KEY

        # the nested retired shape the supervisor writes when a worker
        # dies: its counters plus its bucket-merged latency snapshot
        dead = self._snapshot(0, total=200, shed=1, uptime=9.0,
                              samples=[0.2] * 200)["metrics"]
        view = aggregate_snapshots({
            1: self._snapshot(1, total=100, shed=0, uptime=5.0,
                              samples=[0.001] * 100),
            RETIRED_KEY: {"counters": dead["counters"],
                          "histograms": dead["histograms"]},
        })
        # a crashed worker's slow samples stay in the fleet quantiles
        assert view["counters"]["queries.total"] == 300
        merged = view["histograms"]["queries.latency_seconds"]
        assert merged["count"] == 300
        assert view["latency_p99_seconds"] == pytest.approx(0.2, rel=0.6)

    def test_restart_backoff_escalates_and_resets(self, fleet_registry):
        fleet = _fleet(fleet_registry)
        fleet._backoffs = [0.1, 0.1]
        fleet._spawn_times = [time.monotonic(), time.monotonic() - 60.0]
        # slot 0 died young: backoff doubles toward the cap
        assert fleet._next_backoff(0) == pytest.approx(0.2)
        assert fleet._next_backoff(0) == pytest.approx(0.4)
        for _ in range(10):
            fleet._next_backoff(0)
        assert fleet._backoffs[0] == fleet.config.restart_backoff_max_s
        # slot 1 ran for a minute before dying: back to the base pause
        assert fleet._next_backoff(1) == pytest.approx(
            fleet.config.restart_backoff_s)

    def test_restart_backoff_young_threshold_scales(self, fleet_registry):
        # "died young" is judged against the *current* backoff
        # (max(1.0, 2·backoff)), so an escalated slot demands a longer
        # clean run before it forgives
        fleet = _fleet(fleet_registry, restart_backoff_max_s=5.0)
        fleet._backoffs = [2.0, 2.0]
        # 3 s of uptime < 2·2.0 s: still young, keeps escalating
        fleet._spawn_times = [time.monotonic() - 3.0,
                              time.monotonic() - 4.5]
        assert fleet._next_backoff(0) == pytest.approx(4.0)
        # 4.5 s of uptime > 2·2.0 s: survived the probation, resets
        assert fleet._next_backoff(1) == pytest.approx(
            fleet.config.restart_backoff_s)
        # a sub-second base still uses the 1 s floor for "young"
        fleet._backoffs = [0.05, 0.05]
        fleet._spawn_times = [time.monotonic() - 0.5,
                              time.monotonic() - 1.5]
        assert fleet._next_backoff(0) == pytest.approx(0.1)   # young
        assert fleet._next_backoff(1) == pytest.approx(       # not
            fleet.config.restart_backoff_s)


def _children_of(pid):
    """Live (non-zombie) child pids of ``pid``, from ``/proc``."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fp:
                # "pid (comm) state ppid ..." — comm may hold spaces
                state, ppid = fp.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # exited between the listing and the read
        if int(ppid) == pid and state != "Z":
            children.add(int(entry))
    return children


class TestNoBroker:
    """Fleet state is files in the artifact directory: no process
    stands between the workers, and nothing is adopted from a
    previous run that used the same directory."""

    @pytest.mark.parametrize("shards", [0, 2])
    def test_a_started_fleet_has_exactly_its_workers_as_children(
            self, fleet_registry, shards):
        before = _children_of(os.getpid())
        with _fleet(fleet_registry, shards=shards) as fleet:
            fleet.start()  # returns after the cutter child was joined
            workers = {p.pid for p in fleet._processes}
            assert len(workers) == 2
            assert _children_of(os.getpid()) - before == workers
            assert sorted(os.listdir(fleet._artifact_dir)) == [
                "current.json", "gens", "snapshots"]

    def test_importing_the_serving_package_loads_no_manager(self):
        import subprocess
        import sys

        code = ("import sys, repro.serve\n"
                "assert 'multiprocessing.managers' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       timeout=120.0)

    def test_a_reused_artifact_dir_starts_clean(self, nyc_index,
                                                tmp_path):
        """Start → serve → two reloads → shutdown, then start again on
        the same operator-supplied directory (with the debris of a run
        that never shut down planted in it): generation numbers and
        fleet totals begin again, and the last run's generation
        directories stay until then."""
        from repro.act.serialize import save_index
        from repro.serve.statedir import read_current

        source = tmp_path / "nyc.npz"
        save_index(nyc_index, source)
        artifacts = tmp_path / "artifacts"
        gens = artifacts / "gens" / "nyc"
        reload_request = {"op": "reload", "name": "nyc",
                          "path": str(source), "mmap_mode": "r"}

        def fleet_over(directory):
            registry = IndexRegistry()
            registry.register_path("nyc", str(source), mmap_mode="r")
            return _fleet(registry, artifact_dir=str(directory),
                          admin_timeout_s=60.0)

        def await_stats(fleet, condition):
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                view = fleet.stats()
                if condition(view):
                    return view
                time.sleep(0.05)
            raise AssertionError(f"fleet stats never converged: {view}")

        with fleet_over(artifacts) as fleet:
            fleet.start()
            for _ in range(5):
                _get(fleet.address,
                     "/query?index=nyc&lng=-73.97&lat=40.75")
            await_stats(fleet, lambda v: v["workers"] == 2
                        and v["counters"]["queries.total"] == 5)
            assert [fleet.admin(reload_request)["generation"]
                    for _ in range(2)] == [2, 3]
            assert read_current(artifacts) == {"nyc": 3}
        # shutdown removed the snapshots, and only them
        assert sorted(os.listdir(artifacts)) == [
            ".lock", "current.json", "gens"]
        assert sorted(os.listdir(gens)) == ["2", "3"]

        # what a fleet that was killed outright would have left behind
        (artifacts / "snapshots").mkdir()
        (artifacts / "snapshots" / "5").write_text(json.dumps({
            "worker": 5, "pid": 1, "uptime_seconds": 9.0, "metrics": {
                "counters": {"queries.total": 99}}}))
        (artifacts / "current.json").write_text(json.dumps({"nyc": "9"}))
        (gens / ".tmp-1-torn").mkdir()
        with fleet_over(artifacts) as fleet:
            fleet.start()
            view = await_stats(fleet, lambda v: v["workers"] == 2)
            assert view["counters"]["queries.total"] == 0
            assert "retired_counters" not in view
            response = fleet.admin(reload_request)
            assert response["complete"] is True, response
            # numbers the last run used, or a stale current.json, would
            # have made this reload 4 or 10
            assert response["generation"] == 2
            assert sorted(os.listdir(gens)) == ["1", "2"]
