"""Index lifecycle tests: admin ops, the HTTP admin surface,
zero-downtime reload under live traffic (single-process), and the
fleet's generation directories driven by in-process workers. A single
process is a fleet of one (``fleet_of_one``), so every admin test here
runs the one implementation.

The forked fleet is exercised in ``test_fleet.py``; everything here
runs in one process (the crash points fork one short-lived writer) so
it is cheap enough for the tier-1 suite.
"""

import contextlib
import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import ACTIndex
from repro.act.serialize import load_index, save_index
from repro.datasets.nyc import REGION
from repro.errors import (ConflictError, InvalidRequestError,
                          UnknownIndexError)
from repro.geometry import Polygon
from repro.join.parallel import fork_available
from repro.serve import (
    ACTService,
    FleetLifecycle,
    IndexRegistry,
    ServeConfig,
    chaos,
    create_server,
    statedir,
)
from repro.serve.lifecycle import fleet_of_one
from repro.serve.statedir import (MANIFEST, first_generation, generation_dir,
                                  read_current, read_json, replace_current,
                                  write_generation)

#: Probe point deep inside the eastern half of the region: a miss for
#: the "west" index, a true hit (polygon 0) for the "east" index.
PROBE = (
    REGION.min_x + 0.75 * (REGION.max_x - REGION.min_x),
    REGION.min_y + 0.50 * (REGION.max_y - REGION.min_y),
)


def _half_region_polygon(side: str) -> Polygon:
    mid_x = (REGION.min_x + REGION.max_x) / 2.0
    lo = REGION.min_x if side == "west" else mid_x
    hi = mid_x if side == "west" else REGION.max_x
    return Polygon([(lo, REGION.min_y), (hi, REGION.min_y),
                    (hi, REGION.max_y), (lo, REGION.max_y)])


@pytest.fixture(scope="module")
def index_pair(tmp_path_factory):
    """Two serialized indexes whose answers differ at ``PROBE``."""
    base = tmp_path_factory.mktemp("generations")
    west = ACTIndex.build([_half_region_polygon("west")],
                          precision_meters=500.0)
    east = ACTIndex.build([_half_region_polygon("east")],
                          precision_meters=500.0)
    west_path = base / "west.npz"
    east_path = base / "east.npz"
    save_index(west, west_path)
    save_index(east, east_path)
    return west_path, east_path


@contextlib.contextmanager
def _running_server(service):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5.0)


def _get(server, path):
    port = server.server_address[1]
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    with urllib.request.urlopen(request, timeout=15.0) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30.0) as resp:
        return resp.status, json.loads(resp.read())


def _delete(server, path):
    port = server.server_address[1]
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     method="DELETE")
    with urllib.request.urlopen(request, timeout=15.0) as resp:
        return resp.status, json.loads(resp.read())


def _publish(root, name, path):
    """Publish ``path`` as ``name``'s next generation directory, the
    way the fleet's cutter does at start."""
    d = write_generation(root, name, full_from=path, source=path)
    replace_current(root, {**read_current(root), name: d})
    return d


def _workers(root, *registries):
    """In-process fleet workers over ``root``, one per registry (slot =
    position), each on what ``current.json`` names; returns their
    services, lifecycles and the snapshot dict their admin wait reads."""
    services = [ACTService(registry=registry) for registry in registries]
    snapshots = {}
    lifecycles = [FleetLifecycle(root, len(services), service=service,
                                 slot=slot, snapshots=snapshots,
                                 timeout_s=10.0)
                  for slot, service in enumerate(services)]
    for lifecycle in lifecycles:
        snapshots[str(lifecycle.slot)] = lifecycle.poll()
    return services, lifecycles, snapshots


def _answer(service, name="n"):
    return service.query(name, *PROBE, exact=True).true_hits


class TestApplyAdminOp:
    """Admin operations applied through the one path,
    :meth:`FleetLifecycle.submit`: a single process's fleet of one, or
    in-process fleet workers."""

    def test_register_reload_unregister_cycle(self, index_pair, tmp_path):
        west_path, east_path = index_pair
        service = ACTService()
        with service:
            single = fleet_of_one(service, tmp_path)
            out = single.submit({"op": "register", "name": "halves",
                                 "path": str(west_path)})
            assert out["generation"] == 1 and out["complete"] is True
            assert service.query("halves", *PROBE, exact=True).true_hits \
                == ()
            out = single.submit({"op": "reload", "name": "halves",
                                 "path": str(east_path)})
            assert out["generation"] == 2
            assert service.query("halves", *PROBE, exact=True).true_hits \
                == (0,)
            out = single.submit({"op": "unregister", "name": "halves"})
            assert out["name"] == "halves" and out["complete"] is True
            with pytest.raises(UnknownIndexError):
                service.query("halves", *PROBE)

    def test_reload_is_idempotent_by_generation(self, index_pair,
                                                tmp_path):
        """A worker maps a generation directory again only when it
        differs from the one it holds: polling the same ``current``
        twice keeps the very record, a new directory swaps it."""
        west_path, east_path = index_pair
        _publish(tmp_path, "w", west_path)
        (service,), (worker,), _ = _workers(tmp_path, IndexRegistry())
        with service:
            first = service.registry.pin("w")
            assert worker.poll()["mapped"] == {"w": 1}
            assert service.registry.pin("w") is first
            assert first.path == generation_dir(tmp_path, "w", 1) / "full.npz"
            _publish(tmp_path, "w", east_path)
            worker.poll()
            assert service.registry.pin("w").generation == 2
            assert _answer(service, "w") == (0,)

    def test_a_worker_keeps_the_record_it_forked_with(self, index_pair,
                                                      tmp_path):
        """The first directory is numbered after the prewarmed record it
        was written from, so a worker polling on the registry it forked
        with keeps that record (nothing reloads) and maps any other
        directory — including that number again after a rollback."""
        west_path, east_path = index_pair
        registry = IndexRegistry()
        registry.register_path("n", west_path, mmap_mode="r")
        registry.pin("n")
        registry.unregister("n")
        registry.register_path("n", west_path, mmap_mode="r")
        record = registry.pin("n")
        d = write_generation(tmp_path, "n", **first_generation(record))
        assert d == record.generation == 2
        replace_current(tmp_path, {"n": d})
        (service,), (worker,), _ = _workers(tmp_path, registry)
        with service:
            assert worker.report()["mapped"] == {"n": 2}
            assert service.registry.pin("n") is record
            _publish(tmp_path, "n", east_path)
            worker.poll()
            assert service.registry.pin("n").generation == 3
            assert service.registry.describe("n")["path"] == str(east_path)
            assert _answer(service) == (0,)
            replace_current(tmp_path, {"n": 2})
            worker.poll()
            assert service.registry.pin("n").generation == 2
            assert service.registry.describe("n")["path"] == str(west_path)
            assert _answer(service) == ()

    def test_a_fleet_refuses_another_mmap_mode(self, index_pair, tmp_path):
        """Workers map every generation read-only: a fleet request for
        another mode is refused before anything is written; ``"r"``, or
        no mode, is accepted."""
        west_path, east_path = index_pair
        _publish(tmp_path, "n", west_path)
        coord = FleetLifecycle(tmp_path, 0, timeout_s=5.0)
        for mode in ({"mmap_mode": None}, {"mmap_mode": "c"},
                     {"mmap": False}):
            with pytest.raises(InvalidRequestError, match="mmap_mode 'r'"):
                coord.submit({"op": "reload", "name": "n",
                              "path": str(east_path), **mode})
        assert os.listdir(tmp_path / "gens" / "n") == ["1"]
        for mode in ({"mmap_mode": "r"}, {"mmap": True}, {}):
            result = coord.submit({"op": "reload", "name": "n", **mode})
            assert result["complete"] is True, result

    def test_unregister_unknown_idempotent_for_followers_only(
            self, index_pair, tmp_path):
        west_path, _ = index_pair
        _publish(tmp_path, "n", west_path)
        (service,), (worker,), _ = _workers(tmp_path, IndexRegistry())
        with service:
            # a worker whose current.json dropped a name drops it once,
            # and polls quietly after that …
            replace_current(tmp_path, {})
            for _ in range(2):
                assert worker.poll()["mapped"] == {}
            assert service.registry.names() == []
            # … but an operator deleting an unknown index sees the 404,
            # from one process or fleet-wide
            (tmp_path / "single").mkdir()
            with ACTService() as alone:
                with pytest.raises(UnknownIndexError):
                    fleet_of_one(alone, tmp_path / "single").submit(
                        {"op": "unregister", "name": "ghost"})
            with pytest.raises(UnknownIndexError):
                worker.submit({"op": "unregister", "name": "n"})

    def test_generation_counter_survives_reregistration(self, index_pair,
                                                        tmp_path):
        # a request in flight across an unregister may still write
        # cache entries under the old name+generation; a re-registered
        # name must continue the sequence so those keys can never alias
        west_path, east_path = index_pair
        service = ACTService()
        with service:
            single = fleet_of_one(service, tmp_path)
            single.submit({"op": "register", "name": "n",
                           "path": str(west_path)})
            single.submit({"op": "reload", "name": "n"})
            assert service.registry.pin("n").generation == 2
            single.submit({"op": "unregister", "name": "n"})
            single.submit({"op": "register", "name": "n",
                           "path": str(east_path)})
            assert service.registry.pin("n").generation == 3

    def test_rollback_when_side_artifact_write_fails(
            self, index_pair, tmp_path, monkeypatch, publishing):
        """The disk fills up while the coordinator writes the new
        generation directory: the admin call raises, nothing is
        published — the coordinator itself never swapped — no partial
        directory is left, and the retry lands on the number the failed
        attempt never published."""
        west_path, east_path = index_pair
        _publish(tmp_path, "n", west_path)
        services, lifecycles, snapshots = _workers(
            tmp_path, IndexRegistry(), IndexRegistry())
        publishing(lifecycles[1:], snapshots)
        real = statedir.write_json

        def disk_full(path, value):
            if path.name == MANIFEST:
                raise OSError("disk full")
            return real(path, value)

        monkeypatch.setattr(statedir, "write_json", disk_full)
        reload = {"op": "reload", "name": "n", "path": str(east_path)}
        with pytest.raises(OSError, match="disk full"):
            lifecycles[0].submit(reload)
        assert read_current(tmp_path) == {"n": 1}
        assert os.listdir(tmp_path / "gens" / "n") == ["1"]
        assert [_answer(service) for service in services] == [(), ()]
        monkeypatch.undo()
        result = lifecycles[0].submit(reload)
        assert result["complete"] is True, result
        assert result["generation"] == 2
        assert [_answer(service) for service in services] == [(0,), (0,)]

    def test_submit_sweeps_stale_ack_keys(self, index_pair, tmp_path,
                                          publishing):
        """The fleet's state stays bounded however many operations run:
        one pointer file, the lock, and per name the served generation
        directory and the one before it — no temporaries, no
        per-operation records."""
        west_path, east_path = index_pair
        _publish(tmp_path, "n", west_path)
        services, lifecycles, snapshots = _workers(
            tmp_path, IndexRegistry(), IndexRegistry())
        publishing(lifecycles, snapshots)
        for step, path in enumerate([east_path, west_path] * 3):
            result = lifecycles[step % 2].submit(
                {"op": "reload", "name": "n", "path": str(path)})
            assert result["complete"] is True, result
        assert result["generation"] == 7
        assert sorted(os.listdir(tmp_path)) == [
            ".lock", "current.json", "gens"]
        assert sorted(os.listdir(tmp_path / "gens" / "n")) == ["6", "7"]

    def test_path_traversing_names_rejected(self):
        from repro.serve.lifecycle import request_to_op

        for name in ("a/b", "../x", "..", ".hidden", "a\\b", "/abs"):
            with pytest.raises(InvalidRequestError):
                request_to_op({"op": "reload", "name": name})
        op = request_to_op({"op": "reload", "name": "ok-1.2_x"})
        assert op.name == "ok-1.2_x"

    def test_request_validation(self, tmp_path):
        service = ACTService()
        with service:
            single = fleet_of_one(service, tmp_path)
            for request in ({"op": "explode", "name": "x"},
                            {"op": "reload"},
                            {"op": "register", "name": "x"},
                            {"op": "reload", "name": "x", "mmap_mode": "w"}):
                with pytest.raises(InvalidRequestError):
                    single.submit(request)

    def test_duplicate_register_rejected(self, index_pair, tmp_path):
        west_path, _ = index_pair
        service = ACTService()
        with service:
            single = fleet_of_one(service, tmp_path)
            register = {"op": "register", "name": "dup",
                        "path": str(west_path)}
            single.submit(register)
            with pytest.raises(ConflictError):
                single.submit(register)


class TestAdminHTTP:
    def test_admin_surface_end_to_end(self, index_pair):
        west_path, east_path = index_pair
        service = ACTService()
        with _running_server(service) as server:
            status, body = _post(server, "/admin/register", {
                "name": "halves", "path": str(west_path), "mmap_mode": "r",
            })
            assert status == 200
            assert body["generation"] == 1
            assert body["complete"] is True
            assert body["index"]["mmap_mode"] == "r"

            status, listing = _get(server, "/admin/indexes")
            assert status == 200
            (entry,) = listing["indexes"]
            assert entry["name"] == "halves"
            assert entry["generation"] == 1
            assert entry["source"] == "path"
            assert entry["bytes"] > 0
            assert entry["mmap_mode"] == "r"
            assert isinstance(listing["pid"], int)

            lng, lat = PROBE
            status, q = _get(
                server,
                f"/query?index=halves&lng={lng}&lat={lat}&exact=1")
            assert status == 200 and q["true_hits"] == []

            status, body = _post(server, "/admin/reload", {
                "name": "halves", "path": str(east_path),
            })
            assert status == 200
            assert body["generation"] == 2
            status, q = _get(
                server,
                f"/query?index=halves&lng={lng}&lat={lat}&exact=1")
            assert status == 200 and q["true_hits"] == [0]

            status, body = _delete(server, "/admin/index/halves")
            assert status == 200
            status, listing = _get(server, "/admin/indexes")
            assert listing["indexes"] == []

    def test_admin_error_codes(self, index_pair):
        west_path, _ = index_pair
        service = ACTService()
        with _running_server(service) as server:
            for method, path, payload, expected in [
                ("POST", "/admin/reload", {"name": "ghost"}, 404),
                ("DELETE", "/admin/index/ghost", None, 404),
                ("POST", "/admin/register", {"name": "x"}, 400),
                ("POST", "/admin/reload", {"name": 7}, 400),
                ("POST", "/admin/register",
                 {"name": "x", "path": "/nonexistent.npz"}, 400),
            ]:
                with pytest.raises(urllib.error.HTTPError) as err:
                    if method == "DELETE":
                        _delete(server, path)
                    else:
                        _post(server, path, payload)
                err.value.close()  # the error holds its response open
                assert err.value.code == expected, (method, path)
            # duplicate registration is a conflict, not a server error
            _post(server, "/admin/register",
                  {"name": "dup", "path": str(west_path)})
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(server, "/admin/register",
                      {"name": "dup", "path": str(west_path)})
            err.value.close()
            assert err.value.code == 409

    def test_admin_rejected_off_loopback(self, index_pair, monkeypatch):
        # loopback authentication: simulate a routable peer address by
        # forcing the check to see a non-loopback client
        from repro.serve import server as server_module

        west_path, _ = index_pair
        service = ACTService()
        monkeypatch.setattr(server_module, "is_loopback",
                            lambda ip: False)
        with _running_server(service) as server:
            for call in [
                lambda: _get(server, "/admin/indexes"),
                lambda: _post(server, "/admin/register",
                              {"name": "x", "path": str(west_path)}),
                lambda: _post(server, "/admin/reload", {"name": "x"}),
                lambda: _delete(server, "/admin/index/x"),
            ]:
                with pytest.raises(urllib.error.HTTPError) as err:
                    call()
                err.value.close()
                assert err.value.code == 403
            # the query surface stays open to remote clients
            status, _body = _get(server, "/healthz")
            assert status == 200

    def test_loopback_predicate(self):
        from repro.serve.server import is_loopback

        assert is_loopback("127.0.0.1")
        assert is_loopback("127.8.4.2")
        assert is_loopback("::1")
        assert is_loopback("::ffff:127.0.0.1")
        assert not is_loopback("10.0.0.8")
        assert not is_loopback("192.168.1.4")
        assert not is_loopback("8.8.8.8")
        assert not is_loopback("")


class TestAdminCLI:
    """``repro-act admin`` drives the HTTP admin surface."""

    def test_cli_admin_flow(self, index_pair, capsys):
        from repro.cli import main

        west_path, east_path = index_pair
        service = ACTService()
        with _running_server(service) as server:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            assert main(["admin", "--url", url, "register", "halves",
                         "--path", str(west_path)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["generation"] == 1

            assert main(["admin", "--url", url, "indexes"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert [e["name"] for e in out["indexes"]] == ["halves"]
            assert out["indexes"][0]["mmap_mode"] == "r"

            assert main(["admin", "--url", url, "reload", "halves",
                         "--path", str(east_path)]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["generation"] == 2

            assert main(["admin", "--url", url, "unregister",
                         "halves"]) == 0
            capsys.readouterr()

            # failures surface in the exit code, with the server's
            # error detail on stderr
            assert main(["admin", "--url", url, "reload", "ghost"]) == 1
            err = capsys.readouterr().err
            assert "HTTP 404" in err

    def test_cli_admin_unreachable_server(self, capsys):
        from repro.cli import main

        assert main(["admin", "--url", "http://127.0.0.1:1",
                     "--timeout", "2", "indexes"]) == 1
        assert "cannot reach" in capsys.readouterr().err


def _over_http(server, request):
    """``request`` sent to a server's admin surface; its JSON answer."""
    if request["op"] == "unregister":
        return _delete(server, f"/admin/index/{request['name']}")[1]
    return _post(server, f"/admin/{request['op']}",
                 {k: v for k, v in request.items() if k != "op"})[1]


def _faults(*services):
    """The ``faults.*`` counters, summed over ``services``."""
    total = {}
    for service in services:
        for name, value in service.metrics.snapshot()["counters"].items():
            if name.startswith("faults."):
                total[name] = total.get(name, 0) + value
    return total


class TestAdminParity:
    """One admin contract on every server: a single process over HTTP
    and a two-worker fleet answer the same script with the same
    response keys, generation numbers and fault counts."""

    def test_single_process_answers_as_a_fleet(self, index_pair, tmp_path,
                                               publishing):
        import shutil

        west_path, east_path = index_pair

        def script(tag):
            bad = tmp_path / f"bad-{tag}.npz"
            shutil.copyfile(east_path, bad)
            chaos.corrupt_artifact(bad, mode="bitflip")
            return [
                {"op": "register", "name": "n", "path": str(west_path)},
                {"op": "reload", "name": "n", "path": str(east_path)},
                {"op": "reload", "name": "n", "path": str(bad)},
                {"op": "unregister", "name": "n"},
                {"op": "register", "name": "n", "path": str(west_path)},
            ]

        service = ACTService()
        with _running_server(service) as server:
            single = [_over_http(server, request)
                      for request in script("single")]
            single_faults = _faults(service)
            assert _answer(service) == ()
        root = tmp_path / "fleet"
        root.mkdir()
        services, lifecycles, snapshots = _workers(
            root, IndexRegistry(), IndexRegistry())
        publishing(lifecycles[1:], snapshots)
        fleet = [lifecycles[0].submit(request) for request in script("fleet")]
        assert [sorted(out) for out in single] == [sorted(out)
                                                   for out in fleet]
        generations = [[out.get("generation") for out in outs]
                       for outs in (single, fleet)]
        assert generations == [[1, 2, None, None, 3]] * 2
        assert [out["complete"] for out in single] == [
            True, True, False, True, True]
        # the corrupt source is quarantined, the old data kept serving
        for outs in (single, fleet):
            assert os.path.exists(outs[2]["quarantined"])
            assert "ArtifactCorruptError" in outs[2]["error"]
        assert single_faults == _faults(*services)
        assert single_faults["faults.artifact_corrupt"] == 1
        assert single_faults["faults.quarantined"] == 1
        assert [_answer(worker) for worker in services] == [(), ()]
        assert [worker.registry.pin("n").generation
                for worker in services] == [3, 3]
        for worker in services:
            worker.close()

    def test_server_close_leaves_nothing_behind(self, index_pair, tmp_path,
                                                monkeypatch):
        """The fleet of one's state directory — generations,
        ``current.json``, the lock — goes with the server."""
        import tempfile

        west_path, east_path = index_pair
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        service = ACTService()
        with _running_server(service) as server:
            root = server.lifecycle.root
            assert root.parent == tmp_path
            _over_http(server, {"op": "register", "name": "n",
                                "path": str(west_path)})
            _over_http(server, {"op": "reload", "name": "n",
                                "path": str(east_path)})
            assert sorted(os.listdir(root)) == [
                ".lock", "current.json", "gens"]
        assert os.listdir(tmp_path) == []


class TestReloadUnderTraffic:
    """The zero-downtime contract, single-process edition.

    Hammer ``/query`` (scalar + batch) and ``/join`` from several
    threads while the main thread flips the index between two
    generations with different answers. Every response must be a 2xx,
    and — the `CellResultCache.invalidate_index` / generation-keyed
    cache property — a request *sent after* a reload completed must
    never see the pre-reload answer (zero stale reads), no matter how
    it interleaves with in-flight traffic.
    """

    def test_reload_hammer_zero_errors_zero_stale(self, index_pair):
        west_path, east_path = index_pair
        service = ACTService(config=ServeConfig(cache_capacity=4096))
        service.registry.register_path("halves", west_path, mmap_mode="r")
        lng, lat = PROBE
        #: expected true-hit answer at PROBE per index side
        answers = {"west": [], "east": [0]}
        # completed-reload history plus the side a reload in flight is
        # moving to; written by main, read by the hammer threads. While
        # a reload is mid-flight either side is legitimate (requests
        # admitted before the swap finish on the pinned generation);
        # once it completed, only the new side is — anything older is a
        # stale read.
        state = {"history": ["west"], "pending": None}
        failures = []
        stop = threading.Event()

        def hammer(kind):
            while not stop.is_set():
                sent_at = len(state["history"])
                try:
                    if kind == "scalar":
                        _status, body = _get(
                            server,
                            f"/query?index=halves&lng={lng}&lat={lat}"
                            f"&exact=1")
                        got = sorted(body["true_hits"])
                    elif kind == "batch":
                        _status, body = _post(server, "/query", {
                            "index": "halves", "exact": True,
                            "points": [[lng, lat]] * 8,
                        })
                        got = sorted(body["results"][0]["true_hits"])
                    else:
                        _status, body = _post(server, "/join", {
                            "index": "halves", "exact": True,
                            "points": [[lng, lat]] * 8,
                        })
                        got = [0] if body["counts"] else []
                except urllib.error.HTTPError as exc:
                    exc.close()
                    failures.append(f"{kind}: HTTP {exc.code}")
                    continue
                except Exception as exc:  # connection cut, malformed, …
                    failures.append(f"{kind}: {exc!r}")
                    continue
                received_at = len(state["history"])
                acceptable = set(state["history"][sent_at - 1:received_at])
                pending = state["pending"]
                if pending is not None:
                    acceptable.add(pending)
                if not any(got == answers[side] for side in acceptable):
                    failures.append(
                        f"{kind}: stale/garbled answer {got} "
                        f"(acceptable sides {sorted(acceptable)})")

        with _running_server(service) as server:
            threads = [
                threading.Thread(target=hammer, args=(kind,), daemon=True)
                for kind in ("scalar", "batch", "join", "scalar")
            ]
            for thread in threads:
                thread.start()
            flips = 0
            for side, path in [("east", east_path), ("west", west_path),
                               ("east", east_path), ("west", west_path)]:
                time.sleep(0.15)  # let traffic build on the current side
                state["pending"] = side
                status, body = _post(server, "/admin/reload", {
                    "name": "halves", "path": str(path), "mmap_mode": "r",
                })
                assert status == 200 and body["complete"] is True
                # the reload call returned => the swap happened; any
                # request sent from now on must see only the new side
                state["history"].append(side)
                state["pending"] = None
                flips += 1
            time.sleep(0.2)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert flips == 4
            assert not failures, failures[:10]
            # post-reload: answers reflect the final generation, served
            # from the *new* generation's cache keyspace
            for _ in range(3):
                _status, body = _get(
                    server,
                    f"/query?index=halves&lng={lng}&lat={lat}&exact=1")
                assert body["true_hits"] == answers["west"]
            assert service.registry.pin("halves").generation == 5
            stats = service.cache.stats()
            assert stats["invalidations"] > 0, \
                "reloads must sweep the dead generations' entries"


class _FlakyRegistry(IndexRegistry):
    """A worker's registry rigged to flunk mapping one generation,
    standing in for a worker whose read of its file comes back
    corrupt."""

    def __init__(self, fail_generation):
        super().__init__()
        self.fail_generation = fail_generation

    def adopt(self, name, path, generation, source=None):
        if generation == self.fail_generation:
            from repro.errors import ArtifactCorruptError
            raise ArtifactCorruptError(
                "rigged: generation file flunked its checksum")
        return super().adopt(name, path, generation, source=source)


class TestReloadRollback:
    """A NACKed fleet reload must replace ``current.json`` back,
    quarantine the rejected directory, and put every worker back on the
    old data — never hang or leave the fleet split."""

    def test_follower_nack_rolls_the_fleet_back(self, index_pair,
                                                tmp_path, publishing):
        """Worker 1 cannot map generation 2 and says so in its
        snapshot; the coordinator — the parent, no worker itself — rolls
        the fleet back, and the retry gets a number never used."""
        west_path, east_path = index_pair
        _publish(tmp_path, "n", west_path)
        flaky = _FlakyRegistry(fail_generation=2)
        services, lifecycles, snapshots = _workers(
            tmp_path, IndexRegistry(), flaky)
        publishing(lifecycles, snapshots)
        counted = {}
        coord = FleetLifecycle(
            tmp_path, 2, snapshots=snapshots, timeout_s=10.0,
            count=lambda name, n: counted.update(
                {name: counted.get(name, 0) + n}))
        reload = {"op": "reload", "name": "n", "path": str(east_path)}
        result = coord.submit(reload)
        # structured failure, not an exception and not a hang
        assert result["complete"] is False
        assert result["failed"] == ["1"]
        assert result["acks"]["1"]["nack"] is True
        assert "rigged" in result["error"]
        # the rejected directory is quarantined for forensics, its
        # number still taken
        assert result["quarantined"].endswith("2.quarantine")
        assert os.path.isdir(result["quarantined"])
        # current.json names the generation served before, and every
        # worker is back on it
        assert result["rolled_back"] is True, result
        assert result["rollback"]["complete"] is True
        assert result["generation"] == 1
        assert read_current(tmp_path) == {"n": 1}
        assert [_answer(service) for service in services] == [(), ()]
        assert [s.registry.pin("n").generation for s in services] == [1, 1]
        # a clean rollback restores convergence everywhere; the
        # original failure stays visible on the coordinator
        assert coord.status()["converged"] is True
        assert "rigged" in coord.status()["last_error"]
        assert [lc.status() for lc in lifecycles] == [
            {"converged": True, "last_error": None}] * 2
        assert counted == {"faults.reload_rollbacks": 1,
                           "faults.quarantined": 1}
        faults = services[1].metrics.snapshot()["counters"]
        assert faults["faults.apply_failures"] == 1
        assert faults["faults.artifact_corrupt"] == 1
        # the same reload, retried, lands under a fresh number: cache
        # keys of the rejected generation 2 can never alias it
        retry = coord.submit(reload)
        assert retry["complete"] is True, retry
        assert retry["generation"] == 3
        assert [_answer(service) for service in services] == [(0,), (0,)]

    def test_coordinator_local_corruption_aborts_before_publish(
            self, index_pair, tmp_path):
        import shutil

        west_path, east_path = index_pair
        bad = tmp_path / "bad.npz"
        shutil.copyfile(east_path, bad)
        with open(bad, "r+b") as fp:
            fp.truncate(bad.stat().st_size // 2)
        root = tmp_path / "fleet"
        _publish(root, "n", west_path)
        coord = FleetLifecycle(root, 0, timeout_s=5.0)
        result = coord.submit({"op": "reload", "name": "n",
                               "path": str(bad)})
        assert result["complete"] is False
        assert result["rolled_back"] is False
        assert result["acks"] == {}
        assert "corrupt" in result["error"]
        # nothing was written or published
        assert read_current(root) == {"n": 1}
        assert os.listdir(root / "gens" / "n") == ["1"]
        # the corrupt source is quarantined so a blind retry cannot
        # re-read the same bytes …
        assert os.path.exists(result["quarantined"])
        assert not bad.exists()
        # … and the served directory still records the pre-op source,
        # so a plain reload recovers
        retry = coord.submit({"op": "reload", "name": "n"})
        assert retry["complete"] is True, retry
        assert read_json(generation_dir(root, "n", retry["generation"])
                         / MANIFEST)["source"] == str(west_path)
        full = generation_dir(root, "n", retry["generation"]) / "full.npz"
        assert load_index(full).query_exact(*PROBE) == ()

    def test_gc_keeps_newest_two_side_artifacts(self, index_pair,
                                                tmp_path):
        """GC is bounded: after five reloads a name keeps exactly its
        served directory and the one before it, and another name's
        directories are never touched."""
        west_path, east_path = index_pair
        _publish(tmp_path, "n", west_path)
        _publish(tmp_path, "m", east_path)
        _publish(tmp_path, "m", west_path)
        coord = FleetLifecycle(tmp_path, 0, timeout_s=5.0)
        for expected in (2, 3, 4, 5, 6):
            result = coord.submit({"op": "reload", "name": "n"})
            assert result["complete"] is True, result
            assert result["generation"] == expected
        assert sorted(os.listdir(tmp_path / "gens" / "n")) == ["5", "6"]
        assert sorted(os.listdir(tmp_path / "gens" / "m")) == ["1", "2"]


def _crash_and_reload(conn, root, source, point):
    """A coordinator that SIGKILLs itself at ``point`` of writing a
    reload of ``n``: before or after renaming the generation directory
    into place, or after replacing ``current.json``."""
    rename, replace = os.rename, os.replace

    def die():
        conn.send(point)
        os.kill(os.getpid(), signal.SIGKILL)

    def crashing_rename(src, dst):
        if point == "before-rename":
            die()
        rename(src, dst)
        if point == "after-rename":
            die()

    def crashing_replace(src, dst):
        replace(src, dst)
        if point == "after-replace" and str(dst).endswith("current.json"):
            die()

    os.rename, os.replace = crashing_rename, crashing_replace
    FleetLifecycle(root, 0).submit(
        {"op": "reload", "name": "n", "path": str(source)})
    conn.send("survived")


@pytest.mark.skipif(not fork_available(),
                    reason="needs the 'fork' start method")
class TestCrashPoints:
    """A writer SIGKILLed anywhere leaves ``current.json`` naming one
    complete directory — old or new, never a mix — that a worker maps
    and answers from; the next admin operation succeeds and sweeps the
    dead writer's debris."""

    @pytest.mark.parametrize("point, left, served, following", [
        pytest.param("before-rename", ".tmp-", 1, 2, id="before-rename"),
        pytest.param("after-rename", "2", 1, 3, id="after-rename"),
        pytest.param("after-replace", "2", 2, 3, id="after-replace")])
    def test_a_crashed_writer_leaves_old_or_new(self, index_pair, tmp_path,
                                                point, left, served,
                                                following):
        west_path, east_path = index_pair
        _publish(tmp_path, "n", west_path)
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        writer = ctx.Process(target=_crash_and_reload,
                             args=(theirs, tmp_path, east_path, point))
        writer.start()
        theirs.close()
        writer.join(60.0)
        assert ours.recv() == point
        assert writer.exitcode == -signal.SIGKILL
        # what the writer got onto the disk before it died
        gens = tmp_path / "gens" / "n"
        (written,) = set(os.listdir(gens)) - {"1"}
        assert written.startswith(left)
        # current.json names a complete directory: every member its
        # MANIFEST lists, at the size it lists
        assert read_current(tmp_path) == {"n": served}
        directory = generation_dir(tmp_path, "n", served)
        manifest = read_json(directory / MANIFEST)
        assert manifest["generation"] == served
        assert {name: (directory / name).stat().st_size
                for name in manifest["members"]} == manifest["members"]
        # a worker maps it and answers from exactly that data
        (service,), (worker,), _ = _workers(tmp_path, IndexRegistry())
        with service:
            assert _answer(service) == {1: (), 2: (0,)}[served]
            # the dead writer's lock died with it: the next operation
            # runs, takes a number never used, and sweeps the debris
            result = worker.submit({"op": "reload", "name": "n",
                                    "path": str(west_path)})
            assert result["complete"] is True, result
            assert result["generation"] == following
            assert sorted(os.listdir(gens)) == sorted(
                {str(served), str(following)})
            assert _answer(service) == ()
