"""Sharded fleet integration: real forks, real sockets, real kills.

The sharded fleet must be indistinguishable from an unsharded service
to any client at any shard socket (forwarding is an implementation
detail), survive losing a shard worker mid-scatter (the parent-held
listening socket buffers forwards until the respawn), and reload a
single index under traffic without wrong or failed answers.

Everything forks, so the module skips where ``fork`` is unavailable.
"""

import errno
import json
import os
import signal
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.act import serialize
from repro.act.serialize import save_index
from repro.errors import ServeError
from repro.serve import (ACTService, FleetConfig, IndexRegistry,
                         ServingFleet, binproto, statedir)
from repro.serve import fleet as fleet_module
from repro.serve.fleet import fleet_available
from repro.serve.shard import ShardMap

pytestmark = pytest.mark.skipif(
    not fleet_available(),
    reason="fleet needs the 'fork' start method",
)


def _get(address, path, timeout=15.0):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _post(address, path, payload, timeout=90.0):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _shard_fleet(registry, **overrides):
    config = FleetConfig(workers=2, shards=2, stats_interval_s=0.1,
                         restart_backoff_s=0.05, **overrides)
    return ServingFleet(registry, config)


def _poll_shard_snapshots(fleet, deadline_s=15.0, extra=None):
    """Wait until both workers published shard-annotated snapshots.

    ``extra`` is an optional predicate over the per-worker list for
    waiting out snapshot lag (workers publish on their stats interval,
    so counters trail traffic by up to one tick).
    """
    deadline = time.monotonic() + deadline_s
    per_worker = []
    while time.monotonic() < deadline:
        per_worker = fleet.stats().get("per_worker", [])
        if (len(per_worker) == 2
                and all("shard" in e and "admission" in e
                        for e in per_worker)
                and (extra is None or extra(per_worker))):
            return per_worker
        time.sleep(0.1)
    raise AssertionError(
        f"workers never published shard snapshots: {per_worker}")


@pytest.fixture(scope="module")
def ground_truth(nyc_index, query_points):
    lngs, lats = query_points
    registry = IndexRegistry()
    registry.register_index("nyc", nyc_index)
    service = ACTService(registry=registry)
    truth = service.query_batch("nyc", lngs, lats)
    counts = service.join("nyc", lngs, lats, exact=True)
    service.close()
    return truth, counts


class TestShardedFleet:
    def test_any_shard_socket_answers_spanning_batch(
            self, nyc_index, query_points, ground_truth):
        lngs, lats = query_points
        truth, truth_counts = ground_truth
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        with _shard_fleet(registry) as fleet:
            fleet.start()
            # binary_port=None is promoted: shard mode always has a
            # binary plane, one distinct socket per slot
            assert fleet.config.binary_port is not None
            addresses = fleet.shard_addresses
            assert sorted(addresses) == [0, 1]
            assert addresses[0][1] != addresses[1][1]
            for slot, (host, port) in sorted(addresses.items()):
                client = binproto.Client(host, port, timeout=30.0)
                assert client.query_batch("nyc", lngs, lats) == truth
                counts = client.join("nyc", lngs, lats, exact=True)
                got = np.zeros_like(truth_counts)
                for pid, count in counts.items():
                    got[pid] = count
                assert np.array_equal(got, truth_counts)
                client.close()
            per_worker = _poll_shard_snapshots(
                fleet,
                extra=lambda pw: (
                    sum(e["shard"]["forwarded"] for e in pw) > 0
                    and sum(e["shard"]["local"] for e in pw) > 0))
            full = nyc_index.core.total_bytes
            for entry in per_worker:
                assert entry["shard"]["node_pool_bytes"] < 0.75 * full
                assert entry["shard"]["map_generation"] == 1
            # the fleet aggregate carries the shard counters, and the
            # Prometheus exposition renders the per-shard families
            counters = fleet.stats()["counters"]
            assert counters["shard.forwarded"] > 0
            status, text = _get_text(fleet.address, "/metrics")
            assert status == 200
            for needle in ("repro_fleet_shard_inflight",
                           "repro_fleet_shard_forwarded",
                           "repro_fleet_shard_node_pool_bytes"):
                assert needle in text
            status, body = _get(fleet.address, "/admin/shards")
            assert status == 200
            assert body["shard"]["slot"] in (0, 1)

    def test_rebalance_is_a_generation_swap(self, nyc_index,
                                            query_points, ground_truth):
        lngs, lats = query_points
        truth, _ = ground_truth
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        with _shard_fleet(registry) as fleet:
            fleet.start()
            _poll_shard_snapshots(fleet)
            new_map = fleet.rebalance()
            assert new_map.generation == 2
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                per_worker = fleet.stats().get("per_worker", [])
                if per_worker and all(
                        e.get("shard", {}).get("map_generation") == 2
                        for e in per_worker):
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("workers never adopted generation 2")
            host, port = fleet.shard_addresses[0]
            client = binproto.Client(host, port, timeout=30.0)
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()

    def test_rebalance_moves_every_index_at_once(
            self, nyc_index, query_points, ground_truth):
        """Rebalance a two-index fleet: when ``rebalance()`` returns,
        ``current.json`` names one map generation for both indexes and
        every worker's shard block reports it."""
        lngs, lats = query_points
        truth, _ = ground_truth
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        registry.register_index("nyc2", nyc_index)
        with _shard_fleet(registry) as fleet:
            fleet.start()
            assert fleet.rebalance().generation == 2
            root = fleet._artifact_dir
            current = statedir.read_current(root)
            assert sorted(current) == ["nyc", "nyc2"]
            assert {ShardMap.from_wire(statedir.read_json(
                statedir.generation_dir(root, name, d) / statedir.SHARD_MAP
            )).generation for name, d in current.items()} == {2}
            per_worker = fleet.stats()["per_worker"]
            assert sorted(e["shard"]["slot"] for e in per_worker) == [0, 1]
            assert {e["shard"]["map_generation"] for e in per_worker} == {2}
            client = binproto.Client(*fleet.shard_addresses[1],
                                     timeout=30.0)
            for name in ("nyc", "nyc2"):
                assert client.query_batch(name, lngs, lats) == truth
            client.close()

    def test_single_index_reload_under_traffic(self, nyc_index, tmp_path,
                                               query_points, ground_truth):
        lngs, lats = query_points
        truth, _ = ground_truth
        path = tmp_path / "nyc.npz"
        save_index(nyc_index, path)
        registry = IndexRegistry()
        registry.register_path("nyc", str(path), mmap_mode="r")
        failures = []
        stop = threading.Event()

        with _shard_fleet(registry, admin_timeout_s=60.0) as fleet:
            fleet.start()
            host, port = fleet.shard_addresses[0]

            def hammer():
                client = binproto.Client(host, port, timeout=30.0)
                try:
                    while not stop.is_set():
                        got = client.query_batch("nyc", lngs[:100],
                                                 lats[:100])
                        if got != truth[:100]:
                            failures.append("wrong answer during reload")
                finally:
                    client.close()

            thread = threading.Thread(target=hammer, daemon=True)
            thread.start()
            try:
                time.sleep(0.3)
                status, body = _post(fleet.address, "/admin/reload", {
                    "name": "nyc", "path": str(path), "mmap_mode": "r",
                })
                assert status == 200
                assert body.get("complete", False), body
                time.sleep(0.3)
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert not failures, failures[:3]
            # every worker serves the new generation — and still only
            # its slice of it
            per_worker = _poll_shard_snapshots(fleet)
            full = nyc_index.core.total_bytes
            for entry in per_worker:
                assert entry["shard"]["node_pool_bytes"] < 0.75 * full
            client = binproto.Client(host, port, timeout=30.0)
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()

    def test_router_retry_rides_a_respawn(self, nyc_index, query_points,
                                          ground_truth):
        """SIGKILL one shard worker, then immediately drive a spanning
        batch through the surviving one: its forwards to the dead slot
        queue in the parent-held listening socket's backlog until the
        supervisor respawns the slot, and the resilient client replays.
        """
        lngs, lats = query_points
        truth, _ = ground_truth
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        with _shard_fleet(registry) as fleet:
            fleet.start()
            _poll_shard_snapshots(fleet)
            victim = fleet._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            host, port = fleet.shard_addresses[1]
            client = binproto.Client(host, port, timeout=60.0, retries=8)
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and fleet.restarts < 1:
                time.sleep(0.1)
            assert fleet.restarts >= 1
            # the respawned slot answers on the same address
            host0, port0 = fleet.shard_addresses[0]
            client = binproto.Client(host0, port0, timeout=60.0, retries=8)
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()

    def test_chaos_kill_one_shard_drill(self, nyc_index, query_points,
                                        ground_truth):
        """The kill-one-shard drill: arm ``shard.forward=kill`` on one
        worker, make it scatter, and require the fleet to heal — the
        armed worker dies mid-forward, its replacement forks disarmed
        from the parent, and the client's replay lands correctly.
        """
        lngs, lats = query_points
        truth, _ = ground_truth
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        with _shard_fleet(registry) as fleet:
            fleet.start()
            per_worker = _poll_shard_snapshots(fleet)
            status, body = _post(fleet.address, "/admin/chaos",
                                 {"spec": "shard.forward=kill:1.0"})
            assert status == 200
            armed_pid = body["pid"]
            armed_slot = next(e["shard"]["slot"] for e in per_worker
                              if e["pid"] == armed_pid)
            host, port = fleet.shard_addresses[armed_slot]
            client = binproto.Client(host, port, timeout=60.0, retries=8)
            # a spanning batch forces the armed worker to forward → die
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and fleet.restarts < 1:
                time.sleep(0.1)
            assert fleet.restarts >= 1


def _slice(artifacts, generation, slot):
    """Slot ``slot``'s slice of generation ``generation`` of ``nyc``."""
    return artifacts / "gens" / "nyc" / str(generation) / f"slot{slot}.npz"


def _mapped_archives(pid):
    """Every ``.npz`` the process has memory-mapped, per the kernel."""
    mapped = set()
    for line in Path(f"/proc/{pid}/maps").read_text().splitlines():
        fields = line.split(None, 5)
        if len(fields) == 6 and ".npz" in fields[5]:
            mapped.add(fields[5])
    return mapped


def _await(condition, what, deadline_s=20.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {what}")


def _worker_readyz(fleet, slot, attempts=400):
    """``(status, body)`` of ``/readyz`` as answered by ``slot``'s
    worker (they share the HTTP port: ask until the kernel picks it)."""
    for _ in range(attempts):
        try:
            status, body = _get(fleet.address, "/readyz")
        except urllib.error.HTTPError as exc:
            status, body = exc.code, json.loads(exc.read())
        if body.get("worker") == slot:
            return status, body
    raise AssertionError(f"worker {slot} never answered /readyz")


@pytest.fixture()
def npz_fleet(nyc_index, tmp_path):
    """A 2-slot fleet started from a memory-mapped ``.npz``, its
    artifact directory where the test can see it."""
    source = tmp_path / "nyc.npz"
    save_index(nyc_index, source)
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    registry = IndexRegistry()
    registry.register_path("nyc", str(source), mmap_mode="r")
    with _shard_fleet(registry, artifact_dir=str(artifacts),
                      admin_timeout_s=60.0) as fleet:
        fleet.start()
        yield fleet, source, artifacts


def _reload(fleet, source):
    status, body = _post(fleet.address, "/admin/reload", {
        "name": "nyc", "path": str(source), "mmap_mode": "r"})
    assert status == 200 and body.get("complete", False), body
    return body["generation"]


class TestSlicesAreFiles:
    def test_no_worker_maps_the_full_index(self, npz_fleet, query_points,
                                           ground_truth):
        """Each worker maps its own slot's slice archive and no other
        ``.npz`` — not the operator's file, not a generation
        directory's ``full.npz`` — at ready, after a reload, after a
        rebalance and after a SIGKILL respawn; ``/stats`` says the
        same."""
        fleet, source, artifacts = npz_fleet
        lngs, lats = query_points
        truth, _ = ground_truth

        def on_own_slices(generation):
            def check():
                per_worker = fleet.stats().get("per_worker", [])
                return len(per_worker) == 2 and all(
                    "shard" in e
                    and e["shard"]["slice_path"] == {"nyc": str(
                        _slice(artifacts, generation, e["shard"]["slot"]))}
                    and _mapped_archives(e["pid"])
                    == set(e["shard"]["slice_path"].values())
                    for e in per_worker)
            return check

        _await(on_own_slices(1), "workers on their first slices")
        assert str(source) in _mapped_archives(os.getpid())  # the parent is
        generation = _reload(fleet, source)
        assert generation == 2
        _await(on_own_slices(2), "workers on the reloaded slices")
        # the same data, cut under map generation 2: generation 3
        assert fleet.rebalance().generation == 2
        _await(on_own_slices(3), "workers on the rebalanced slices")
        victim = fleet._processes[0]
        os.kill(victim.pid, signal.SIGKILL)
        _await(lambda: fleet.restarts >= 1
               and fleet._processes[0].pid != victim.pid, "the respawn")
        _await(on_own_slices(3), "the respawned worker on its slice")
        for host, port in fleet.shard_addresses.values():
            client = binproto.Client(host, port, timeout=60.0, retries=8)
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()

    def test_artifact_sweep_takes_slices_too(self, npz_fleet):
        """3 reloads + 2 rebalances: only the served generation
        directory and the one before it stay — each a full archive and
        one slice per slot — and the fleet's ``lifecycle.artifacts_gcd``
        accounts for every other directory ever written, whether a
        worker or the parent deleted it."""
        fleet, source, artifacts = npz_fleet
        written = 1  # generation 1, at start
        for step in ("reload", "reload", "rebalance", "reload",
                     "rebalance"):
            if step == "reload":
                _reload(fleet, source)
            else:
                fleet.rebalance()
            written += 1
        gens = artifacts / "gens" / "nyc"

        def swept():
            return fleet.stats()["counters"]["lifecycle.artifacts_gcd"]

        _await(lambda: swept() == written - 2,
               "the sweep to account for every directory written")
        assert sorted(os.listdir(gens)) == ["5", "6"]
        assert sorted(os.listdir(gens / "6")) == [
            "MANIFEST", "full.npz", "shard_map.json", "slot0.npz",
            "slot1.npz"]


    def test_the_cutter_states_its_cost(self, npz_fleet, caplog):
        """One log line per cut — start-up and each rebalance — with
        the bytes it wrote, its three timings and the child's peak."""
        import logging

        fleet, _, artifacts = npz_fleet
        first = fleet.last_cut
        assert (first["map_generation"], first["indexes"],
                first["slots"]) == (1, 1, 2)
        # the full archive is a hard link to the operator's file: the
        # bytes written are the two slices
        first_gen = artifacts / "gens" / "nyc" / "1"
        assert first["bytes_written"] == sum(
            p.stat().st_size for p in first_gen.glob("slot*.npz"))
        assert (first_gen / "full.npz").stat().st_nlink == 2
        assert first["peak_rss_mb"] > 0
        assert min(first["plan_s"], first["cut_s"], first["write_s"]) > 0
        with caplog.at_level(logging.INFO, logger="repro.serve.fleet"):
            fleet.rebalance()
        (line,) = [r.getMessage() for r in caplog.records]
        assert line == fleet_module.describe_cut(fleet.last_cut)
        assert line.startswith("shard cutter: map generation 2, "
                               "1 index(es) x 2 slots, ")
        for unit in ("MiB written", "plan ", "cut ", "write ",
                     "child peak RSS "):
            assert unit in line


class TestCutterFailure:
    """A failed cut is loud: never a half-fleet, never an empty slice."""

    @pytest.mark.parametrize("how", ["raises", "dies"])
    def test_start_raises_and_leaves_nothing_running(
            self, nyc_index, monkeypatch, how):
        def broken(*args, **kwargs):
            if how == "dies":
                os._exit(3)
            raise OSError("disk full")

        monkeypatch.setattr(statedir, "write_slices", broken)
        made = []  # the fleet's own temp dirs, state directories inside
        mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(**kwargs):
            if kwargs.get("prefix") == "repro-fleet-":
                made.append(mkdtemp(**kwargs))
                return made[-1]
            return mkdtemp(**kwargs)

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        fleet = _shard_fleet(registry)
        with pytest.raises(ServeError) as failure:
            fleet.start()
        if how == "raises":
            assert "'nyc'" in str(failure.value)
            assert "disk full" in str(failure.value)
        else:
            assert "exit code 3" in str(failure.value)
        assert fleet.live_workers() == 0 and fleet._processes == []
        assert fleet._lifecycle is None and fleet._artifact_dir is None
        assert len(made) == 1 and not os.path.exists(made[0])

    def test_a_real_write_failure_names_index_and_slot(
            self, nyc_index, tmp_path, monkeypatch):
        """The disk fills up under slot 1's slice archive: the failure
        names the index and the slot, and nothing is left behind."""
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        save = serialize.save_index

        def full_disk(index, path):
            if "slot1" in str(path):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return save(index, path)

        monkeypatch.setattr(serialize, "save_index", full_disk)
        artifacts = tmp_path / "artifacts"
        fleet = _shard_fleet(registry, artifact_dir=str(artifacts))
        with pytest.raises(ServeError,
                           match="'nyc'.*slot 1: OSError.*No space left"):
            fleet.start()
        assert fleet.live_workers() == 0
        assert os.listdir(artifacts / "gens" / "nyc") == []

    def test_failed_rebalance_leaves_the_old_map_published(
            self, nyc_index, query_points, ground_truth, monkeypatch):
        lngs, lats = query_points
        truth, _ = ground_truth
        registry = IndexRegistry()
        registry.register_index("nyc", nyc_index)
        with _shard_fleet(registry) as fleet:
            fleet.start()
            _poll_shard_snapshots(fleet)

            def broken(*args, **kwargs):
                raise OSError("disk full")

            monkeypatch.setattr(statedir, "write_slices", broken)
            with pytest.raises(ServeError, match="disk full"):
                fleet.rebalance()
            assert fleet.shard_map.generation == 1
            (published,) = statedir.read_current(
                fleet._artifact_dir).items()
            assert ShardMap.from_wire(statedir.read_json(
                statedir.generation_dir(fleet._artifact_dir, *published)
                / statedir.SHARD_MAP)).generation == 1
            monkeypatch.undo()
            # the op lock was released, and the fleet still answers
            assert fleet.rebalance().generation == 2
            host, port = fleet.shard_addresses[0]
            client = binproto.Client(host, port, timeout=30.0)
            assert client.query_batch("nyc", lngs, lats) == truth
            client.close()

    def test_respawn_onto_a_truncated_slice_is_not_ready(
            self, npz_fleet, query_points, ground_truth):
        """Slot 0's slice archive is cut short, then its worker killed:
        the replacement cannot map it, says so on ``/readyz`` — and
        still answers right (from the full records it was forked
        with), never from an empty slice. The next cut heals it."""
        fleet, source, artifacts = npz_fleet
        lngs, lats = query_points
        truth, _ = ground_truth
        _poll_shard_snapshots(fleet)
        assert _worker_readyz(fleet, 0)[0] == 200
        broken = _slice(artifacts, 1, 0)
        victim = fleet._processes[0]
        with open(broken, "r+b") as fp:
            fp.truncate(broken.stat().st_size // 2)
        os.kill(victim.pid, signal.SIGKILL)
        _await(lambda: fleet.restarts >= 1
               and fleet._processes[0].pid != victim.pid, "the respawn")
        status, body = _worker_readyz(fleet, 0)
        assert status == 503 and body["converged"] is False
        assert broken.name in body["last_error"]
        assert _worker_readyz(fleet, 1)[0] == 200
        host, port = fleet.shard_addresses[0]
        client = binproto.Client(host, port, timeout=60.0, retries=8)
        assert client.query_batch("nyc", lngs, lats) == truth
        client.close()
        fleet.rebalance()
        _await(lambda: _worker_readyz(fleet, 0)[0] == 200,
               "slot 0 to map its freshly cut slice")
        assert (_worker_readyz(fleet, 0)[1]["last_error"] is None)


def _get_text(address, path, timeout=15.0):
    host, port = address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")
