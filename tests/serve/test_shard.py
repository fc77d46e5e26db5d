"""Shard map planning, slicing, and routing — no fork required.

Covers the keyspace invariants (contiguous cover of the full uint64
cell-id space, boundary-cell routing), the slice/partition guarantees
(every entry lands in exactly one slice, resident bytes shrink), and
the routing stage in process: two services, each with a
:class:`~repro.serve.router.Router` and wired to the other over real
servers, must answer exactly like one unsharded service, count each
request's points once fleet-wide, and shed only on positive fleet-wide
evidence.
"""

import os
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.act.serialize import save_index
from repro.errors import (BudgetExceededError, ServeError,
                          UnknownIndexError)
from repro.datasets import taxi_points
from repro.obs import Trace
from repro.serve import (ACTService, Budget, FleetLifecycle, IndexRegistry,
                         binproto, chaos, router)
from repro.serve.server import ACTServer
from repro.serve.shard import (KEY_MAX, ShardMap, ShardRange,
                               plan_shard_map, shard_keys, slice_index,
                               write_slices)
from repro.serve.statedir import (SHARD_MAP, generation_dir, read_current,
                                  read_json, replace_current,
                                  write_generation)


@pytest.fixture(scope="module")
def shard_map4(nyc_index):
    return plan_shard_map({"nyc": nyc_index}, 4)


@pytest.fixture(scope="module")
def point_keys(nyc_index, query_points):
    lngs, lats = query_points
    return shard_keys(nyc_index.grid, lngs, lats,
                      nyc_index.boundary_level)


class TestShardMap:
    def test_plan_covers_keyspace(self, shard_map4):
        ranges = shard_map4.ranges["nyc"]
        assert len(ranges) == 4
        assert ranges[0].cell_lo == 0
        assert ranges[-1].cell_hi == KEY_MAX
        for prev, cur in zip(ranges, ranges[1:]):
            assert cur.cell_lo == prev.cell_hi + 1
        assert sorted(r.slot for r in ranges) == [0, 1, 2, 3]

    def test_boundary_cell_probe(self, shard_map4):
        """Keys on either side of every cut land on the right slot."""
        ranges = shard_map4.ranges["nyc"]
        for rng in ranges:
            assert shard_map4.route_one("nyc", rng.cell_lo) == rng.slot
            assert shard_map4.route_one("nyc", rng.cell_hi) == rng.slot
        for prev, cur in zip(ranges, ranges[1:]):
            assert shard_map4.route_one("nyc", prev.cell_hi + 1) == cur.slot
        assert shard_map4.route_one("nyc", 0) == ranges[0].slot
        assert shard_map4.route_one("nyc", KEY_MAX) == ranges[-1].slot

    def test_route_vector_matches_scalar(self, shard_map4, point_keys):
        slots = shard_map4.route("nyc", point_keys)
        for key, slot in zip(point_keys.tolist(), slots.tolist()):
            assert shard_map4.route_one("nyc", key) == slot

    def test_route_unknown_index(self, shard_map4, point_keys):
        with pytest.raises(UnknownIndexError):
            shard_map4.route("nope", point_keys)

    def test_wire_round_trip(self, shard_map4, point_keys):
        clone = ShardMap.from_wire(shard_map4.to_wire())
        assert clone.generation == shard_map4.generation
        assert clone.num_slots == shard_map4.num_slots
        assert np.array_equal(clone.route("nyc", point_keys),
                              shard_map4.route("nyc", point_keys))

    def test_invalid_maps_rejected(self):
        with pytest.raises(ServeError):
            ShardMap(1, {"x": [ShardRange(1, KEY_MAX, 0)]}, 1)  # gap at 0
        with pytest.raises(ServeError):
            ShardMap(1, {"x": [ShardRange(0, 10, 0)]}, 1)  # short cover
        with pytest.raises(ServeError):
            ShardMap(1, {"x": [ShardRange(0, 10, 0),
                               ShardRange(12, KEY_MAX, 0)]}, 1)  # hole
        with pytest.raises(ServeError):
            ShardMap(1, {"x": [ShardRange(0, KEY_MAX, 3)]}, 2)  # bad slot

    def test_control_channel_round_trip(self, shard_map4, nyc_index,
                                        tmp_path, point_keys):
        """A sharded generation directory records its name's placement
        in ``shard_map.json``: read back, it routes like the map it was
        cut under, and a newer directory carries the newer map's
        generation."""
        def placement(d):
            return ShardMap.from_wire(read_json(
                generation_dir(tmp_path, "nyc", d) / SHARD_MAP))

        first = write_generation(tmp_path, "nyc", index=nyc_index,
                                 shard_map=shard_map4)
        got = placement(first)
        assert (got.generation, got.num_slots) == (shard_map4.generation, 4)
        assert np.array_equal(got.route("nyc", point_keys),
                              shard_map4.route("nyc", point_keys))
        newer = plan_shard_map({"nyc": nyc_index}, 4, generation=7)
        second = write_generation(tmp_path, "nyc", index=nyc_index,
                                  shard_map=newer)
        assert second == first + 1
        assert placement(second).generation == 7


class TestSlicing:
    def test_slices_partition_entries(self, nyc_index, shard_map4):
        slices = [
            slice_index(nyc_index,
                        shard_map4.ranges_for_slot("nyc", slot))
            for slot in range(4)
        ]
        assert (sum(s.core.num_entries for s in slices)
                == nyc_index.core.num_entries)
        # per-slot resident node-pool bytes shrink roughly with the
        # slot count (the planner balances by coverage weight, so allow
        # slack — but no slice may approach the full footprint)
        full = nyc_index.core.total_bytes
        for sliced in slices:
            assert sliced.core.total_bytes < 0.6 * full

    def test_slice_describes_itself(self, nyc_index, shard_map4):
        """A slice's stats, memory report and repr are its own, not
        the full index's — and the parent's stats are left alone."""
        full_cells = nyc_index.stats.indexed_cells
        sliced = slice_index(nyc_index,
                             shard_map4.ranges_for_slot("nyc", 1))
        entries = sliced.core.num_entries
        assert 0 < entries < full_cells
        assert sliced.stats is not nyc_index.stats
        assert nyc_index.stats.indexed_cells == full_cells
        assert sliced.stats.indexed_cells == entries
        assert sliced.stats.trie_entries == entries
        assert sliced.stats.trie_nodes == sliced.core.num_nodes
        assert sliced.stats.trie_bytes == sliced.core.size_bytes
        assert sliced.stats.total_bytes == sliced.core.total_bytes
        assert sliced.memory_report()["indexed_cells"] == entries
        assert f"cells={entries:,}" in repr(sliced)
        # what describes the build, not the slice, carries over
        assert sliced.stats.num_polygons == nyc_index.stats.num_polygons
        assert sliced.precision_meters == nyc_index.precision_meters

    def test_owned_points_answer_identically(self, nyc_index, shard_map4,
                                             query_points, point_keys):
        lngs, lats = query_points
        truth = nyc_index.lookup_batch(lngs, lats)
        slots = shard_map4.route("nyc", point_keys)
        seen = 0
        for slot in range(4):
            own = slots == slot
            if not own.any():
                continue
            sliced = slice_index(
                nyc_index, shard_map4.ranges_for_slot("nyc", slot))
            got = sliced.lookup_batch(lngs[own], lats[own])
            assert np.array_equal(got, truth[own])
            seen += int(own.sum())
        assert seen == len(lngs)


@contextmanager
def _cross_wired(nyc_index, slots, sharded_service):
    """``(services, servers)``: ``slots`` cross-wired sharded services,
    each behind a real server on its own socket and slice file."""
    shard_map = plan_shard_map({"nyc": nyc_index}, slots)
    socks = []
    for _ in range(slots):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(8)
        sock.setblocking(False)
        socks.append(sock)
    addresses = {slot: sock.getsockname()[:2]
                 for slot, sock in enumerate(socks)}
    services, servers = [], []
    try:
        for slot in range(slots):
            service = sharded_service(nyc_index, shard_map, slot,
                                      addresses=addresses)
            services.append(service)
            servers.append(ACTServer(service, [socks[slot]],
                                     worker_id=slot))
            threading.Thread(target=servers[-1].serve_forever,
                             daemon=True).start()
        yield services, servers
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        for sock in socks:
            try:
                sock.close()
            except OSError:
                pass


@pytest.fixture()
def wired_pair(nyc_index, sharded_service):
    with _cross_wired(nyc_index, 2, sharded_service) as wired:
        yield wired


@pytest.fixture()
def sharded_pair(wired_pair):
    return wired_pair[0]


@pytest.fixture()
def sharded_trio(nyc_index, sharded_service):
    with _cross_wired(nyc_index, 3, sharded_service) as (services, _):
        yield services


@pytest.fixture(scope="module")
def plain(nyc_index):
    """The unsharded service every sharded answer must equal."""
    registry = IndexRegistry()
    registry.register_index("nyc", nyc_index)
    service = ACTService(registry=registry)
    yield service
    service.close()


#: The three routed entry points; all run the one routing stage.
ENTRY_POINTS = ("query", "query_batch", "join")


def _call(service, entry, lngs, lats, **kwargs):
    """``entry`` on ``service``; the scalar op takes the first point."""
    if entry == "query":
        return service.query("nyc", lngs[0], lats[0], **kwargs)
    return getattr(service, entry)("nyc", lngs, lats, **kwargs)


def _same(got, want):
    return (np.array_equal(got, want) if isinstance(want, np.ndarray)
            else got == want)


def _spanning_from_slot0(service, query_points):
    """The workload reordered so its first point is owned remotely: a
    request slot 0 must forward for every entry point."""
    lngs, lats = query_points
    index = service.registry.get("nyc")
    keys = shard_keys(index.grid, lngs, lats, index.boundary_level)
    slots = service.router.shard_map.route("nyc", keys)
    assert set(slots.tolist()) >= {0, 1}
    order = np.argsort(slots != 1, kind="stable")
    return lngs[order], lats[order]


def _counter(service, name):
    return service.metrics.counter(name).value


def _owing(service):
    """Pooled forward clients that still owe a reply."""
    return [client for free in service.router._pool.values()
            for client in free if client.owes_reply]


class TestScatter:
    """The routing stage behind all three entry points."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_each_op_matches_unsharded_and_is_timed(
            self, sharded_pair, plain, query_points, entry, exact):
        front = sharded_pair[0]
        lngs, lats = _spanning_from_slot0(front, query_points)
        want = _call(plain, entry, lngs, lats, exact=exact)
        timed = front.metrics.histogram("shard.forward_seconds")
        for round_ in range(1, 3):
            got = _call(front, entry, lngs, lats, exact=exact)
            assert _same(got, want)
            # one observation per spanning request, whatever the op
            assert timed.count == round_
        assert _counter(front, "shard.forward_errors") == 0
        # the second round reused the first round's pooled connection
        assert [len(free) for free in front.router._pool.values()] == [1]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_remote_leg_without_hits_matches_unsharded(
            self, sharded_pair, plain, nyc_index, query_points, entry,
            exact):
        """A forward whose points hit no polygon: an empty reply."""
        owner = sharded_pair[0].router.shard_map.route_one("nyc", KEY_MAX)
        front = sharded_pair[1 - owner]
        lngs, lats = query_points
        keys = shard_keys(nyc_index.grid, lngs, lats,
                          nyc_index.boundary_level)
        mine = front.router.shard_map.route("nyc", keys) == 1 - owner
        # out-of-domain points key to all-ones: the other slot's leg
        lngs = np.concatenate([[10.0, 10.5, 11.0], lngs[mine]])
        lats = np.concatenate([[10.0, 10.5, 11.0], lats[mine]])
        timed = front.metrics.histogram("shard.forward_seconds")
        assert _same(_call(front, entry, lngs, lats, exact=exact),
                     _call(plain, entry, lngs, lats, exact=exact))
        assert timed.count == 1
        assert _counter(front, "shard.forward_errors") == 0

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_remote_shed_is_not_a_forward_error(
            self, sharded_pair, plain, query_points, entry, monkeypatch):
        front, owner = sharded_pair
        lngs, lats = _spanning_from_slot0(front, query_points)

        def shed(*args, **kwargs):
            raise BudgetExceededError("owner out of budget")

        with monkeypatch.context() as patched:
            patched.setattr(owner, "local_query_batch", shed)
            patched.setattr(owner, "local_join", shed)
            with pytest.raises(BudgetExceededError):
                _call(front, entry, lngs, lats)
        assert _counter(front, "shard.forward_errors") == 0
        assert front.metrics.histogram("shard.forward_seconds").count == 0
        # the reply was an error *frame*: the stream is in sync, so the
        # connection went back to the pool instead of being torn down
        (pooled,) = front.router._pool[1]
        assert not pooled.owes_reply and pooled.reconnects == 0
        assert _same(_call(front, entry, lngs, lats),
                     _call(plain, entry, lngs, lats))
        assert front.router._pool[1] == [pooled]

    def test_mismatched_join_columns_rejected_alike(self, sharded_pair,
                                                   plain):
        """Sharded or not, a join whose columns disagree is a bad
        request — never a broadcast."""
        from repro.errors import InvalidRequestError

        for service in (plain, sharded_pair[0]):
            invalid = _counter(service, "queries.invalid")
            points = _counter(service, "joins.points")
            with pytest.raises(InvalidRequestError, match="matching 1-D"):
                service.join("nyc", [-73.9, -73.95], [40.7])
            assert _counter(service, "queries.invalid") == invalid + 1
            assert _counter(service, "joins.points") == points

    @pytest.mark.parametrize("entry", ["query_batch", "join"])
    def test_local_leg_shed_is_not_a_forward_error(
            self, sharded_pair, plain, query_points, entry):
        front = sharded_pair[0]
        lngs, lats = _spanning_from_slot0(front, query_points)
        with pytest.raises(BudgetExceededError):
            _call(front, entry, lngs, lats, budget=Budget(-1.0))
        assert _counter(front, "shard.forward_errors") == 0
        # the forward was already out: its client owed a reply, so it
        # was closed, never pooled for the next borrower
        assert not any(front.router._pool.values())
        assert _same(_call(front, entry, lngs, lats),
                     _call(plain, entry, lngs, lats))

    @pytest.mark.parametrize("entry", ["query_batch", "join"])
    def test_fault_mid_fanout_pools_no_owing_client(
            self, sharded_trio, plain, query_points, entry, monkeypatch):
        """A ``shard.forward`` chaos fault on the *second* remote owner
        abandons a fan-out whose first forward is already in flight."""
        from repro.serve import router

        front = sharded_trio[0]
        lngs, lats = query_points
        fired = []

        def second_forward_fails(point, metrics=None):
            fired.append(point)
            if fired.count("shard.forward") == 2:
                raise OSError("chaos: injected I/O failure")

        with monkeypatch.context() as patched:
            patched.setattr(router.chaos, "fault", second_forward_fails)
            with pytest.raises(OSError):
                _call(front, entry, lngs, lats)
        assert fired.count("shard.forward") == 2
        assert _owing(front) == []
        # an I/O fault is not a typed forward failure either
        assert _counter(front, "shard.forward_errors") == 0
        # nothing stale is left for the next request to receive
        assert _same(_call(front, entry, lngs, lats),
                     _call(plain, entry, lngs, lats))
        assert _owing(front) == []

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_unreachable_owner_counts_one_forward_error(
            self, nyc_index, query_points, entry, sharded_service):
        # no address book: every forward fails before a frame is sent
        front = sharded_service(
            nyc_index, plan_shard_map({"nyc": nyc_index}, 2), 0)
        lngs, lats = _spanning_from_slot0(front, query_points)
        with pytest.raises(ServeError):
            _call(front, entry, lngs, lats)
        assert _counter(front, "shard.forward_errors") == 1
        assert not any(front.router._pool.values())


class TestRequestAccounting:
    """A routed request's points are counted once fleet-wide: where a
    leg runs them, else on the worker the client called, the way an
    unsharded worker counts them."""

    def test_admission_shed_counts_every_point(
            self, nyc_index, query_points, sharded_service, monkeypatch):
        monkeypatch.setattr(router, "SHED_INFLIGHT", 0)  # all saturated
        front = sharded_service(
            nyc_index, plan_shard_map({"nyc": nyc_index}, 2), 0,
            snapshots={1: {"admission": {"inflight": 0,
                                         "ts": time.time()}}})
        lngs, lats = query_points
        with pytest.raises(BudgetExceededError):
            front.query_batch("nyc", lngs, lats)
        assert [_counter(front, name) for name in (
            "queries.total", "queries.shed", "shard.shed")] == [400] * 3

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_unreachable_owner_counts_the_points_as_errors(
            self, nyc_index, query_points, entry, sharded_service):
        front = sharded_service(
            nyc_index, plan_shard_map({"nyc": nyc_index}, 2), 0)
        lngs, lats = _spanning_from_slot0(front, query_points)
        with pytest.raises(ServeError):
            _call(front, entry, lngs, lats)
        points = 1 if entry == "query" else len(lngs)
        assert _counter(front, "queries.errors") == points
        # a join counts no queries.total, sharded or not
        assert _counter(front, "queries.total") == (
            0 if entry == "join" else points)

    def test_an_empty_request_is_a_local_plan(self, sharded_pair):
        front = sharded_pair[0]
        assert front.query_batch("nyc", [], []) == []
        assert not front.join("nyc", [], []).any()
        assert front.metrics.histogram("shard.forward_seconds").count == 0
        assert front.metrics.histogram("queries.latency_seconds").count == 1
        assert _counter(front, "joins.total") == 1

    def test_spanning_points_are_counted_once_fleet_wide(
            self, sharded_pair, query_points):
        lngs, lats = _spanning_from_slot0(sharded_pair[0], query_points)
        for service in sharded_pair:
            service.query_batch("nyc", lngs, lats)
            for lng, lat in zip(lngs[:5], lats[:5]):
                service.query("nyc", lng, lat)
        assert sum(_counter(service, "queries.total")
                   for service in sharded_pair) == 2 * (len(lngs) + 5)

    def test_a_traced_spanning_batch_stamps_route_and_gather(
            self, sharded_pair, query_points):
        trace = Trace("t", kind="query_batch")
        sharded_pair[0].query_batch("nyc", *query_points, trace=trace)
        stages = [name for name, _seconds in trace.stages]
        # the local leg's own stages run between the two
        assert stages[0] == "route" and stages[-1] == "gather"
        assert "admission" in stages


class TestRoutedFront:
    """A sharded worker's binary front: one thread per connection, so a
    routed batch blocks only its own connection."""

    def test_pipelined_replies_keep_request_order(self, wired_pair):
        """A slow spanning batch, then a 2-point one, pipelined on one
        connection: the replies come back in request order, every
        time."""
        (front, _), (server, _) = wired_pair
        lngs, lats = _spanning_from_slot0(
            front, taxi_points(16_000, seed=11))
        with binproto.Client(*server.server_address,
                             timeout=60.0) as client:
            for _ in range(10):
                sent = [client.send_query("nyc", lngs, lats, exact=True),
                        client.send_query("nyc", lngs[:2], lats[:2],
                                          exact=True)]
                assert [client.recv_results()[0] for _ in sent] == sent

    def test_stop_answers_the_routed_frame_in_flight(
            self, wired_pair, plain, query_points):
        """The drain answers a routed frame it has already read before
        it returns."""
        (front, _), (server, _) = wired_pair
        lngs, lats = _spanning_from_slot0(front, query_points)
        chaos.configure("shard.forward=slow:1.0:0.5")
        try:
            with binproto.Client(*server.server_address, timeout=30.0,
                                 retries=0) as client:
                sent = client.send_query("nyc", lngs, lats, exact=True)
                # wait until the frame is read and its forward held back
                deadline = time.monotonic() + 10.0
                while _counter(front, "faults.chaos_injections") < 1:
                    assert time.monotonic() < deadline, "never routed"
                    time.sleep(0.01)
                server.shutdown()
                server.server_close()
                rid, results = client.recv_results()
        finally:
            chaos.configure("")
        assert rid == sent
        assert results == plain.query_batch("nyc", lngs, lats, exact=True)


class TestShardedServiceInProcess:
    def test_batch_spanning_all_shards(self, sharded_pair, nyc_index,
                                       query_points, plain):
        lngs, lats = query_points
        truth = plain.query_batch("nyc", lngs, lats)
        truth_counts = plain.join("nyc", lngs, lats, exact=True)
        for service in sharded_pair:
            assert service.query_batch("nyc", lngs, lats) == truth
            assert service.query_batch("nyc", [], []) == []  # no leg at all
            assert np.array_equal(service.join("nyc", lngs, lats,
                                               exact=True), truth_counts)
        infos = [service.shard_info() for service in sharded_pair]
        assert sum(i["forwarded"] for i in infos) > 0
        assert sum(i["local"] for i in infos) > 0
        full = nyc_index.core.total_bytes
        for info in infos:
            assert info["node_pool_bytes"] < 0.75 * full

    def test_scalar_query_routes(self, sharded_pair, nyc_index,
                                 query_points):
        lngs, lats = query_points
        for lng, lat in zip(lngs[:20], lats[:20]):
            expected = nyc_index.query(lng, lat)
            for service in sharded_pair:
                assert service.query("nyc", lng, lat) == expected
        keys = shard_keys(nyc_index.grid, lngs[:20], lats[:20],
                          nyc_index.boundary_level)
        for service in sharded_pair:
            stage = service.router
            owned = int((stage.shard_map.route("nyc", keys)
                         == stage.slot).sum())
            assert 0 < _counter(service, "shard.local") == owned
            # a point this slot owns takes the scalar path: its misses
            # are inline descents, not one-point batches
            assert _counter(service, "queries.inline_miss") > 0

    def test_shed_needs_whole_owner_set(self, nyc_index, query_points,
                                        sharded_service, monkeypatch):
        """Admission sheds only on fresh saturation of EVERY owner."""
        monkeypatch.setattr(router, "SHED_INFLIGHT", 1)
        monkeypatch.setattr(router, "SHED_STALENESS_S", 5.0)
        snapshots = {}
        service = sharded_service(
            nyc_index, plan_shard_map({"nyc": nyc_index}, 2), 0,
            snapshots=snapshots)
        stage = service.router
        try:
            lngs, lats = query_points
            # no snapshot from the remote owner: fail open on the
            # admission check (the forward itself then fails — there is
            # no address — which is the error path, not the shed path)
            assert stage._saturated([0, 1], service._inflight) is False
            service._inflight = 3  # own slot saturated
            assert stage._saturated([0, 1], service._inflight) is False
            snapshots[1] = {"admission": {"inflight": 99,
                                          "ts": time.time()}}
            stage._snap_cache = (0.0, {})  # drop the cached view
            assert stage._saturated([0, 1], service._inflight) is True
            shed_before = service.metrics.counter("shard.shed").value
            with pytest.raises(BudgetExceededError):
                service.query_batch("nyc", lngs, lats)
            assert (service.metrics.counter("shard.shed").value
                    > shed_before)
            # a stale saturation report fails open again
            snapshots[1] = {"admission": {"inflight": 99,
                                          "ts": time.time() - 60.0}}
            stage._snap_cache = (0.0, {})
            assert stage._saturated([0, 1], service._inflight) is False
        finally:
            service._inflight = 0

    def test_rebalance_reslices(self, nyc_index, query_points, tmp_path,
                                sharded_service):
        """Serving the slice cut under a higher-generation map, and
        routing by that map, changes the resident slice without
        touching correctness for locally-owned keys."""
        map1 = plan_shard_map({"nyc": nyc_index}, 2)
        service = sharded_service(nyc_index, map1, 0)
        registry = service.registry
        # slot 0's share moves: it now owns the upper half of the keys
        map2 = ShardMap(2, {"nyc": [
            ShardRange(r.cell_lo, r.cell_hi, 1 - r.slot)
            for r in map1.ranges["nyc"]]}, 2)
        with pytest.raises(FileNotFoundError):  # not cut yet
            service.adopt_generation("nyc", tmp_path / "slot0.npz", 2)
        assert service.shard_info()["map_generation"] == 1
        paths = write_slices(nyc_index, map2, tmp_path, "nyc")
        service.adopt_generation("nyc", paths[0], 2)
        service.router.route_by(map2)
        info = service.shard_info()
        assert info["map_generation"] == 2
        assert info["slice_path"] == {"nyc": str(paths[0])}
        lngs, lats = query_points
        keys = shard_keys(nyc_index.grid, lngs, lats,
                          nyc_index.boundary_level)
        own = map2.route("nyc", keys) == 0
        truth = nyc_index.lookup_batch(lngs[own], lats[own])
        record = registry.materialized["nyc"]
        got = record.index.lookup_batch(lngs[own], lats[own])
        assert np.array_equal(got, truth)
        assert not record.index.lookup_batch(lngs[~own], lats[~own]).any()
        assert (record.index.core.total_bytes
                < nyc_index.core.total_bytes)

    def test_a_reload_maps_the_slot_s_slice_not_the_full_artifact(
            self, nyc_index, tmp_path, sharded_service):
        """A worker maps its own slot's slice of a sharded generation
        directory, never the directory's full archive; a directory
        ``current.json`` names that is not there yet is a NACK, and the
        worker keeps what it serves."""
        shard_map = plan_shard_map({"nyc": nyc_index}, 2)
        service = sharded_service(nyc_index, shard_map, 1)
        before = service.registry.pin("nyc")
        worker = FleetLifecycle(tmp_path, 2, service=service, slot=1,
                                snapshots={})
        replace_current(tmp_path, {"nyc": 1})
        nack = worker.poll()["nack"]["nyc"]
        assert nack["generation"] == 1
        assert "FileNotFoundError" in nack["error"]
        assert service.registry.pin("nyc") is before
        assert write_generation(tmp_path, "nyc", index=nyc_index,
                                shard_map=shard_map) == 1
        assert worker.poll()["mapped"] == {"nyc": 1}
        record = service.registry.pin("nyc")
        assert (record.generation, record.path) == (
            1, generation_dir(tmp_path, "nyc", 1) / "slot1.npz")
        assert record.index.core.total_bytes < nyc_index.core.total_bytes
        assert worker.status() == {"converged": True, "last_error": None}
        assert service.shard_info()["map_generation"] == 1


class TestShardedLifecycle:
    """Generation directories in a sharded fleet, without the forks:
    slot 0's worker coordinates, slot 1's maps on its tick."""

    @pytest.fixture()
    def fleet_of_two(self, nyc_index, tmp_path, sharded_service,
                     publishing):
        shard_map = plan_shard_map({"nyc": nyc_index}, 2)
        # what the fleet's cutter leaves: generation 1 in full and cut,
        # published
        root, source = tmp_path / "fleet", tmp_path / "nyc.npz"
        save_index(nyc_index, source)
        replace_current(root, {"nyc": write_generation(
            root, "nyc", index=nyc_index, full_from=source, source=source,
            shard_map=shard_map)})
        services = [sharded_service(nyc_index, shard_map, slot)
                    for slot in range(2)]
        snapshots = {}
        lifecycles = [FleetLifecycle(root, 2, service=service, slot=slot,
                                     snapshots=snapshots, timeout_s=10.0)
                      for slot, service in enumerate(services)]
        for lifecycle in lifecycles:
            snapshots[str(lifecycle.slot)] = lifecycle.poll()
        publishing(lifecycles[1:], snapshots)
        return services, lifecycles, root

    @staticmethod
    def _on_slices(services, root, generation):
        return all(
            (record.generation, record.path) == (
                generation,
                generation_dir(root, "nyc", generation) / f"slot{slot}.npz")
            for slot, service in enumerate(services)
            for record in [service.registry.materialized["nyc"]])

    def test_reload_cuts_once_and_everyone_maps_their_own(
            self, fleet_of_two, nyc_index):
        services, lifecycles, root = fleet_of_two
        result = lifecycles[0].submit({"op": "reload", "name": "nyc"})
        assert result["complete"] is True, result
        assert result["generation"] == 2
        assert sorted(result["acks"]) == ["0", "1"]
        assert self._on_slices(services, root, 2)
        assert (sum(s.registry.get("nyc").core.num_entries
                    for s in services) == nyc_index.core.num_entries)
        # cut once: one directory, the full archive and a slice a slot
        assert sorted(os.listdir(generation_dir(root, "nyc", 2))) == [
            "MANIFEST", "full.npz", "shard_map.json", "slot0.npz",
            "slot1.npz"]
        # one reload each, the coordinator's included
        assert [s.metrics.counter("admin.reloads").value
                for s in services] == [1, 1]

    def test_corrupt_slice_nacks_and_the_fleet_rolls_back(
            self, fleet_of_two, nyc_index, monkeypatch):
        from repro.serve import statedir

        services, lifecycles, root = fleet_of_two
        real = statedir.write_slices

        def cut_then_damage(index, shard_map, directory, name, timings):
            paths = real(index, shard_map, directory, name, timings)
            with open(paths[1], "r+b") as fp:  # slot 1's copy
                fp.truncate(paths[1].stat().st_size // 2)
            return paths

        monkeypatch.setattr(statedir, "write_slices", cut_then_damage)
        reload = {"op": "reload", "name": "nyc"}
        result = lifecycles[0].submit(reload)
        assert result["complete"] is False
        assert result["failed"] == ["1"]
        assert "corrupt" in result["error"]
        # current.json names generation 1 again, directory 2 is aside
        assert result["rolled_back"] is True, result
        assert result["generation"] == 1
        assert read_current(root) == {"nyc": 1}
        assert result["quarantined"].endswith("2.quarantine")
        assert self._on_slices(services, root, 1)
        assert (sum(s.registry.get("nyc").core.num_entries
                    for s in services) == nyc_index.core.num_entries)
        assert lifecycles[1].status()["converged"] is True
        counters = services[1].metrics.snapshot()["counters"]
        assert counters["faults.artifact_corrupt"] == 1
        # the retry gets a number never used before
        monkeypatch.undo()
        retry = lifecycles[0].submit(reload)
        assert retry["complete"] is True, retry
        assert retry["generation"] == 3
        assert self._on_slices(services, root, 3)

    def test_poll_maps_the_published_map_or_says_not_ready(
            self, fleet_of_two, nyc_index):
        services, lifecycles, root = fleet_of_two
        follower, service = lifecycles[1], services[1]
        newer = plan_shard_map({"nyc": nyc_index}, 2, generation=2)
        broken = write_generation(root, "nyc", index=nyc_index,
                                  shard_map=newer)
        os.unlink(generation_dir(root, "nyc", broken) / "slot1.npz")
        replace_current(root, {"nyc": broken})

        def status():
            follower.poll()
            return follower.status()

        assert status()["converged"] is False
        assert "slot1.npz" in status()["last_error"]
        assert service.shard_info()["map_generation"] == 1
        # a directory is never repaired in place: the next one heals
        replace_current(root, {"nyc": write_generation(
            root, "nyc", index=nyc_index, shard_map=newer)})
        assert status() == {"converged": True, "last_error": None}
        assert service.shard_info()["map_generation"] == 2
