"""The fleet's file-backed state: records are never torn, and the
admin lock dies with its holder.

The process tests fork real children and hand-shake over pipes; they
assert on what was read and who got the lock, never on how long it
took (every wait has a generous ceiling that only a hang would reach).
"""

import math
import multiprocessing
import os
import signal
import threading

import pytest

from repro.errors import ServeError
from repro.join.parallel import fork_available
from repro.serve.lifecycle import FleetLifecycle
from repro.serve.statedir import (DirMapping, FileLock, read_current,
                                  replace_current, write_generation)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the 'fork' start method")

_CEILING_S = 30.0


def _fork(target, *args):
    """Start ``target(conn, *args)`` in a forked child; returns the
    process and the parent's end of a duplex pipe to it."""
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=target, args=(theirs,) + args, daemon=True)
    child.start()
    theirs.close()
    return child, ours


def _recv(conn):
    assert conn.poll(_CEILING_S), "the child never reported"
    return conn.recv()


class TestDirMapping:
    def test_round_trips_what_the_fleet_stores(self, tmp_path):
        mapping = DirMapping(tmp_path / "state").reset()
        assert mapping.get("seq") is None and mapping.get("seq", 0) == 0
        record = {"le": math.inf, "cell_hi": (1 << 64) - 1,
                  "nested": {"rows": [[0, 1, 2]], "none": None}}
        mapping["ack:3:parent"] = record
        assert mapping.get("ack:3:parent") == record
        mapping[0] = {"worker": 0}  # a slot key reads back as its name
        assert sorted(mapping.keys()) == ["0", "ack:3:parent"]
        assert mapping.get(0) == mapping.get("0") == {"worker": 0}
        assert dict(mapping.items()) == {"0": {"worker": 0},
                                         "ack:3:parent": record}
        del mapping[0]
        with pytest.raises(KeyError):
            del mapping[0]
        assert mapping.keys() == ["ack:3:parent"]

    def test_an_unserializable_value_leaves_no_file(self, tmp_path):
        mapping = DirMapping(tmp_path).reset()
        with pytest.raises(TypeError):
            mapping["bad"] = {"value": object()}
        assert os.listdir(tmp_path) == []

    def test_a_key_that_vanishes_mid_listing_is_skipped(self, tmp_path,
                                                        monkeypatch):
        mapping = DirMapping(tmp_path).reset()
        mapping["kept"] = 1
        monkeypatch.setattr(mapping, "keys", lambda: ["gone", "kept"])
        assert mapping.items() == [("kept", 1)]

    def test_a_removed_directory_reads_empty_and_refuses_writes(
            self, tmp_path):
        mapping = DirMapping(tmp_path / "never-made")
        assert mapping.get("seq") is None
        assert mapping.keys() == [] and mapping.items() == []
        mapping.sweep_partials(os.getpid())
        with pytest.raises(OSError):
            mapping["seq"] = 1

    def test_reset_and_sweep_take_only_what_they_should(self, tmp_path):
        mapping = DirMapping(tmp_path / "state").reset()
        mapping["seq"] = 4
        (tmp_path / "state" / ".seq.111-7.partial").write_text("{tor")
        (tmp_path / "state" / ".op.222-7.partial").write_text("{tor")
        (tmp_path / "state" / ".lock").write_text("")
        assert mapping.keys() == ["seq"]  # dot-names are not keys
        mapping.sweep_partials(111)
        assert sorted(os.listdir(mapping.path)) == [
            ".lock", ".op.222-7.partial", "seq"]
        assert mapping.reset().keys() == []
        assert os.listdir(mapping.path) == []


def _rewrite_until_told(conn, path):
    mapping = DirMapping(path)
    written = 0
    while not conn.poll(0):
        # growing payloads: a torn read would be a short, unparsable one
        mapping["record"] = {"n": written, "pad": "x" * (written % 400) * 64}
        written += 1
        if written == 1:
            conn.send("writing")
    conn.send(written)


def test_a_concurrent_reader_never_sees_a_torn_record(tmp_path):
    mapping = DirMapping(tmp_path).reset()
    writer, conn = _fork(_rewrite_until_told, str(tmp_path))
    try:
        assert _recv(conn) == "writing"
        seen = set()
        for _ in range(3000):
            record = mapping.get("record")  # raises if it does not parse
            assert record["pad"] == "x" * (record["n"] % 400) * 64
            seen.add(record["n"])
        conn.send("stop")
        written = _recv(conn)
        assert max(seen) < written
    finally:
        writer.join(_CEILING_S)
        assert not writer.is_alive()
    # no temporary outlived its writer
    assert os.listdir(tmp_path) == ["record"]


def _hold_lock(conn, path):
    lock = FileLock(path)
    assert lock.acquire(True, _CEILING_S)
    conn.send("held")
    conn.recv()  # hold until told (or killed)
    lock.release()
    conn.send("released")


def _acquire_inherited(conn, lock):
    conn.send("trying")
    got = lock.acquire(True, _CEILING_S)
    conn.send(got)
    if got:
        lock.release()


class TestFileLock:
    def test_two_threads_of_one_process_exclude_each_other(self, tmp_path):
        lock = FileLock(tmp_path / ".lock")
        assert lock.acquire(True, 1.0)
        outcomes = []

        def contend():
            outcomes.append(lock.acquire(False))
            outcomes.append(lock.acquire(True, 0.05))

        thread = threading.Thread(target=contend)
        thread.start()
        thread.join(_CEILING_S)
        assert outcomes == [False, False]
        lock.release()
        thread = threading.Thread(
            target=lambda: outcomes.append(lock.acquire(True, _CEILING_S)))
        thread.start()
        thread.join(_CEILING_S)
        assert outcomes == [False, False, True]
        lock.release()

    def test_a_second_process_is_excluded_until_release(self, tmp_path):
        path = str(tmp_path / ".lock")
        holder, conn = _fork(_hold_lock, path)
        try:
            assert _recv(conn) == "held"
            lock = FileLock(path)
            assert lock.acquire(False) is False
            assert lock.acquire(True, 0.05) is False
            conn.send("release")
            assert _recv(conn) == "released"
            assert lock.acquire(True, _CEILING_S)
            lock.release()
        finally:
            holder.join(_CEILING_S)

    def test_a_child_forked_under_a_held_lock_acquires_after_release(
            self, tmp_path):
        """The supervisor respawns workers from a thread, possibly while
        an admin operation holds the lock in the parent: the child's
        copy of the lock must not be born held."""
        lock = FileLock(tmp_path / ".lock")
        assert lock.acquire(True, 1.0)
        child, conn = _fork(_acquire_inherited, lock)
        try:
            assert _recv(conn) == "trying"
            lock.release()
            assert _recv(conn) is True
        finally:
            child.join(_CEILING_S)
        assert lock.acquire(True, _CEILING_S)  # the child let go of it
        lock.release()

    def test_a_killed_holder_releases(self, tmp_path):
        path = str(tmp_path / ".lock")
        holder, conn = _fork(_hold_lock, path)
        assert _recv(conn) == "held"
        lock = FileLock(path)
        assert lock.acquire(False) is False
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(_CEILING_S)
        assert lock.acquire(True, _CEILING_S)
        lock.release()


class TestAdminLockOverFiles:
    """``FleetLifecycle.submit`` under the fleet's file lock: a live
    holder elsewhere is the usual "in progress" error; a dead one is
    not an error at all."""

    @pytest.fixture()
    def lifecycle(self, tmp_path, nyc_index):
        from repro.act.serialize import save_index

        source = tmp_path / "nyc.npz"
        save_index(nyc_index, source)
        root = tmp_path / "fleet"
        replace_current(root, {"nyc": write_generation(
            root, "nyc", full_from=source, source=source)})
        return FleetLifecycle(root, 0, timeout_s=0.2), source

    def test_dead_coordinator_does_not_wedge_the_next_submit(
            self, lifecycle):
        lifecycle, source = lifecycle
        request = {"op": "reload", "name": "nyc", "path": str(source)}
        holder, conn = _fork(_hold_lock, lifecycle._op_lock.path)
        assert _recv(conn) == "held"
        with pytest.raises(ServeError, match="another admin operation "
                                             "is in progress fleet-wide"):
            lifecycle.submit(request)
        os.kill(holder.pid, signal.SIGKILL)  # mid-operation, lock held
        holder.join(_CEILING_S)
        response = lifecycle.submit(request)
        assert response["complete"] is True
        assert response["generation"] == 2
        assert read_current(lifecycle.root) == {"nyc": 2}
