"""The system under test, started and observed the way an operator does.

The index artifact is built once per checkout into the work dir; every
server is a separate ``python -m repro.cli serve`` process that mmaps
it, found through the ports it announces on stderr, trusted once
``/readyz`` answers 200, and observed through ``/stats`` and ``/proc``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.act import serialize
from repro.act.index import ACTIndex

from .inputs import Scale

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Everything a run leaves behind lands here (git-ignored).
WORK_DIR = BENCH_DIR / "work"

#: The name servers register the artifact under (``--dataset census``).
INDEX_NAME = "census"

_START_TIMEOUT_S = 120.0
#: The CPUs this process may use, read before anything is pinned.
_CPUS = sorted(os.sched_getaffinity(0))
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def artifact_path(scale: Scale) -> Path:
    return WORK_DIR / (f"census-{scale.polygons}-{scale.polygon_seed}"
                       f"-{scale.precision_m:g}m.npz")


def build_index(scale: Scale) -> Tuple[ACTIndex, float]:
    """``(index, build seconds)`` — the timed call is ``ACTIndex.build``."""
    polygons = scale.census()
    start = time.perf_counter()
    index = ACTIndex.build(polygons, precision_meters=scale.precision_m)
    return index, time.perf_counter() - start


def save_index(index: ACTIndex, path: Path) -> float:
    """Write the artifact next to its final name, then rename it in
    place, so a run killed half way never leaves a torn artifact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.stem}.{os.getpid()}.partial.npz")
    start = time.perf_counter()
    serialize.save_index(index, partial)
    elapsed = time.perf_counter() - start
    os.replace(partial, path)
    return elapsed


def ensure_artifact(scale: Scale) -> Path:
    """The artifact's path, building it on a checkout's first run."""
    path = artifact_path(scale)
    if not path.exists():
        index, _ = build_index(scale)
        save_index(index, path)
    return path


def load_index(path: Path) -> ACTIndex:
    """The way every server loads it: memory-mapped, read-only."""
    return serialize.load_index(path, mmap_mode="r")


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # field 2 (comm) may hold spaces; everything after ") " is regular
    return raw[raw.rindex(")") + 2:].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (fleet workers, the manager)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(p for p, parent in parent_of.items() if parent == pid)
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU time consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICK


def peak_rss_mib(pids: List[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kib += int(match.group(1))
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# Servers
# ----------------------------------------------------------------------
class ServerError(RuntimeError):
    """The server under test did not come up or did not answer."""


class Server:
    """One ``repro-act serve`` process (or sharded fleet) under test."""

    def __init__(self, artifact: Path, sharded: bool, tag: str):
        """Start the server, wait until ``/readyz`` answers, then pin
        it and the calling process — the client — to CPUs."""
        self.sharded = sharded
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self._log_path = WORK_DIR / f"server-{tag}-{os.getpid()}.log"
        args = [sys.executable, "-m", "repro.cli", "serve",
                "--dataset", INDEX_NAME, "--index-file", str(artifact),
                "--mmap", "--port", "0", "--binary-port", "0"]
        if sharded:
            args += ["--workers", "2", "--shards"]
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        self._log = open(self._log_path, "w")
        # its own session: stop() can then signal the whole group, so
        # no fleet worker or manager outlives the run
        self.process = subprocess.Popen(
            args, env=env, cwd=REPO_ROOT, stdout=self._log,
            stderr=self._log, start_new_session=True)
        # it starts on every CPU, whatever an earlier start pinned
        # this process to
        os.sched_setaffinity(self.process.pid, _CPUS)
        self.http_port = 0
        self.binary_port = 0
        try:
            self._await_ready()
            self._pin()
        except BaseException:
            self.stop()
            raise

    def _pin(self) -> None:
        """One CPU for each process that answers queries, the last CPU
        for the one the client talks to, and the client on that CPU too.

        With one request in flight the client and its server never
        need to run at once, and a fleet's workers never need to share
        a CPU. Left to the scheduler they migrate: every wake-up that
        crosses CPUs costs this kind of VM an inter-processor
        interrupt, which stretched a 0.33 ms request to 0.6 ms and
        made passes of the sharded workload differ by 40 %; pinned,
        they differ by 10 %.
        """
        for slot, pid in enumerate(self._serving_pids()):
            cpu = _CPUS[-1 - slot % len(_CPUS)]
            for thread in os.listdir(f"/proc/{pid}/task"):
                try:
                    os.sched_setaffinity(int(thread), {cpu})
                except ProcessLookupError:
                    pass  # a thread that has ended needs no CPU
        os.sched_setaffinity(0, _CPUS[-1:])

    def _serving_pids(self) -> List[int]:
        """The pid of each process that answers queries, by shard slot."""
        if not self.sharded:
            return [self.process.pid]
        return [ready["pid"] for ready in self._each_worker(
            "/readyz", lambda payload: payload["worker"])]

    def _await_ready(self) -> None:
        deadline = time.monotonic() + _START_TIMEOUT_S
        # the last line the CLI prints before serving names the binary
        # socket(s); in shard mode slot 0's is the configured one
        last = "shard binary sockets" if self.sharded else "binary data plane"
        while True:
            text = self._log_path.read_text()
            if last in text:
                break
            self._check_alive(deadline, "announce its ports")
            time.sleep(0.005)
        self.http_port = int(re.search(
            r"on http://[\d.]+:(\d+)", text).group(1))
        self.binary_port = int(re.search(
            r"binary data plane on [\d.]+:(\d+)", text).group(1))
        while True:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except OSError:
                pass
            self._check_alive(deadline, "answer /readyz")
            time.sleep(0.005)

    def _check_alive(self, deadline: float, what: str) -> None:
        if self.process.poll() is not None:
            raise ServerError(
                f"server exited with {self.process.returncode} before it "
                f"could {what}:\n{self._log_path.read_text()}")
        if time.monotonic() > deadline:
            raise ServerError(f"server did not {what} in time")

    def get(self, path: str) -> Tuple[int, dict]:
        """``(status, JSON body)`` of one GET on a fresh connection."""
        conn = http.client.HTTPConnection("127.0.0.1", self.http_port,
                                          timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def _each_worker(self, path: str,
                     slot_of: Callable[[dict], int]) -> List[dict]:
        """``GET path`` answered by each fleet worker, by shard slot
        (``slot_of`` reads the slot off an answer).

        The workers share the HTTP port and the kernel picks who
        answers a connection, so ask until each slot has answered.
        """
        by_slot: Dict[int, dict] = {}
        for _ in range(200):
            payload = self.get(path)[1]
            by_slot[slot_of(payload)] = payload
            if len(by_slot) == 2:
                return [by_slot[0], by_slot[1]]
        raise ServerError(f"one fleet worker never answered {path}")

    def stats(self) -> List[dict]:
        """``/stats`` of every process that answers queries."""
        if not self.sharded:
            return [self.get("/stats")[1]]
        return self._each_worker(
            "/stats", lambda payload: payload["shard"]["slot"])

    def pids(self) -> List[int]:
        return process_tree(self.process.pid)

    def stop(self) -> None:
        """Stop the server and everything it forked; wait for the end."""
        tree = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        # forked workers are not our children, so they cannot be waited
        # for; after SIGKILL they are gone within moments
        deadline = time.monotonic() + 10.0
        while (any(_stat_fields(pid) for pid in tree[1:])
               and time.monotonic() < deadline):
            time.sleep(0.01)
        self._log.close()
        self._log_path.unlink(missing_ok=True)
