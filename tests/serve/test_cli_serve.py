"""End-to-end smoke test: the real ``repro-act serve`` process answers
``/healthz`` and ``/query`` over HTTP."""

import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module")
def serve_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--dataset", "neighborhoods", "--size", "12",
         "--precision", "300", "--port", "0"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    port = None
    deadline = time.monotonic() + 120.0
    try:
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            if not line and proc.poll() is not None:
                pytest.fail(f"serve exited early with {proc.returncode}")
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            pytest.fail("serve never announced its port")
        yield port
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()


def _get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10.0) as resp:
        return resp.status, json.loads(resp.read())


def test_serving_never_imports_scipy():
    """Only the Voronoi dataset generator needs scipy; a process that
    serves an index file must not pay its import (~0.3 s, ~30 MiB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.serve; "
         "assert 'scipy' not in sys.modules, "
         "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]"],
        env=env, check=True, timeout=60.0)


def test_sigterm_drains_and_removes_the_state_directory(tmp_path):
    """A single process is a fleet of one: it keeps its generation
    directories in a temp directory, which SIGTERM's drain removes."""
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--dataset", "neighborhoods", "--size", "12",
         "--precision", "300", "--port", "0"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    try:
        port = None
        for line in proc.stderr:
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "serve never announced its port"
        (state,) = os.listdir(tmp_path)
        assert state.startswith("repro-serve-")
        assert _get(port, "/readyz")[0] == 200
        proc.terminate()
        assert proc.wait(timeout=60.0) == 0
        assert os.listdir(tmp_path) == []
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.fixture(scope="module")
def fleet_process():
    """The real ``repro-act serve --workers 2`` fleet."""
    from repro.serve.fleet import fleet_available

    if not fleet_available():
        pytest.skip("fleet needs the 'fork' start method")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--dataset", "neighborhoods", "--size", "12",
         "--precision", "300", "--port", "0", "--workers", "2"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    port = None
    deadline = time.monotonic() + 120.0
    try:
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            if not line and proc.poll() is not None:
                pytest.fail(f"fleet exited early with {proc.returncode}")
            match = re.search(r"on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            pytest.fail("fleet never announced its port")
        yield proc, port
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:  # pragma: no cover
            proc.kill()


class TestServeSmoke:
    def test_healthz(self, serve_process):
        status, body = _get(serve_process, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["indexes"] == ["neighborhoods"]

    def test_query(self, serve_process):
        status, body = _get(
            serve_process,
            "/query?index=neighborhoods&lng=-73.97&lat=40.75")
        assert status == 200
        assert body["is_hit"] in (True, False)
        assert isinstance(body["polygon_ids"], list)

    def test_stats(self, serve_process):
        status, body = _get(serve_process, "/stats")
        assert status == 200
        assert body["metrics"]["counters"]["queries.total"] >= 1


class TestFleetServeSmoke:
    def test_healthz_reports_worker(self, fleet_process):
        _, port = fleet_process
        status, body = _get(port, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["worker"] in (0, 1)

    def test_stats_has_fleet_section(self, fleet_process):
        _, port = fleet_process
        status, body = _get(
            port, "/query?index=neighborhoods&lng=-73.97&lat=40.75")
        assert status == 200
        status, body = _get(port, "/stats")
        assert status == 200
        assert body["fleet"]["workers"] >= 1
        assert "qps" in body["fleet"]

    def test_sigterm_exits_cleanly(self, fleet_process):
        proc, port = fleet_process
        proc.terminate()  # SIGTERM -> drain -> exit 0
        assert proc.wait(timeout=60.0) == 0
