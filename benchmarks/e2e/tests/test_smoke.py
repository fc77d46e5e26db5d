"""Every workload end to end, at smoke scale, through ``run.py``."""

import json
import subprocess
import sys
import time

import pytest

from actbench.targets import WORKLOADS
from conftest import BENCH_DIR, REPO_ROOT

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

#: Counts that must repeat exactly when a seed is run twice.
EXACT_COUNTS = (
    "serve.cache.hit_share", "serve.cache.evictions_per_point",
    "serve.router.forwarded_share", "act.core.candidate_pairs_per_point",
    "act.core.unique_cells_per_point", "geometry.edge_table.inside_share",
    "serve.binproto.request_bytes_per_point",
    "serve.binproto.reply_bytes_per_point",
    "serve.server.reply_bytes_per_point",
)


def _run_one(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        RUN + ["--smoke", "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd="/")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "report.json"
    start = time.monotonic()
    done = subprocess.run(RUN + ["--smoke", "--seed", "3", "--out", str(out)],
                          capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout, elapsed


def test_smoke_runs_every_workload_correctly_and_fast(smoke_report):
    report, stdout, elapsed = smoke_report
    # 20-26 s on the box it was written on; the guard is against smoke
    # growing into a measurement, not against a slow spell of the host
    assert elapsed < 60.0
    assert list(report["workloads"]) == [w.name for w in WORKLOADS]
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert entry["runs"][0]["passes"] == 2
        assert set(entry["end_to_end"]) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["per_layer"]) == {
            m["name"] for m in SPEC["per_layer"]}
        # 20 requests: p95 is withheld, the median is not
        assert entry["end_to_end"]["req_p95_ms"]["median"] is None
        assert entry["end_to_end"]["req_p50_ms"]["median"] > 0
        assert entry["traced_run"]["mirror_faithful"] in (True, False)
        assert name in stdout
    for key in ("nproc", "loadavg_start", "loadavg_end", "python", "numpy",
                "commit"):
        assert key in report["env"]
    assert (report["seed"], report["smoke"]) == (3, True)


def test_the_predictions_hold_at_smoke_scale(smoke_report):
    layers = {name: {k: v["value"] for k, v in entry["per_layer"].items()}
              for name, entry in smoke_report[0]["workloads"].items()}
    assert layers["bin_hot_small"]["serve.cache.hit_share"] >= 0.95
    assert layers["join_exact_boundary"][
        "act.core.candidate_pairs_per_point"] >= 0.4
    assert 0 < layers["shard_cold_exact"][
        "serve.router.forwarded_share"] < 1
    # work no layer of a workload does is reported as zero
    assert layers["join_approx_taxi"][
        "geometry.edge_table.refine_ns_per_pair"] == 0
    assert layers["bin_hot_small"]["serve.server.json_parse_ns_per_point"] == 0
    assert layers["http_json_small"][
        "serve.binproto.decode_results_ns_per_point"] == 0


def test_one_workload_prints_the_contracts_result_object():
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        line = _run_one("bin_cold_exact", trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            got = line["metrics"][metric["name"]]
            assert set(got) == {"value", "unit"}
            assert got["unit"] == metric["unit"]


def test_counts_repeat_exactly_for_one_seed():
    for workload in ("bin_cold_exact", "shard_cold_exact",
                     "join_exact_boundary", "http_json_small"):
        first = _run_one(workload, 1)["metrics"]
        again = _run_one(workload, 1)["metrics"]
        for name in EXACT_COUNTS:
            assert first[name]["value"] == again[name]["value"], (
                workload, name)


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(BENCH_DIR), str(bare / "benchmarks/e2e")],
                   check=True)
    subprocess.run(["cp", str(REPO_ROOT / "BENCHMARK.json"), str(bare)],
                   check=True)
    subprocess.run(["rm", "-rf", str(bare / "benchmarks/e2e/work")],
                   check=True)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "bin_hot_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
