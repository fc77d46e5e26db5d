"""``BENCHMARK.json`` against the benchmark contract, and ``compare``."""

import json
import re

from actbench.report import compare_reports
from actbench.targets import WORKLOADS
from conftest import REPO_ROOT

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_workloads_are_the_six_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == [
        w.name for w in WORKLOADS]
    for entry, workload in zip(SPEC["workloads"], WORKLOADS):
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workload.why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_are_well_formed_and_named_once():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_setup_time_is_a_metric_with_the_largest_bound():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {"points_per_s", "req_p50_ms", "req_p95_ms",
            "peak_rss_mb"} <= set(by_name)


def _report(points_per_s, p50, spread=0.01, failed=0):
    def metric(value, wide=spread):
        return {"unit": "x", "values": [value], "median": value,
                "spread": wide}

    return {"workloads": {"bin_hot_small": {
        "end_to_end": {
            "points_per_s": metric(points_per_s), "req_p50_ms": metric(p50),
            "req_p95_ms": metric(None), "setup_s": metric(1.0, None),
            "peak_rss_mb": metric(100.0),
        },
        "failed": failed, "failed_share": failed / 100,
    }}}


def _verdicts(base, other):
    return {row["metric"]: row["verdict"]
            for row in compare_reports(base, other, SPEC)}


def test_compare_applies_each_bound_in_the_metrics_own_direction():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    slower = 100.0 * (1 - bound["points_per_s"] - 0.05)
    verdicts = _verdicts(_report(100.0, 1.0), _report(slower, 0.8))
    assert verdicts["points_per_s"] == "regression"   # higher is better
    assert verdicts["req_p50_ms"] == "within bound"   # lower is better
    assert "req_p95_ms" not in verdicts               # withheld: no row
    assert verdicts["setup_s"] == "within bound"      # spread unknown
    rows = compare_reports(_report(100.0, 1.0), _report(slower, 0.8), SPEC)
    row = next(r for r in rows if r["metric"] == "points_per_s")
    assert (row["base"], row["other"]) == (100.0, slower)
    assert row["ratio"] == slower / 100.0
    assert abs(row["worse_by"] - (bound["points_per_s"] + 0.05)) < 1e-12
    # the same loss inside the bound is not a regression
    verdicts = _verdicts(_report(100.0, 1.0), _report(99.0, 1.01))
    assert set(verdicts.values()) == {"within bound"}


def test_compare_calls_a_noisy_pairing_unresolved_not_unchanged():
    verdicts = _verdicts(_report(100.0, 1.0, spread=0.3),
                         _report(101.0, 1.0))
    assert verdicts["points_per_s"] == "unresolved"
    # a difference beyond the bound is a regression however noisy
    verdicts = _verdicts(_report(100.0, 1.0, spread=0.3),
                         _report(50.0, 1.0))
    assert verdicts["points_per_s"] == "regression"


def test_compare_flags_any_failed_request():
    verdicts = _verdicts(_report(100.0, 1.0), _report(100.0, 1.0, failed=1))
    assert verdicts["failed_share"].startswith("regression")
