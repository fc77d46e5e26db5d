"""Front ends of ``run.py``: one workload, all workloads, ``compare``.

``BENCHMARK.json`` is the one place metric names, units, directions
and bounds are declared; everything printed or compared here is read
from it.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from . import ledger, measure, sut
from .estimators import spread
from .inputs import FULL, SMOKE
from .targets import BY_NAME, WORKLOADS


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args, spec: dict) -> int:
    """Run ``args.workload`` and print its result.

    The last line of stdout is the result object the benchmark
    contract names; the line before it carries the run's details
    (passes, samples, cold starts) for the all-workloads report.
    """
    workload = BY_NAME.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(BY_NAME)}", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else FULL
    if args.trace:
        trace_path = sut.WORK_DIR / (
            f"trace-{workload.name}-seed{args.seed}.json")
        declared = spec["per_layer"]
        result = ledger.traced(workload, scale, args.seed, trace_path,
                               [m["name"] for m in declared])
    else:
        result = measure.end_to_end(workload, scale, args.seed,
                                    args.seconds)
        declared = spec["end_to_end"]
    measured = result.pop("metrics")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "withheld" if value is None else f"{value:.6g}"
        print(f"{workload.name:<20} {name:<48} {shown:>14} {entry['unit']}")
    print(json.dumps({"detail": result}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


# ----------------------------------------------------------------------
# Every workload, each run in a fresh process
# ----------------------------------------------------------------------
def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=sut.REPO_ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _child(workload: str, args, trace: int) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; its two JSON lines."""
    command = [sys.executable, str(sut.BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited with {done.returncode} "
            f"and no result:\n{done.stderr}")
    out = json.loads(lines[-1])
    out["detail"] = json.loads(lines[-2])["detail"]
    return out


def run_all(args, spec: dict) -> int:
    env = {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }
    report: Dict[str, Any] = {
        "env": env, "seed": args.seed, "seconds": args.seconds,
        "repeat": args.repeat, "smoke": args.smoke, "workloads": {},
    }
    failed = 0
    for workload in WORKLOADS:
        runs = [_child(workload.name, args, 0) for _ in range(args.repeat)]
        traced = _child(workload.name, args, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"]
                      for run in runs]
            known = [v for v in values if v is not None]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(known) if known else None,
                "spread": spread(known),
            }
        attempted = sum(r["attempted"] for r in runs + [traced])
        wrong = sum(r["failed"] for r in runs + [traced])
        failed += wrong
        report["workloads"][workload.name] = {
            "why": workload.why,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "attempted": attempted, "failed": wrong,
            "failed_share": wrong / attempted,
            "runs": [r["detail"] for r in runs],
            "traced_run": traced["detail"],
        }
        _print_workload(workload.name, report["workloads"][workload.name])
    env["loadavg_end"] = os.getloadavg()
    print(f"\nenv: {json.dumps(env)}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if failed == 0 else 1


def _print_workload(name: str, entry: dict) -> None:
    passes = [run["passes"] for run in entry["runs"]]
    print(f"\n== {name}: {entry['attempted']} requests attempted, "
          f"{entry['failed']} failed (failed_share "
          f"{entry['failed_share']:.6f}); {entry['runs'][0]['samples']} "
          f"requests per pass, timed passes per run {passes}")
    for metric, got in entry["end_to_end"].items():
        median = got["median"]
        shown = "withheld" if median is None else f"{median:.6g}"
        wide = got["spread"]
        note = "" if wide is None else f"  (spread {wide:.1%})"
        print(f"  {metric:<48} {shown:>14} {got['unit']}{note}")
    for metric, got in entry["per_layer"].items():
        if got["value"]:
            print(f"  {metric:<48} {got['value']:>14.6g} {got['unit']}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare_reports(base: dict, other: dict, spec: dict) -> List[dict]:
    """One row per (workload, end-to-end metric) present in both.

    ``worse_by`` is how much worse ``other`` is than ``base``, as a
    share of ``base``. A row is a *regression* when that exceeds the
    metric's bound, *unresolved* — not unchanged — when either file
    recorded a run-to-run spread wider than the bound, since a
    difference inside the noise proves nothing either way.
    """
    rows = []
    for workload, entry in base["workloads"].items():
        theirs = other["workloads"].get(workload)
        if theirs is None:
            continue
        for metric in spec["end_to_end"]:
            a = entry["end_to_end"][metric["name"]]
            b = theirs["end_to_end"][metric["name"]]
            if a["median"] is None or b["median"] is None:
                continue
            delta = (b["median"] - a["median"]) / a["median"]
            worse_by = delta if metric["better"] == "lower" else -delta
            spreads = [s for s in (a["spread"], b["spread"])
                       if s is not None]
            if worse_by > metric["bound"]:
                verdict = "regression"
            elif spreads and max(spreads) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "base": a["median"],
                "other": b["median"], "ratio": b["median"] / a["median"],
                "worse_by": worse_by, "bound": metric["bound"],
                "spread": max(spreads) if spreads else None,
                "verdict": verdict,
            })
        for side, got in (("base", entry), ("other", theirs)):
            if got["failed"]:
                rows.append({
                    "workload": workload, "metric": "failed_share",
                    "unit": "ratio", "base": entry["failed_share"],
                    "other": theirs["failed_share"], "ratio": None,
                    "worse_by": None, "bound": 0.0, "spread": None,
                    "verdict": f"regression ({side} has failures)",
                })
                break
    return rows


def compare_main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare BASE.json OTHER.json", file=sys.stderr)
        return 2
    base, other = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((sut.REPO_ROOT / "BENCHMARK.json").read_text())
    for key in ("nproc", "python", "numpy"):
        if base["env"][key] != other["env"][key]:
            print(f"warning: {key} differs: {base['env'][key]} vs "
                  f"{other['env'][key]}; the files may not be comparable")
    for key in ("seed", "seconds", "smoke"):
        if base[key] != other[key]:
            print(f"note: {key} differs: {base[key]} vs {other[key]}")
    rows = compare_reports(base, other, spec)
    print(f"{'workload':<20} {'metric':<14} {'base':>12} {'other':>12} "
          f"{'other/base':>10} {'worse by':>9} {'bound':>6} {'spread':>7}  "
          f"verdict")
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        worse = "" if row["worse_by"] is None else f"{row['worse_by']:+.1%}"
        wide = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        print(f"{row['workload']:<20} {row['metric']:<14} "
              f"{row['base']:>12.6g} {row['other']:>12.6g} {ratio:>10} "
              f"{worse:>9} {row['bound']:>6.0%} {wide:>7}  "
              f"{row['verdict']} [{row['unit']}]")
    bad = [r for r in rows if r["verdict"] != "within bound"]
    print(f"\n{len(rows)} pairings, {len(bad)} not within bound")
    return 1 if bad else 0
