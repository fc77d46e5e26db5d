#!/usr/bin/env python3
"""The repo's one benchmark. See README.md next to this file.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of stdout is the result as JSON
        (end-to-end metrics untraced, per-layer metrics traced)
    python3 benchmarks/e2e/run.py --seed N [--out F] [--repeat R] [--smoke]
        every workload, untraced and traced, each in a fresh process;
        prints every metric by name with its unit
    python3 benchmarks/e2e/run.py compare A.json B.json
        applies the bounds of BENCHMARK.json to two such files
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives every input generator")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with the per-layer ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny index and sequences: proves every "
                             "workload runs, measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: untraced runs per "
                             "workload; their spread is recorded")
    parser.add_argument("--out", default=None,
                        help="all-workloads mode: write the report here")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC_DIR / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    from actbench import report

    if argv and argv[0] == "compare":
        return report.compare_main(argv[1:])
    args = _parser().parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    if args.workload is not None:
        return report.run_one(args, spec)
    return report.run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
