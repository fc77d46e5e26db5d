"""Self-tests of the benchmark: ``pytest benchmarks/e2e/tests``.

Not part of the tier-1 ``testpaths``; they test the measuring
instrument, not the program.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent

for path in (REPO_ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
