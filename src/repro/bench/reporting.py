"""Plain-text renderers for paper-style tables and series.

The benchmark harness prints the same rows/columns the paper reports
(Table I metrics, Figure 3 throughput bars, Figure 4 scaling series) so a
run's output can be placed side by side with the paper's numbers.

:func:`write_bench_json` additionally persists machine-readable
``BENCH_<name>.json`` snapshots so the perf trajectory is trackable
across PRs (CI uploads them as workflow artifacts).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .. import config


#: Accumulated rows per report table, rendered at pytest session end.
_REPORTS: "Dict[str, Dict]" = {}


def record_row(table: str, columns: Sequence[str], row: Sequence) -> None:
    """Add one row to a named report table (idempotent per identical row)."""
    entry = _REPORTS.setdefault(table, {"columns": list(columns), "rows": []})
    if list(row) not in entry["rows"]:
        entry["rows"].append(list(row))


def record_text(table: str, text: str) -> None:
    """Attach a free-form note under a report table."""
    entry = _REPORTS.setdefault(table, {"columns": None, "rows": []})
    entry.setdefault("notes", []).append(text)


def drain_reports() -> List[str]:
    """Render and clear every accumulated report."""
    out = []
    for title, entry in _REPORTS.items():
        if entry.get("columns"):
            out.append(render_table(title, entry["columns"], entry["rows"]))
        for note in entry.get("notes", []):
            out.append(note)
    _REPORTS.clear()
    return out


def write_bench_json(name: str, payload: Dict,
                     directory: Optional[Union[str, Path]] = None) -> Path:
    """Persist one benchmark's results as ``BENCH_<name>.json``.

    ``directory`` defaults to ``$REPRO_BENCH_DIR`` or the working
    directory (CI runs from the repo root and uploads ``BENCH_*.json``
    as artifacts). The payload is wrapped with the benchmark name and
    the ``REPRO_SCALE`` it ran at, so trajectories across PRs compare
    like with like.
    """
    base = Path(directory or os.environ.get("REPRO_BENCH_DIR", "."))
    path = base / f"BENCH_{name}.json"
    document = {"bench": name, "scale": config.bench_scale()}
    document.update(payload)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3g}"
    return str(value)


def render_table(title: str, columns: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    """Fixed-width table with a title rule."""
    str_rows = [[format_value(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "  "
    header = sep.join(c.rjust(w) for c, w in zip(columns, widths))
    rule = "-" * len(header)
    lines = [f"\n=== {title} ===", header, rule]
    lines.extend(
        sep.join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in str_rows
    )
    return "\n".join(lines)


def render_series(title: str, x_label: str, series: Dict[str, Dict],
                  x_values: Sequence) -> str:
    """Figure-style output: one column per x value, one row per series."""
    columns = [x_label] + [format_value(x) for x in x_values]
    rows = []
    for name, points in series.items():
        rows.append([name] + [points.get(x, float("nan")) for x in x_values])
    return render_table(title, columns, rows)


def render_comparison(title: str, baseline_name: str, baseline: float,
                      results: Dict[str, float]) -> str:
    """Throughputs plus the speedup factors the paper quotes."""
    rows: List[List] = [[baseline_name, baseline, 1.0]]
    for name, value in results.items():
        factor = value / baseline if baseline else float("inf")
        rows.append([name, value, factor])
    return render_table(title, ["variant", "M points/s", "vs baseline"],
                        rows)
