"""CI gate: the OPERATIONS.md serve-configuration catalog matches the code.

Built like ``test_metrics_catalog.py``: the authoritative sets come
from the code — ``dataclasses.fields(ServeConfig)`` and the options of
the ``repro-act serve`` subparser — and are diffed against the rows of
the catalog's two tables, so a knob added or removed without a catalog
row (or a row outliving its knob) fails the PR.
"""

import argparse
import dataclasses
import re
from pathlib import Path

from repro.cli import build_parser
from repro.serve import ServeConfig

OPERATIONS = (Path(__file__).resolve().parents[2]
              / "docs" / "OPERATIONS.md")

_CELL = re.compile(r"`([^`]+)`")


def _catalog_rows():
    """Backticked cells of every table row in the catalog section."""
    text = OPERATIONS.read_text(encoding="utf-8")
    start = text.index("## Serve configuration")
    section = text[start:text.index("\n## ", start + 1)]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows.append([m.group(1) if (m := _CELL.fullmatch(c)) else c
                         for c in cells])
    return rows


def _serve_options():
    """``{flag: argparse action}`` of the ``serve`` subparser."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {flag: action
            for action in subparsers.choices["serve"]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def test_config_rows_match_serveconfig_fields():
    fields = {f.name: f for f in dataclasses.fields(ServeConfig)}
    rows = {row[0]: row for row in _catalog_rows()
            if not row[0].startswith("--")}
    assert set(rows) == set(fields)
    options = _serve_options()
    for name, (_, flag, default, _meaning) in rows.items():
        assert default == str(fields[name].default), name
        if flag != "—":
            # the flag exists and parses to the field's own default
            assert options[flag].default == fields[name].default, name


def test_every_serve_flag_has_exactly_one_row():
    rows = _catalog_rows()
    documented = sorted(
        [row[1] for row in rows if row[1].startswith("--")]
        + [row[0] for row in rows if row[0].startswith("--")])
    assert documented == sorted(_serve_options())
