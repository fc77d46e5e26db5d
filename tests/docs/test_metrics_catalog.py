"""CI gate: the OPERATIONS.md metrics catalog matches the code.

The catalog's contract is exhaustiveness — an operator paging through
an incident must be able to trust that every family the serving stack
eagerly registers has a row, and that no row describes a metric that
no longer exists. So this test builds the authoritative name set the
same way production does (constructing each component and reading the
registry back) and diffs it against the names parsed out of the
catalog tables.

Gauges and per-index families are derived at scrape time rather than
registered up front, so the catalog (and this gate) covers counters
and histograms — the families the RL004 eager-registration rule
governs.
"""

import re
from pathlib import Path

from repro.serve import ACTService, IndexRegistry, Router
from repro.serve.lifecycle import FleetLifecycle
from repro.serve.server import ACTServer, listen
from repro.serve.shard import plan_shard_map

OPERATIONS = (Path(__file__).resolve().parents[2]
              / "docs" / "OPERATIONS.md")

_ROW = re.compile(r"^\|\s*`([a-z_.]+)`\s*\|")


def _catalog_names():
    """Backticked first-column names from the catalog's tables."""
    text = OPERATIONS.read_text(encoding="utf-8")
    start = text.index("## Metrics catalog")
    end = text.find("\n## ", start + 1)
    section = text[start:end if end != -1 else None]
    names = set()
    for line in section.splitlines():
        match = _ROW.match(line.strip())
        if match and match.group(1) != "name":
            names.add(match.group(1))
    return names


def _registered_names(nyc_index, artifact_dir):
    """Every counter/histogram family the serving stack registers
    eagerly, collected exactly the way production wires up: one
    service with a router, all fronts and the lifecycle attached."""
    registry = IndexRegistry()
    registry.register_index("nyc", nyc_index)
    router = Router(0)
    router.route_by(plan_shard_map({"nyc": nyc_index}, 1))
    service = ACTService(registry=registry, router=router)
    try:
        # never started: the constructor registers both protocols'
        ACTServer(service, [listen("127.0.0.1", 0)]).server_close()
        FleetLifecycle(artifact_dir, 1, service=service, slot=0)
        snapshot = service.metrics.snapshot()
        return (set(snapshot["counters"]) | set(snapshot["histograms"]))
    finally:
        service.close()


def test_catalog_matches_registered_names(nyc_index, tmp_path):
    documented = _catalog_names()
    registered = _registered_names(nyc_index, tmp_path)
    missing_rows = registered - documented
    stale_rows = documented - registered
    assert not missing_rows, (
        f"metrics registered but missing from the OPERATIONS.md "
        f"catalog: {sorted(missing_rows)}")
    assert not stale_rows, (
        f"OPERATIONS.md catalog rows with no registration site: "
        f"{sorted(stale_rows)}")


def test_catalog_is_nonempty():
    assert len(_catalog_names()) > 20
