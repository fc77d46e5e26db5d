"""Regression tests for the violations the lint rules surfaced (PR 9).

Each test pins the *behavioral* fix, independent of the lint gate that
now guards its shape: telemetry families exist pre-traffic (RL004),
malformed budgets raise taxonomy errors (RL005), and the lifecycle's
convergence flags stay coherent under the apply lock (RL001). The last
two pin the gate itself: the per-result loop the result codec shed
does not come back unnoticed, nor does formatting or ``json`` in the
per-cell entry decode (RL003).
"""

import ast
import inspect
import textwrap

import pytest

import _legacy_results
from repro.act.core import ACTCore
from repro.errors import InvalidRequestError
from repro.lint.engine import run
from repro.serve import ACTService, create_server
from repro.serve.lifecycle import FleetLifecycle
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import ACTRequestHandler


class TestFamiliesExistPreTraffic:
    """RL004: a scrape taken before the first request shows every
    family at zero instead of families appearing mid-incident."""

    def test_service_registers_cold_path_families(self):
        svc = ACTService()
        snap = svc.metrics.snapshot()
        for name in ("queries.total", "queries.invalid",
                     "queries.batched_misses", "joins.total",
                     "joins.points", "admin.reloads", "admin.registers",
                     "admin.unregisters", "faults.chaos_injections"):
            assert snap["counters"].get(name) == 0, name
        for name in ("queries.latency_seconds", "joins.latency_seconds"):
            assert name in snap["histograms"], name
        svc.close()

    def test_http_server_registers_families_at_bind(self):
        svc = ACTService()
        server = create_server(svc, port=0)
        try:
            snap = svc.metrics.snapshot()
            assert snap["counters"].get("http.requests") == 0
            assert snap["counters"].get("admin.requests") == 0
        finally:
            server.server_close()
            svc.close()

    def test_lifecycle_registers_fault_families(self, tmp_path):
        svc = ACTService()
        FleetLifecycle(tmp_path, 1, service=svc, slot=0)
        snap = svc.metrics.snapshot()
        for name in ("faults.artifact_corrupt", "faults.quarantined",
                     "faults.reload_rollbacks", "faults.apply_failures"):
            assert snap["counters"].get(name) == 0, name
        svc.close()

    def test_register_is_idempotent_and_keeps_values(self):
        metrics = MetricsRegistry()
        metrics.counter("x.total").inc(3)
        metrics.register(counters=("x.total",), histograms=("x.lat",))
        assert metrics.counter("x.total").value == 3
        assert "x.lat" in metrics.snapshot()["histograms"]


class TestBudgetParseTaxonomy:
    """RL005: malformed budgets raise the typed 400-mapped error, not a
    bare ValueError that would surface as an opaque 500."""

    def test_malformed_budget_raises_invalid_request(self):
        with pytest.raises(InvalidRequestError):
            ACTRequestHandler._parse_budget(None, "fifty")

    def test_none_budget_passes_through(self):
        assert ACTRequestHandler._parse_budget(None, None) is None

    def test_valid_budget_parses(self):
        budget = ACTRequestHandler._parse_budget(None, "25")
        assert budget is not None


class TestLifecycleConvergenceUnderLock:
    """RL001: convergence flags are written under the apply lock; a
    status() reader never sees a torn converged/last_error pair after
    an operation — a corrupt source refused, a rollback, a timeout."""

    def test_abort_corrupt_is_locked_convention(self):
        # every write of the pair, the corrupt-source refusal's
        # included, sits lexically inside `with self._apply_lock:`
        from repro.lint.rules.base import with_lock_lines

        tree = ast.parse(textwrap.dedent(inspect.getsource(FleetLifecycle)))
        writes = []
        for method in ast.walk(tree):
            if not isinstance(method, ast.FunctionDef):
                continue
            under_lock = with_lock_lines(method)
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        for attr in ast.walk(target):
                            if (isinstance(attr, ast.Attribute)
                                    and attr.attr in ("converged",
                                                      "last_error")
                                    and method.name != "__init__"):
                                writes.append((method.name, attr.attr,
                                               node.lineno in under_lock))
        assert {(name, attr) for name, attr, _ in writes} == {
            ("_refuse", "last_error"), ("publish", "converged"),
            ("publish", "last_error")}
        assert all(locked for _, _, locked in writes), writes

    def test_status_reflects_submit_outcome(self, nyc_index, tmp_path):
        from repro.serve.statedir import replace_current, write_generation

        svc = ACTService()
        # a worker fleet of one: the coordinator's own slot is the
        # whole wait, so submit converges without a fork
        replace_current(tmp_path, {"nyc": write_generation(
            tmp_path, "nyc", index=nyc_index)})
        lc = FleetLifecycle(tmp_path, 1, service=svc, slot=0,
                            snapshots={}, timeout_s=5.0)
        lc.poll()
        response = lc.submit({"op": "reload", "name": "nyc"})
        assert response["complete"] is True
        assert response["generation"] == 2
        status = lc.status()
        assert status["converged"] is True
        assert status["last_error"] is None
        svc.close()


class TestResultLoopsStayOut:
    """RL003: results leave ``query_batch`` as columns; a loop over
    them one result at a time, put back into the codec, is flagged."""

    def test_old_encode_results_loop_is_flagged(self, tmp_path):
        source = inspect.getsource(_legacy_results.encode_results)
        target = tmp_path / "binproto.py"
        target.write_text(source)
        findings = run([target], root=tmp_path).findings
        assert [(f.rule, f.line) for f in findings] == [
            ("RL003", source.splitlines().index(
                "    for i, result in enumerate(results):") + 1)]
        assert "`results`" in findings[0].message
        assert "`encode_results`" in findings[0].message


class TestDecodeEntryStaysLean:
    """RL003: ``decode_entry`` runs once per missed cell of every
    request; formatting or ``json`` put into it is flagged."""

    def _findings(self, tmp_path, source):
        target = tmp_path / "core.py"
        target.write_text(source)
        return run([target], root=tmp_path).findings

    def test_shipped_decode_entry_is_clean(self, tmp_path):
        source = textwrap.dedent(inspect.getsource(ACTCore.decode_entry))
        assert self._findings(tmp_path, source) == []

    @pytest.mark.parametrize("stray, named", [
        ('label = f"entry {entry:#x}"', "f-string"),
        ("label = json.dumps(entry)", "`json.dumps`"),
    ])
    def test_stray_formatting_is_flagged(self, tmp_path, stray, named):
        source = textwrap.dedent(f"""\
            def decode_entry(self, entry):  # repro-lint: hot
                {stray}
                return self._decoded.get(entry)
            """)
        findings = self._findings(tmp_path, source)
        assert [(f.rule, f.line) for f in findings] == [("RL003", 2)]
        assert named in findings[0].message
        assert "`decode_entry`" in findings[0].message
