"""Engine-level behavior: baseline lifecycle, CLI contract, output."""

import json
from pathlib import Path

from repro.lint.__main__ import main
from repro.lint.baseline import Baseline
from repro.lint.engine import rule_catalog_key, run
from repro.lint.rules import all_rules

FIXTURES = Path(__file__).parent / "fixtures"


class TestBaseline:
    def test_baselined_findings_do_not_fail_the_gate(self, tmp_path):
        result = run([FIXTURES / "rl001_violation.py"], root=FIXTURES)
        assert result.gate_failures()
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(result.findings).save(baseline_path)

        rerun = run([FIXTURES / "rl001_violation.py"], root=FIXTURES,
                    baseline=Baseline.load(baseline_path))
        assert rerun.gate_failures() == []
        assert all(f.baselined for f in rerun.findings)
        # still *reported*, just grandfathered
        assert len(rerun.findings) == len(result.findings)

    def test_fingerprint_survives_line_shifts(self, tmp_path):
        original = (FIXTURES / "rl006_violation.py").read_text()
        target = tmp_path / "mod.py"
        target.write_text(original)
        baseline = Baseline.from_findings(
            run([target], root=tmp_path).findings)

        # shift every finding by two lines: same (rule, path, message)
        target.write_text("# shifted\n# shifted again\n" + original)
        rerun = run([target], root=tmp_path, baseline=baseline)
        assert rerun.findings and all(f.baselined for f in rerun.findings)

    def test_new_findings_still_fail_a_baselined_run(self, tmp_path):
        result = run([FIXTURES / "rl001_violation.py"], root=FIXTURES)
        baseline = Baseline.from_findings(result.findings)
        both = run([FIXTURES / "rl001_violation.py",
                    FIXTURES / "rl006_violation.py"],
                   root=FIXTURES, baseline=baseline)
        failures = both.gate_failures()
        assert failures and {f.rule for f in failures} == {"RL006"}

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "nope.json")) == 0


class TestCLI:
    def test_exit_codes(self, tmp_path, capsys):
        assert main([str(FIXTURES / "rl001_clean.py"),
                     "--root", str(FIXTURES)]) == 0
        assert main([str(FIXTURES / "rl001_violation.py"),
                     "--root", str(FIXTURES)]) == 1
        assert main([]) == 2  # no paths
        capsys.readouterr()

    def test_warnings_only_fail_under_strict(self, tmp_path, capsys):
        # a fixture whose only finding is the time.time() warning
        source = ("def query(lngs):  # repro-lint: hot\n"
                  "    import time\n    return time.time()\n")
        target = tmp_path / "warn_only.py"
        target.write_text(source)
        args = [str(target), "--root", str(tmp_path)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1
        capsys.readouterr()

    def test_json_output_shape(self, capsys):
        code = main([str(FIXTURES / "rl004_violation.py"),
                     "--root", str(FIXTURES), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["files_checked"] == 1
        assert payload["summary"]["errors"] == 2
        assert payload["catalog_key"] == rule_catalog_key()
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "severity",
                                "message", "baselined"}

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        args = [str(FIXTURES / "rl006_violation.py"),
                "--root", str(FIXTURES),
                "--baseline", str(baseline_path)]
        assert main(args) == 1
        assert main(args + ["--write-baseline"]) == 0
        assert main(args) == 0  # grandfathered now
        capsys.readouterr()

    def test_list_rules_covers_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_parse_failure_fails_the_gate(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad), "--root", str(tmp_path)]) == 1
        assert "PARSE" in capsys.readouterr().out


def test_catalog_key_tracks_rule_versions():
    key = rule_catalog_key()
    for rule in all_rules():
        assert f"{rule.id}={rule.version}" in key
