"""Golden-fixture tests: every rule, one violating + one clean fixture.

Each violating fixture pins the exact finding locations; each clean
fixture proves the rule's documented escapes (lock blocks, `_locked`
naming, executor delegation, raise/except-site formatting, cross-file
registration, taxonomy subclasses, the `__main__` guard) stay silent.
The pragma tests prove every rule is *live*: the gate fails on the
pristine fixture and passes once each finding line carries its
``# repro-lint: ignore[rule-id]`` pragma.
"""

from pathlib import Path

import pytest

from repro.lint.engine import run

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (violating fixture relpath, {line: severity}).
VIOLATIONS = {
    "RL001": ("rl001_violation.py",
              {12: "error", 15: "error", 20: "error"}),
    "RL002": ("src/repro/serve/rl002_violation.py",
              {2: "error", 3: "error", 4: "error", 5: "error",
               9: "error", 10: "error"}),
    "RL003": ("rl003_violation.py",
              {10: "error", 11: "error", 12: "error", 14: "error",
               16: "warning", 30: "error", 36: "error", 42: "error",
               49: "error", 51: "error", 57: "error", 63: "error"}),
    "RL004": ("rl004_violation.py", {5: "error", 6: "error"}),
    "RL005": ("src/repro/serve/rl005_violation.py",
              {8: "error", 10: "error", 16: "error"}),
    "RL006": ("rl006_violation.py",
              {6: "error", 7: "error", 12: "error"}),
}

CLEAN = {
    "RL001": "rl001_clean.py",
    "RL002": "src/repro/serve/rl002_clean.py",
    "RL003": "rl003_clean.py",
    "RL004": "rl004_clean.py",
    "RL005": "src/repro/serve/rl005_clean.py",
    "RL006": "rl006_clean.py",
}


def lint(relpaths, root=FIXTURES):
    return run([root / rel for rel in relpaths], root=root)


@pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
def test_violating_fixture_exact_locations(rule_id):
    relpath, expected = VIOLATIONS[rule_id]
    result = lint([relpath])
    found = {f.line: f.severity for f in result.findings
             if f.rule == rule_id}
    assert found == expected
    off_rule = [f for f in result.findings if f.rule != rule_id]
    assert off_rule == [], off_rule
    for finding in result.findings:
        assert finding.path == relpath


@pytest.mark.parametrize("rule_id", sorted(CLEAN))
def test_clean_fixture_is_silent(rule_id):
    result = lint([CLEAN[rule_id]])
    assert result.findings == []


def test_rl006_flags_a_manager_anywhere_under_serve():
    # regression: the fleet's Manager broker was deleted for files in
    # the artifact directory; in serve/ scope even a deferred one fails
    result = lint(["src/repro/serve/rl006_violation.py"])
    assert {f.line: f.rule for f in result.findings} == {
        8: "RL006", 10: "RL006", 15: "RL006", 18: "RL006"}
    assert result.gate_failures(strict=True)


def test_rl002_is_scoped_to_serve():
    # the thread model is serve/'s; elsewhere asyncio is not flagged
    result = lint(["rl002_outside_serve.py"])
    assert result.findings == []


def test_rl004_registration_in_another_file_satisfies_use():
    # same lazy uses as the violation test, plus a registrar module:
    # the cross-file pass must see the pair as clean
    result = lint(["rl004_violation.py", "rl004_registrar.py"])
    assert result.findings == []


@pytest.mark.parametrize("rule_id", sorted(VIOLATIONS))
def test_rule_is_live_and_pragma_suppresses(rule_id, tmp_path):
    relpath, expected = VIOLATIONS[rule_id]
    source = (FIXTURES / relpath).read_text()

    # pristine fixture: the gate fails (the rule is live)
    pristine = tmp_path / "pristine" / relpath
    pristine.parent.mkdir(parents=True)
    pristine.write_text(source)
    result = run([pristine], root=tmp_path / "pristine")
    assert result.gate_failures(strict=True), rule_id

    # same content with a pragma on every finding line: gate passes
    lines = source.splitlines()
    for line_no in expected:
        lines[line_no - 1] += f"  # repro-lint: ignore[{rule_id}]"
    suppressed = tmp_path / "suppressed" / relpath
    suppressed.parent.mkdir(parents=True)
    suppressed.write_text("\n".join(lines) + "\n")
    result = run([suppressed], root=tmp_path / "suppressed")
    assert result.findings == []


def test_pragma_only_suppresses_the_named_rule(tmp_path):
    relpath, expected = VIOLATIONS["RL006"]
    source = (FIXTURES / relpath).read_text()
    lines = source.splitlines()
    for line_no in expected:
        lines[line_no - 1] += "  # repro-lint: ignore[RL001]"
    target = tmp_path / relpath
    target.write_text("\n".join(lines) + "\n")
    result = run([target], root=tmp_path)
    assert {f.rule for f in result.findings} == {"RL006"}
