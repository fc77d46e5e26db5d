"""CI gate: ``src/repro/serve/`` stays inside a line budget.

``CEILING`` is ``wc -l src/repro/serve/*.py`` as the last change to it
left the package. A PR that needs more lines raises ``CEILING`` here and
says why in CHANGES.md; a PR that lowers the count lowers ``CEILING`` to
the new count, so the budget never loosens by accident.
"""

from pathlib import Path

SERVE = Path(__file__).resolve().parents[2] / "src" / "repro" / "serve"

#: ``wc -l src/repro/serve/*.py`` at the last change to this number.
CEILING = 5876


def test_serve_stays_inside_its_line_budget():
    # wc -l counts newline characters
    lines = sum(path.read_bytes().count(b"\n")
                for path in SERVE.glob("*.py"))
    assert lines <= CEILING, (
        f"src/repro/serve/*.py is {lines} lines, over its budget of "
        f"{CEILING}: cut lines, or raise CEILING in {Path(__file__).name} "
        f"and say why in CHANGES.md")
