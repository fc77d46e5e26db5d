"""CI gate: docs/PROTOCOL.md's "Error model" table is the error table.

``repro.errors.ERROR_TABLE`` lists one class per status a front answers
a failure with; each class carries its ``status``. The doc's table must
have exactly one row per class — same status, same class name, in the
same order — so a status added, dropped or renumbered in code without
the doc (or the reverse) fails here.
"""

import re
from pathlib import Path

from repro.errors import ERROR_TABLE

PROTOCOL = Path(__file__).resolve().parents[2] / "docs" / "PROTOCOL.md"

#: ``| 404 | meaning | fronts | `UnknownIndexError` |``
_ROW = re.compile(r"^\| (\d{3}) \|.*\| `(\w+)` \|$", re.M)


def _documented():
    text = PROTOCOL.read_text(encoding="utf-8")
    section = text.split("## Error model", 1)[1].split("\n## ", 1)[0]
    return [(int(status), name) for status, name in _ROW.findall(section)]


def test_error_model_table_is_the_error_table():
    in_code = [(cls.status, cls.__name__) for cls in ERROR_TABLE]
    assert _documented() == in_code, (
        "docs/PROTOCOL.md 'Error model' disagrees with "
        "repro.errors.ERROR_TABLE")
