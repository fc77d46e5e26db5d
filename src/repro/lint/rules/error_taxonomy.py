"""RL005 — raises in the serving layer use the ``repro.errors`` taxonomy.

Origin bug: PR 8's resilience audit — a bare ``ValueError`` escaping
``_parse_budget`` surfaced to clients as an opaque 500 with no
machine-readable ``code``, and the binary front closed the connection
instead of answering a typed error frame. The invariant: code under
``src/repro/serve/`` never raises builtin exception types directly;
it raises ``repro.errors`` classes (or local subclasses of them), each
of which carries its wire ``status`` (``repro.errors.ERROR_TABLE``).

Bare ``raise`` (re-raise) and ``raise exc_var`` are fine — the rule
only matches raising a *builtin* exception class by name. Intentional
builtin raises (the chaos injector throwing ``OSError`` on purpose)
use the inline pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..findings import Finding
from .base import FileContext, Rule, dotted_name

#: Directory the taxonomy applies to (repo-relative prefix).
SCOPE_PREFIX = "src/repro/serve/"

#: Builtin exception classes that must not be raised in serve/.
#: (NotImplementedError / AssertionError stay allowed: they signal
#: programmer error, not a client-visible failure.)
_FORBIDDEN_BUILTINS = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError",
    "KeyError", "IndexError", "AttributeError", "RuntimeError",
    "LookupError", "ArithmeticError", "ZeroDivisionError",
    "OSError", "IOError", "EnvironmentError", "ConnectionError",
    "ConnectionResetError", "ConnectionAbortedError",
    "BrokenPipeError", "TimeoutError", "InterruptedError",
    "StopIteration", "EOFError", "BufferError", "MemoryError",
    "OverflowError", "UnicodeDecodeError", "UnicodeEncodeError",
})


class ErrorTaxonomyRule(Rule):
    id = "RL005"
    name = "error-taxonomy"
    description = (
        "Raises under src/repro/serve/ must use repro.errors classes "
        "(or local subclasses); builtin Exception/ValueError/OSError "
        "raises surface as opaque 500s.")
    version = 1

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.relpath.startswith(SCOPE_PREFIX):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._raised_class(node.exc)
            if name is None or name not in _FORBIDDEN_BUILTINS:
                continue
            yield self.finding(
                ctx, node,
                f"raises builtin `{name}` in the serving layer; raise "
                f"a repro.errors class (or a local subclass) so the "
                f"failure carries a stable wire code")

    @staticmethod
    def _raised_class(exc: ast.AST) -> Optional[str]:
        """Class name raised, for ``raise Cls(...)`` / ``raise Cls``."""
        if isinstance(exc, ast.Call):
            exc = exc.func
        dn = dotted_name(exc)
        if dn is None:
            return None
        return dn.split(".")[-1]
