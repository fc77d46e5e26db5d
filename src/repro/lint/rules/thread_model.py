"""RL002 — ``serve/`` imports neither ``asyncio`` nor ``concurrent.futures``.

Origin: the serving layer ran two concurrency models side by side (an
asyncio binary front with a scatter pool beside the threaded HTTP
front) until both fronts became one thread per connection. The bugs
lived in the seam between them: replies that came back out of order on
a sharded worker, and frames a drain dropped because the event loop and
the pool each held part of a request. The invariant: under
``src/repro/serve/`` concurrency is threads (``threading``,
``socketserver``), so an import of ``asyncio`` or
``concurrent.futures`` — however it is spelled — is flagged wherever
it appears, function bodies included.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..findings import Finding
from .base import FileContext, Rule
from .error_taxonomy import SCOPE_PREFIX

#: Module prefixes whose import means a second concurrency model.
_FORBIDDEN = ("asyncio", "concurrent.futures")


def _forbidden(module: str) -> Optional[str]:
    for prefix in _FORBIDDEN:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


class ThreadModelRule(Rule):
    id = "RL002"
    name = "thread-model"
    description = (
        "Under src/repro/serve/ concurrency is threads: no import of "
        "asyncio or concurrent.futures (event loops, executor pools).")
    version = 2

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.relpath.startswith(SCOPE_PREFIX):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                base = node.module or ""
                # `from concurrent import futures` names the module too
                modules = [base] + [f"{base}.{alias.name}"
                                    for alias in node.names]
            else:
                continue
            hit = next(filter(None, map(_forbidden, modules)), None)
            if hit is not None:
                yield self.finding(
                    ctx, node,
                    f"`{hit}` imported under serve/: the serving layer's "
                    f"concurrency model is threads (one per connection)")
