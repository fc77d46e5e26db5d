"""RL006 — no thread/socket/Manager construction at module import time.

Origin: the fleet (PR 8) is pre-fork — workers are ``fork()``ed after
the parent imports the serving modules. A thread, socket, or
``multiprocessing.Manager`` constructed at import time is silently
duplicated (threads don't survive fork; sockets and Manager pipes get
shared fds), producing exactly the class of "works single-process,
corrupts under the fleet" bug the chaos harness exists to catch.
Pre-fork resources must flow through the ``prewarm`` seam so each
worker constructs its own after fork.

The rule scans module-level statements (including class bodies — class
attributes evaluate at import too), descending into ``if``/``try``/
``with`` blocks but not into function bodies, and exempts the
``if __name__ == "__main__":`` guard (that branch never runs on
import).

Under ``src/repro/serve/`` a ``Manager`` is flagged wherever it is
constructed, function bodies included: the fleet's shared state is
files in its artifact directory (:mod:`repro.serve.statedir`) since the
Manager broker — a fourth process, a pickle round trip on the stats and
admission path, and a ``Lock`` its holder's death never released — was
deleted, and it should not come back by habit.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional

from ..findings import Finding
from .base import FileContext, Rule, dotted_name
from .error_taxonomy import SCOPE_PREFIX

#: Fully dotted constructors that must not run at import time.
_FORBIDDEN_DOTTED = frozenset({
    "threading.Thread", "threading.Timer",
    "multiprocessing.Manager", "multiprocessing.Pool",
    "multiprocessing.Process",
    "socket.socket", "socket.create_connection",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "subprocess.Popen",
    "os.fork",
})

#: Bare names covering `from threading import Thread`-style imports.
_FORBIDDEN_BARE = frozenset({
    "Thread", "Timer", "Manager", "Pool", "Process",
    "ThreadPoolExecutor", "ProcessPoolExecutor", "Popen",
})


def _is_main_guard(node: ast.If) -> bool:
    test = node.test
    if not isinstance(test, ast.Compare):
        return False
    names = [dotted_name(test.left)]
    names.extend(dotted_name(c) for c in test.comparators)
    return "__name__" in [n for n in names if n]


def _module_level(tree: ast.AST) -> Iterator[ast.AST]:
    """Statements that execute on import (incl. class bodies)."""
    stack: List[ast.AST] = list(getattr(tree, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_main_guard(node):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ForkSafetyRule(Rule):
    id = "RL006"
    name = "fork-safety"
    description = (
        "No thread/socket/Manager/executor construction at module "
        "import time; pre-fork resources must flow through the "
        "prewarm seam (`if __name__` guards exempt). Under "
        "src/repro/serve/, no `Manager()` anywhere.")
    version = 2

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        flagged = set()
        for node in _module_level(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._forbidden_label(node)
            if label is None:
                continue
            flagged.add(id(node))
            yield self.finding(
                ctx, node,
                f"`{label}` constructed at module import time; a "
                f"pre-fork fleet duplicates it across workers — build "
                f"it post-fork via the prewarm seam")
        if not ctx.relpath.startswith(SCOPE_PREFIX):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in flagged:
                continue
            name = dotted_name(node.func) or ""
            if name.split(".")[-1] in ("Manager", "SyncManager"):
                yield self.finding(
                    ctx, node,
                    f"`{name}` constructed in the serving layer; fleet "
                    f"state is files in the artifact directory "
                    f"(repro.serve.statedir), not a broker process")

    @staticmethod
    def _forbidden_label(call: ast.Call) -> Optional[str]:
        dn = dotted_name(call.func)
        if dn is None:
            return None
        if dn in _FORBIDDEN_DOTTED or dn in _FORBIDDEN_BARE:
            return dn
        # `concurrent.futures` imported under an alias still ends with
        # the executor class name.
        tail = dn.split(".")[-1]
        if tail in _FORBIDDEN_BARE and "." in dn:
            return dn
        return None
