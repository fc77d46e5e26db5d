"""RL003 — hot-path hygiene.

Origin: the paper's headline number is per-lookup latency measured in
hundreds of nanoseconds; PR 5's perf work showed a single stray
f-string or ``json.dumps`` in ``query_batch`` is visible on the
histogram. A function on the measured path — a query entry point, a
refinement kernel, the binary frame handler, the index enumeration and
the shard planner, slicer and cutter built on it, the result codec and
gather, the point -> cell -> entry kernels, the join and its stream
fold, the array build — carries ``# repro-lint: hot`` on its ``def``
line, so the set of hot functions cannot drift from the code. A hot
function must not:

* call ``logging``/``logger`` methods,
* call ``json.*``,
* build f-strings or call ``.format(...)`` eagerly — *except* inside a
  ``raise`` statement or an ``except`` handler body, where the
  formatting only ever runs on the cold error path,
* loop element-wise over an array parameter (``for x in lngs`` /
  ``range(len(lngs))`` / ``enumerate`` / ``zip`` of parameters), or
  cell by cell over ``<core>.iter_cells()`` — the vectorised path
  (``cell_arrays``) exists, use it,
* call ``np.unique(..., axis=...)`` — the row-wise form sorts whole
  rows (~500 ns/row measured, 6x the refinement it once tried to
  save); pack the row into one integer key or do not deduplicate,
* call ``time.time()`` — flagged as a *warning* in favour of
  ``time.perf_counter()``.

Nested ``def``s/lambdas inside a hot function are skipped: they run on
somebody else's schedule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional, Set

from ..findings import SEVERITY_WARNING, Finding
from .base import (FileContext, Rule, body_nodes, dotted_name,
                   iter_functions, param_names)

#: The mark of a hot function, on its ``def`` line.
_HOT_PRAGMA = re.compile(r"#\s*repro-lint:\s*hot\b")

_LOGGING_ROOTS = frozenset({"logging", "logger", "log"})


class HotPathRule(Rule):
    id = "RL003"
    name = "hot-path-hygiene"
    description = (
        "Hot-path functions (a '# repro-lint: hot' pragma on the def "
        "line) must not log, touch json, format strings eagerly "
        "(raise sites exempt), loop element-wise over array "
        "parameters or over iter_cells(), or call row-wise "
        "np.unique(axis=...); time.time() is a warning "
        "(perf_counter preferred).")
    version = 9

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        lines = ctx.source.splitlines()
        for func, _cls in iter_functions(ctx.tree):
            if _HOT_PRAGMA.search(lines[func.lineno - 1]):
                yield from self._check_hot(ctx, func)

    def _check_hot(self, ctx: FileContext,
                   func: ast.AST) -> Iterable[Finding]:
        name = getattr(func, "name", "?")
        params = param_names(func)
        # Formatting under `raise` or inside an `except` body only
        # evaluates on the error path. Format specs (`:02x`) parse as
        # *nested* JoinedStr nodes — exempt those too so one f-string
        # is one finding.
        raise_exempt: Set[int] = set()
        for node in body_nodes(func):
            if isinstance(node, ast.Raise):
                for sub in ast.walk(node):
                    raise_exempt.add(id(sub))
            elif isinstance(node, ast.ExceptHandler):
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        raise_exempt.add(id(sub))
            elif isinstance(node, ast.JoinedStr):
                for sub in ast.walk(node):
                    if sub is not node:
                        raise_exempt.add(id(sub))

        for node in body_nodes(func):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, func, name, node,
                                            raise_exempt)
            elif (isinstance(node, ast.JoinedStr)
                    and id(node) not in raise_exempt):
                yield self.finding(
                    ctx, node,
                    f"f-string built eagerly in hot function `{name}`; "
                    f"hoist it off the hot path (raise sites are "
                    f"exempt)")
            elif isinstance(node, ast.For):
                param = self._loops_over_param(node, params)
                if param is not None:
                    yield self.finding(
                        ctx, node,
                        f"element-wise loop over array parameter "
                        f"`{param}` in hot function `{name}`; use the "
                        f"vectorised path")
                elif (isinstance(node.iter, ast.Call)
                        and isinstance(node.iter.func, ast.Attribute)
                        and node.iter.func.attr == "iter_cells"):
                    yield self.finding(
                        ctx, node,
                        f"per-cell loop over iter_cells() in hot "
                        f"function `{name}`; use cell_arrays()")

    def _check_call(self, ctx: FileContext, func: ast.AST, name: str,
                    call: ast.Call, raise_exempt: Set[int],
                    ) -> Iterable[Finding]:
        dn = dotted_name(call.func)
        if dn is not None:
            root = dn.split(".", 1)[0]
            if root in _LOGGING_ROOTS or ".logger." in f".{dn}.":
                yield self.finding(
                    ctx, call,
                    f"logging call `{dn}` in hot function `{name}`; "
                    f"log outside the measured path")
                return
            if root == "json":
                yield self.finding(
                    ctx, call,
                    f"json call `{dn}` in hot function `{name}`; "
                    f"serialise outside the measured path")
                return
            if (dn in ("np.unique", "numpy.unique")
                    and any(kw.arg == "axis" for kw in call.keywords)):
                yield self.finding(
                    ctx, call,
                    f"row-wise `{dn}(axis=...)` in hot function "
                    f"`{name}`; it sorts whole rows — pack each row "
                    f"into one integer key, or do not deduplicate")
                return
            if dn == "time.time":
                yield self.finding(
                    ctx, call,
                    f"time.time() in hot function `{name}`; prefer "
                    f"time.perf_counter() for interval timing",
                    severity=SEVERITY_WARNING)
                return
        if (isinstance(call.func, ast.Attribute)
                and call.func.attr == "format"
                and id(call) not in raise_exempt):
            yield self.finding(
                ctx, call,
                f"str.format() in hot function `{name}`; hoist it off "
                f"the hot path (raise sites are exempt)")

    @staticmethod
    def _loops_over_param(loop: ast.For,
                          params: Set[str]) -> Optional[str]:
        """Parameter name iterated element-wise, if any."""
        it = loop.iter
        # for x in param:
        if isinstance(it, ast.Name) and it.id in params:
            return it.id
        if isinstance(it, ast.Call):
            dn = dotted_name(it.func)
            # for i in range(len(param)): / enumerate(param) /
            # zip(param, other)
            if dn in ("enumerate", "zip"):
                for arg in it.args:
                    if isinstance(arg, ast.Name) and arg.id in params:
                        return arg.id
            if dn == "range":
                for sub in ast.walk(it):
                    if (isinstance(sub, ast.Call)
                            and dotted_name(sub.func) == "len"
                            and sub.args
                            and isinstance(sub.args[0], ast.Name)
                            and sub.args[0].id in params):
                        return sub.args[0].id
        return None
