"""RL003 — hot-path hygiene.

Origin: the paper's headline number is per-lookup latency measured in
hundreds of nanoseconds; PR 5's perf work showed a single stray
f-string or ``json.dumps`` in ``query_batch`` is visible on the
histogram. The configured hot functions (the query entry points, the
refinement kernels, the binary front's frame handler; since a per-cell Python
loop made a sharded cold start 16 s, the index enumeration and the
shard planner/slicer/cutter built on it (the planner's per-cut walk,
``first_key``, visits O(depth) pool rows and loops over at most two
candidate slots in each; it is a nested ``def``, so it is outside the
listed array kernels, and must stay that small); and since per-result
loops were a
third of a cold exact request, the result codec, batch refinement and
the router's gather; and since two sorts were more than half of the
headline joins, the point -> cell -> entry kernels and the join
executor's steps — since every join became one ``join`` folded over a
stream with ``merged``, those too; and since a per-cell ``insert`` into
an object trie was the build's whole back half, the super-covering
merge, the reference encoder and the node-pool layout that replaced it;
and since decoding a missed cell's entry cost 2.3 µs — a third of a
cold request — before it became one dict read per distinct entry,
``decode_entry``, which every missed cell of every request now calls)
must not:

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
from typing import Iterable, Optional, Set

from ..findings import SEVERITY_WARNING, Finding
from .base import (FileContext, Rule, body_nodes, dotted_name,
                   iter_functions, param_names)

#: Functions on the measured path. ``_handle`` is the binary front's
#: frame handler in serve/aserver.py (its connection thread runs it once
#: per frame); the third row is what every fleet start, rebalance and re-slice runs
#: over millions of cells (act/core.py, serve/shard.py); the last is
#: what a batch's results pass through after ``query_batch`` — the
#: result codec and exact refinement (the router's gather is the body
#: of its ``query_batch``) — which move ``ResultBatch`` columns, not
#: one result at a time; the last two rows are the in-process join, top
#: to bottom: point -> cell (grid/), cell -> entry and entry -> counts
#: or pairs (act/core.py), and the executor steps that chain them —
#: ``join`` itself, ``join_stream`` and the ``merged`` that folds it
#: (the name also matches ``ACTService.join`` and the baseline
#: ``FilterRefineJoin.join``: the first is held to the same rules, the
#: second probes its scalar filter over ``.tolist()`` columns, which the
#: rule does not flag); the very last is the build from the coverings
#: on (act/supercovering.py, act/lookup_table.py, act/core.py) —
#: columns in, columns out; only the conflict-run resolver it calls
#: works cell by cell. ``decode_entry`` (act/core.py) is the memo read
#: between ``lookup_entries`` and the cell cache's ``put``.
HOT_FUNCTIONS = frozenset({
    "query", "query_batch", "refine", "refine_pairs", "lookup_entries",
    "decode_entry",
    "_handle",
    "node_arrays", "cell_arrays", "node_entry_counts", "plan_shard_map",
    "_plan_one", "_slot_weights", "slice_index", "write_slices",
    "encode_results", "decode_results", "_refine_batch",
    "from_face_ij_batch", "leaf_cells_batch", "point_keys", "_descend",
    "hit_counts", "candidate_pairs", "entries", "count_points",
    "join", "join_stream", "merged",
    "merge_columns", "encode_refs", "from_cells",
})

_LOGGING_ROOTS = frozenset({"logging", "logger", "log"})


class HotPathRule(Rule):
    id = "RL003"
    name = "hot-path-hygiene"
    description = (
        "Hot-path functions (query/query_batch/refine/lookup_entries/"
        "decode_entry/binary frame handler/index enumeration/shard "
        "planner and "
        "slicer/result codec, refinement and gather/point-to-entry "
        "kernels, the join and its stream fold/the array build: merge, "
        "encode, layout) must not log, "
        "touch json, format strings eagerly "
        "(raise sites exempt), loop element-wise over array "
        "parameters or over iter_cells(), or call row-wise "
        "np.unique(axis=...); time.time() is a warning "
        "(perf_counter preferred).")
    version = 8

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for func, _cls in iter_functions(ctx.tree):
            if getattr(func, "name", None) in HOT_FUNCTIONS:
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
