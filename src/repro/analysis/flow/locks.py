"""LCK7xx yield/lock discipline checks.

* **LCK701** (error) — a function calls ``break_all()`` (dropping the
  BKL to its depth) but no matching ``reacquire`` is found in the same
  function or its direct callees; or the reacquire exists but is not
  protected by a ``finally`` block, so an exception between the two
  leaks the lock released (the §3.5 send-unlocked patch idiom is
  ``depth = bkl.break_all(); try: ... finally: yield from
  bkl.reacquire(depth, ...)``).
* **LCK702** (error) — a blocking or forbidden call (real
  ``time.sleep``, ``subprocess``, ``input``, file ``open`` …) is
  reachable from an event handler: any generator coroutine in the
  simulated stack, or any function passed as a callback to simulator
  scheduling. Simulated time must never wait on host time.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from .callgraph import UNKNOWN, CallGraph
from .effects import _is_schedule_edge
from .syntactic import FlowIssue, _dotted

__all__ = ["check_locks"]

#: Blocking / forbidden calls inside event handlers (LCK702), matched
#: against the dotted syntactic callee (plus a bare ``open``).
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "socket.socket",
        "input",
        "open",
    }
)


def _finally_lines(fn_node: ast.AST) -> Set[int]:
    """Line numbers covered by any ``finally`` suite."""
    lines: Set[int] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    lineno = getattr(sub, "lineno", None)
                    if lineno is not None:
                        lines.add(lineno)
    return lines


def _check_break_reacquire(graph: CallGraph) -> List[FlowIssue]:
    issues: List[FlowIssue] = []
    for qualname, fn in graph.index.functions.items():
        edges = graph.edges(qualname)
        breaks = [e for e in edges if e.callee_name == "break_all"]
        if not breaks:
            continue
        reacquires = [e for e in edges if e.callee_name == "reacquire"]
        if not reacquires:
            # Direct callees may hold the reacquire (helper wrappers).
            callee_has = False
            for edge in edges:
                for target in edge.targets:
                    for sub in graph.edges(target):
                        if sub.callee_name == "reacquire":
                            callee_has = True
            if not callee_has:
                for b in breaks:
                    issues.append(
                        FlowIssue(
                            "LCK701",
                            fn.path,
                            b.line,
                            f"`break_all()` in {qualname} has no matching "
                            f"`reacquire` on any path; BKL depth is lost",
                            qualname,
                            "missing-reacquire",
                        )
                    )
            continue
        fin = _finally_lines(fn.node)
        if fin and all(r.line not in fin for r in reacquires):
            issues.append(
                FlowIssue(
                    "LCK701",
                    fn.path,
                    breaks[0].line,
                    f"`reacquire` in {qualname} is outside any `finally`;"
                    f" an exception after `break_all()` leaks the lock",
                    qualname,
                    "reacquire-not-in-finally",
                )
            )
        elif not fin:
            issues.append(
                FlowIssue(
                    "LCK701",
                    fn.path,
                    breaks[0].line,
                    f"`break_all()`/`reacquire` pair in {qualname} is not"
                    f" protected by try/finally",
                    qualname,
                    "no-try-finally",
                )
            )
    return issues


def _handler_roots(graph: CallGraph) -> Set[str]:
    """Event-handler roots: generator coroutines + scheduled callbacks."""
    roots: Set[str] = {
        q for q, fn in graph.index.functions.items() if fn.is_generator
    }
    for qualname in graph.index.functions:
        for edge in graph.edges(qualname):
            if not _is_schedule_edge(edge):
                continue
            for ref in edge.arg_refs:
                if ref is not None and ref.kind == UNKNOWN and ref.name in graph.index.functions:
                    roots.add(ref.name)
    return roots


def _check_blocking(graph: CallGraph) -> Tuple[List[FlowIssue], Dict[str, int]]:
    roots = _handler_roots(graph)
    reachable = graph.reachable(sorted(roots))
    issues: List[FlowIssue] = []
    for qualname in sorted(reachable):
        fn = graph.index.functions[qualname]
        for edge in graph.edges(qualname):
            dotted = _dotted(edge.node.func)
            if dotted not in BLOCKING_CALLS:
                continue
            issues.append(
                FlowIssue(
                    "LCK702",
                    fn.path,
                    edge.line,
                    f"blocking call `{dotted}(...)` reachable from event "
                    f"handlers (in {qualname}); simulated time must not "
                    f"wait on the host",
                    qualname,
                    f"block:{dotted}",
                )
            )
    stats = {"handler_roots": len(roots), "handler_reachable": len(reachable)}
    return issues, stats


def check_locks(graph: CallGraph) -> Tuple[List[FlowIssue], Dict[str, int]]:
    issues = _check_break_reacquire(graph)
    blocking, stats = _check_blocking(graph)
    issues.extend(blocking)
    return issues, stats
