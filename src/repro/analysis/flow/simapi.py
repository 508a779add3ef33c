"""SIM6xx simulator-API misuse checks.

* **SIM601** (error) — a scheduling call's delay argument constant-folds
  to a negative number (``sim.call_after(-1, ...)``); the simulator
  raises at runtime, the analysis catches it before any run.
* **SIM602** (warning) — a scheduling call on a receiver that may be
  ``None`` (a local assigned ``None`` and never given a simulator type,
  or a ``self`` attribute the index saw initialised to ``None``): an
  event scheduled on a dead simulator.
* **SIM603** (error) — a dropped coroutine: an expression statement
  calling a function all of whose resolved targets are generators. The
  generator object is created and discarded without ever being
  iterated, so the modelled work silently never happens (the classic
  missing ``yield from``).  A bare ``cpus.execute(...)`` on a CPU set
  (:data:`CPU_CLASSES`) is the same mistake with a missing ``yield``:
  it submits a slot whose continuation no task ever binds, and the run
  fails when the slot ends.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .callgraph import LOCAL, SELF, CallGraph
from .effects import _is_method_of, _is_schedule_edge
from .syntactic import FlowIssue

__all__ = ["check_simapi"]

#: Class names (last qualname component) treated as CPU sets: their
#: ``execute`` returns a slot the calling task must yield (SIM603).
CPU_CLASSES = frozenset({"CpuSet"})


def _const_fold(expr: ast.AST) -> Optional[float]:
    """Fold numeric constant expressions; None when not foldable."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
        return float(expr.value)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.USub, ast.UAdd)):
        inner = _const_fold(expr.operand)
        if inner is None:
            return None
        return -inner if isinstance(expr.op, ast.USub) else inner
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
    ):
        left, right = _const_fold(expr.left), _const_fold(expr.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(expr.op, ast.Add):
                return left + right
            if isinstance(expr.op, ast.Sub):
                return left - right
            if isinstance(expr.op, ast.Mult):
                return left * right
            return left / right
        except ZeroDivisionError:
            return None
    return None


def _delay_arg(call: ast.Call) -> Optional[ast.AST]:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in ("delay", "dt"):
            return kw.value
    return None


def check_simapi(graph: CallGraph) -> Tuple[List[FlowIssue], Dict[str, int]]:
    issues: List[FlowIssue] = []
    dropped = 0
    for qualname, fn in graph.index.functions.items():
        ctx = graph.context(qualname)
        expr_stmt_calls = {
            id(stmt.value)
            for stmt in ast.walk(fn.node)
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
        }
        for edge in graph.edges(qualname):
            if _is_schedule_edge(edge):
                if edge.callee_name == "call_after":
                    delay = _delay_arg(edge.node)
                    value = _const_fold(delay) if delay is not None else None
                    if value is not None and value < 0:
                        issues.append(
                            FlowIssue(
                                "SIM601",
                                fn.path,
                                edge.line,
                                f"`call_after` delay folds to {value:g} < 0 "
                                f"in {qualname}; the simulator will raise",
                                qualname,
                                f"delay:{value:g}",
                            )
                        )
                recv = edge.receiver
                if recv is not None:
                    dead = False
                    if (
                        recv.kind == LOCAL
                        and not recv.attrs
                        and recv.name in ctx.maybe_none
                        and not recv.types
                    ):
                        dead = True
                    elif recv.kind == SELF and len(recv.attrs) == 1 and ctx.fn.cls:
                        cls_info = graph.index.classes.get(ctx.fn.cls)
                        if (
                            cls_info is not None
                            and recv.attrs[0] in cls_info.attr_maybe_none
                            and not recv.types
                        ):
                            dead = True
                    if dead:
                        issues.append(
                            FlowIssue(
                                "SIM602",
                                fn.path,
                                edge.line,
                                f"`{edge.callee_name}` on possibly-None "
                                f"simulator `{recv.describe()}` in {qualname}",
                                qualname,
                                f"dead:{recv.describe()}",
                            )
                        )
            # SIM603: dropped coroutine, or a CPU slot never yielded.
            if id(edge.node) not in expr_stmt_calls:
                continue
            if edge.callee_name == "execute" and _is_method_of(edge, CPU_CLASSES):
                dropped += 1
                issues.append(
                    FlowIssue(
                        "SIM603",
                        fn.path,
                        edge.line,
                        f"CPU slot from `execute` is never yielded in"
                        f" {qualname}; missing `yield`?",
                        qualname,
                        f"drop:{edge.callee_name}",
                    )
                )
            elif edge.targets and edge.kind == "direct":
                target_fns = [
                    graph.index.functions[t]
                    for t in edge.targets
                    if t in graph.index.functions
                ]
                if target_fns and all(t.is_generator for t in target_fns):
                    dropped += 1
                    issues.append(
                        FlowIssue(
                            "SIM603",
                            fn.path,
                            edge.line,
                            f"call to generator `{edge.callee_name}` is never"
                            f" iterated in {qualname}; missing `yield from`?",
                            qualname,
                            f"drop:{edge.callee_name}",
                        )
                    )
    return issues, {"dropped_coroutines": dropped}
