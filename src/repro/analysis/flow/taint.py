"""Interprocedural nondeterminism taint (DET15x).

Sources (per call site, unless the line carries a ``# noqa`` naming a
DET code, such as the ``# noqa: DET102`` on a host-side timer):

* ``rng`` — unseeded RNG draws (exactly what DET101 flags),
* ``clock`` — wall-clock reads (exactly what DET102 flags),
* ``id`` — ``id(...)`` of an object,
* ``set-order`` — values whose *order* derives from set iteration
  (``list({...})``, ``for x in set(...)``; DET103's set predicate).

The lattice is a small powerset of those kinds. Taint moves through
local assignments, function returns (with a pass-through bit for
functions that return parameter-derived values), and object attributes
(a whole-program ``(class, attr) → kinds`` map reaching fixpoint over
the call graph). Sanitizers kill selectively: ``sorted()`` and other
order-insensitive reductions (``min``/``max``/``sum``/``any``/``all``/
``len``/``set``/``frozenset``) kill ``set-order``; ``len()`` and
boolean tests kill everything; arithmetic kills ``set-order`` (order
taint only matters for sequence construction) but keeps
``rng``/``clock``/``id``.

Sinks:

* **DET151** (error) — tainted argument to a fingerprint call,
* **DET152** (error) — tainted argument to simulator scheduling,
* **DET153** (warning) — tainted value stored into object state.

This pass follows the per-module DET101–DET104 hazards
(:mod:`.syntactic`) across function boundaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .callgraph import CallGraph, FunctionContext, classify
from .effects import FlowIssue, _is_schedule_edge
from .syntactic import ORDER_INSENSITIVE_FNS, is_set_expr, unseeded_rng, wall_clock

__all__ = ["check_taint", "TAINT_KINDS"]

TAINT_KINDS = ("rng", "clock", "id", "set-order")

#: Consumers whose result carries no input taint at all.
_FULL_KILLERS = frozenset(["len", "bool", "isinstance", "hasattr", "type"])

#: Functions whose call fingerprints state (DET151 sinks), matched
#: by final qualname component.
FINGERPRINT_CALLS = frozenset(
    {"_fingerprint", "fingerprint", "fingerprint_events", "digest"}
)


@dataclass
class _FnSummary:
    returns: Set[str] = field(default_factory=set)
    returns_param_derived: bool = False


class _TaintPass:
    def __init__(
        self,
        graph: CallGraph,
        source_silenced: Callable[[str, int], bool],
    ):
        self.graph = graph
        self.source_silenced = source_silenced
        self.attr_map: Dict[Tuple[str, str], Set[str]] = {}
        self.summaries: Dict[str, _FnSummary] = {
            q: _FnSummary() for q in graph.index.functions
        }
        self._param_derived_cache: Dict[str, bool] = {}

    # -- sources ------------------------------------------------------

    def _source_kinds(self, call: ast.Call, path: str) -> Set[str]:
        if self.source_silenced(path, call.lineno):
            return set()
        if unseeded_rng(call) is not None:
            return {"rng"}
        if wall_clock(call) is not None:
            return {"clock"}
        func = call.func
        if isinstance(func, ast.Name) and func.id == "id" and call.args:
            return {"id"}
        return set()

    # -- expression taint --------------------------------------------

    def _expr(self, expr: ast.AST, env: Dict[str, Set[str]], ctx: FunctionContext) -> Set[str]:
        path = ctx.fn.path
        if isinstance(expr, ast.Name):
            return set(env.get(expr.id, ()))
        if isinstance(expr, ast.Call):
            kinds = self._source_kinds(expr, path)
            if kinds:
                return kinds
            arg_taint: Set[str] = set()
            for arg in expr.args:
                inner = arg.value if isinstance(arg, ast.Starred) else arg
                arg_taint |= self._expr(inner, env, ctx)
                if is_set_expr(inner):
                    arg_taint.add("set-order")
            for kw in expr.keywords:
                arg_taint |= self._expr(kw.value, env, ctx)
            name = expr.func.id if isinstance(expr.func, ast.Name) else expr.func.attr if isinstance(expr.func, ast.Attribute) else ""
            if name in _FULL_KILLERS:
                return set()
            if name in ORDER_INSENSITIVE_FNS:
                return arg_taint - {"set-order"}
            if name in ("list", "tuple"):
                return arg_taint
            # Resolved calls: callee summary (+ pass-through).
            for edge in self.graph.edges(ctx.fn.qualname):
                if edge.node is expr:
                    out: Set[str] = set()
                    for target in edge.targets:
                        summ = self.summaries.get(target)
                        if summ is None:
                            continue
                        out |= summ.returns
                        if summ.returns_param_derived:
                            out |= arg_taint
                    if edge.targets:
                        return out
                    break
            return arg_taint  # builtin/unresolved: conservative pass-through
        if isinstance(expr, ast.Attribute):
            base = self._expr(expr.value, env, ctx)
            ref = classify(expr.value, ctx)
            stored: Set[str] = set()
            for cls in ref.types:
                stored |= self.attr_map.get((cls, expr.attr), set())
            return base | stored
        if isinstance(expr, ast.Subscript):
            return self._expr(expr.value, env, ctx)
        if isinstance(expr, (ast.BinOp,)):
            out = self._expr(expr.left, env, ctx) | self._expr(expr.right, env, ctx)
            return out - {"set-order"}
        if isinstance(expr, ast.UnaryOp):
            return self._expr(expr.operand, env, ctx) - {"set-order"}
        if isinstance(expr, ast.BoolOp):
            out = set()
            for v in expr.values:
                out |= self._expr(v, env, ctx)
            return out
        if isinstance(expr, ast.Compare):
            out = self._expr(expr.left, env, ctx)
            for comp in expr.comparators:
                out |= self._expr(comp, env, ctx)
            return out - {"set-order"}
        if isinstance(expr, ast.IfExp):
            return self._expr(expr.body, env, ctx) | self._expr(expr.orelse, env, ctx)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out = set()
            for elt in expr.elts:
                out |= self._expr(elt, env, ctx)
            return out
        if isinstance(expr, ast.Dict):
            out = set()
            for part in list(expr.keys) + list(expr.values):
                if part is not None:
                    out |= self._expr(part, env, ctx)
            return out
        if isinstance(expr, ast.JoinedStr):
            out = set()
            for v in expr.values:
                if isinstance(v, ast.FormattedValue):
                    out |= self._expr(v.value, env, ctx)
            return out
        if isinstance(expr, ast.Await):
            return self._expr(expr.value, env, ctx)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            out = self._comp_taint(expr.generators, env, ctx)
            out |= self._expr(expr.elt, dict(env), ctx)
            return out
        if isinstance(expr, ast.DictComp):
            out = self._comp_taint(expr.generators, env, ctx)
            out |= self._expr(expr.key, dict(env), ctx)
            out |= self._expr(expr.value, dict(env), ctx)
            return out
        return set()

    def _comp_taint(self, generators, env, ctx) -> Set[str]:
        out: Set[str] = set()
        for gen in generators:
            out |= self._expr(gen.iter, env, ctx)
            if is_set_expr(gen.iter):
                out.add("set-order")
        return out

    # -- per-function analysis ---------------------------------------

    def _returns_param_derived(self, qualname: str) -> bool:
        cached = self._param_derived_cache.get(qualname)
        if cached is not None:
            return cached
        fn = self.graph.index.functions[qualname]
        params = set(fn.params)
        derived = set(params)
        for _ in range(2):
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Call, ast.Attribute, ast.Subscript, ast.BinOp)):
                    used = {
                        n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
                    }
                    if used & derived:
                        for t in node.targets:
                            if isinstance(t, ast.Name):
                                derived.add(t.id)
        result = False
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                used = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
                if used & derived:
                    result = True
                    break
        self._param_derived_cache[qualname] = result
        return result

    def _analyze_fn(self, qualname: str, report: Optional[List[FlowIssue]]) -> bool:
        """One pass over a function; returns True if global state changed."""
        fn = self.graph.index.functions[qualname]
        ctx = self.graph.context(qualname)
        env: Dict[str, Set[str]] = {}
        changed = False
        summ = self.summaries[qualname]
        summ.returns_param_derived = self._returns_param_derived(qualname)

        body_nodes = [
            n
            for n in ast.walk(fn.node)
            if not isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            or n is fn.node
        ]
        for _ in range(2):  # flow-insensitive: two passes to settle locals
            for node in body_nodes:
                if isinstance(node, ast.Assign):
                    kinds = self._expr(node.value, env, ctx)
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            env.setdefault(t.id, set()).update(kinds)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name):
                        env.setdefault(node.target.id, set()).update(
                            self._expr(node.value, env, ctx)
                        )
                elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                    kinds = self._expr(node.value, env, ctx) - {"set-order"}
                    env.setdefault(node.target.id, set()).update(kinds)
                elif isinstance(node, ast.For):
                    kinds = self._expr(node.iter, env, ctx)
                    if is_set_expr(node.iter) and not self.source_silenced(
                        fn.path, node.iter.lineno
                    ):
                        kinds = kinds | {"set-order"}
                    for t in ast.walk(node.target):
                        if isinstance(t, ast.Name):
                            env.setdefault(t.id, set()).update(kinds)

        # Returns → summary.
        for node in body_nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                kinds = self._expr(node.value, env, ctx)
                if kinds - summ.returns:
                    summ.returns |= kinds
                    changed = True

        # Attribute stores → attr map (and DET153 when reporting).
        for node in body_nodes:
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            kinds = self._expr(node.value, env, ctx)
            if not kinds:
                continue
            for t in targets:
                leaf = t
                if isinstance(leaf, ast.Subscript):
                    leaf = leaf.value
                if not isinstance(leaf, ast.Attribute):
                    continue
                ref = classify(leaf.value, ctx)
                grounded = bool(ref.types) or (ref.kind == "self" and not ref.attrs)
                classes = set(ref.types)
                if ref.kind == "self" and not ref.attrs and ctx.fn.cls:
                    classes.add(ctx.fn.cls)
                for cls in classes:
                    key = (cls, leaf.attr)
                    have = self.attr_map.setdefault(key, set())
                    if kinds - have:
                        have |= kinds
                        changed = True
                if report is not None and grounded:
                    owner = sorted(classes)[0].rsplit(".", 1)[-1] if classes else "?"
                    report.append(
                        FlowIssue(
                            "DET153",
                            fn.path,
                            leaf.lineno,
                            f"nondeterministic value ({', '.join(sorted(kinds))}) "
                            f"stored into `{owner}.{leaf.attr}` in {qualname}",
                            qualname,
                            f"{owner}.{leaf.attr}:{'+'.join(sorted(kinds))}",
                        )
                    )

        # Sinks: scheduling and fingerprint calls.
        if report is not None:
            for edge in self.graph.edges(qualname):
                arg_kinds: Set[str] = set()
                for arg in edge.node.args:
                    inner = arg.value if isinstance(arg, ast.Starred) else arg
                    arg_kinds |= self._expr(inner, env, ctx)
                for kw in edge.node.keywords:
                    arg_kinds |= self._expr(kw.value, env, ctx)
                if not arg_kinds:
                    continue
                if _is_schedule_edge(edge):
                    report.append(
                        FlowIssue(
                            "DET152",
                            fn.path,
                            edge.line,
                            f"nondeterministic value ({', '.join(sorted(arg_kinds))}) "
                            f"reaches event scheduling `{edge.callee_name}` in {qualname}",
                            qualname,
                            f"sched:{edge.callee_name}:{'+'.join(sorted(arg_kinds))}",
                        )
                    )
                elif edge.callee_name in FINGERPRINT_CALLS:
                    report.append(
                        FlowIssue(
                            "DET151",
                            fn.path,
                            edge.line,
                            f"nondeterministic value ({', '.join(sorted(arg_kinds))}) "
                            f"reaches fingerprint call `{edge.callee_name}` in {qualname}",
                            qualname,
                            f"fp:{edge.callee_name}:{'+'.join(sorted(arg_kinds))}",
                        )
                    )
        return changed


def check_taint(
    graph: CallGraph,
    source_silenced: Callable[[str, int], bool],
    max_rounds: int = 8,
) -> Tuple[List[FlowIssue], Dict[str, int]]:
    """Run the DET15x whole-program taint pass.

    ``source_silenced(path, line)`` is true where a ``# noqa`` naming a
    DET code silences the line's taint sources.
    """
    tp = _TaintPass(graph, source_silenced)
    order = sorted(graph.index.functions)
    for _ in range(max_rounds):
        changed = False
        for qualname in order:
            if tp._analyze_fn(qualname, report=None):
                changed = True
        if not changed:
            break
    issues: List[FlowIssue] = []
    for qualname in order:
        tp._analyze_fn(qualname, report=issues)
    tainted_attrs = sum(1 for kinds in tp.attr_map.values() if kinds)
    stats = {
        "tainted_attributes": tainted_attrs,
        "tainted_returns": sum(1 for s in tp.summaries.values() if s.returns),
    }
    return issues, stats
