"""Field-write effect inference and the PUR5xx pure-observer checks.

Each function gets a local :class:`FnEffects` summary: every syntactic
state write (attribute store, subscript store, mutating container call,
``del``, global assignment) grounded — where the receiver's class could
be inferred — to an owning ``(class, attr)`` pair, plus the scheduling
and RNG calls the function makes directly. Summaries compose over the
call graph by fixpoint: a caller inherits its callees' grounded writes,
and callee *parameter* writes are re-grounded through the caller's
argument expressions.

The PUR5xx judgment walks the functions reachable from the configured
observer entry points (``repro.obs`` hooks, sanitizer callbacks) and
flags local effects there:

* **PUR501** — write to state owned by a non-observer module (error),
* **PUR502** — write whose ownership could not be resolved (warning),
* **PUR503** — observer schedules simulator events or draws RNG (error),
* **PUR504** — unresolved call leaving the audited region (warning).

Writes rooted at function-local containers constructed in the same
function are intentionally ignored: they are fresh objects the caller
owns. Aliases of ``self``/parameter state (``x = self.attr``) are
tracked and judged like direct writes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import (
    CLASS,
    COMMON_OBJECT_METHODS,
    LOCAL,
    MODULE,
    MUTATING_METHODS,
    PARAM,
    SELF,
    UNKNOWN,
    CallEdge,
    CallGraph,
    FunctionContext,
    Ref,
    classify,
)
from .config import FlowConfig
from .syntactic import FlowIssue, unseeded_rng

__all__ = [
    "WriteEffect",
    "ParamWrite",
    "FnEffects",
    "extract_effects",
    "propagate_effects",
    "observer_entry_points",
    "check_pure_observer",
]


@dataclass(frozen=True)
class WriteEffect:
    """A state write grounded to its owning class (or None if unknown)."""

    cls: Optional[str]
    attr: str
    site_fn: str
    line: int
    via: str  # attr-store | subscript-store | mutating-call | del | global-store
    detail: str = ""


@dataclass(frozen=True)
class ParamWrite:
    """A write rooted at a parameter, re-grounded at each call site."""

    param_index: int
    attr: str
    site_fn: str
    line: int
    via: str


@dataclass(frozen=True)
class SchedCall:
    """A direct scheduling or RNG call (PUR503)."""

    name: str
    line: int
    kind: str  # "schedule" | "rng"


@dataclass
class FnEffects:
    """Local (non-transitive) effect summary for one function."""

    grounded: Set[WriteEffect] = field(default_factory=set)
    param_writes: Set[ParamWrite] = field(default_factory=set)
    sched_calls: List[SchedCall] = field(default_factory=list)


#: Method names that schedule simulator events (PUR503 / DET152 /
#: SIM6xx sinks) when the receiver resolves to a simulator class.
SCHEDULE_METHODS = frozenset(
    {
        "call_after",
        "call_at",
        "schedule",
        "schedule_at",
        "spawn",
    }
)

#: Class names (last qualname component) treated as simulators.
SIMULATOR_CLASSES = frozenset({"Simulator"})

#: Per-function cap on reported unresolved-ownership write sites
#: (PUR502) and observer escapes (PUR504) so one messy helper cannot
#: flood the report.
MAX_UNKNOWN_SITES = 3


def _is_method_of(edge: CallEdge, class_names: FrozenSet[str]) -> bool:
    """Whether the call lands in, or its receiver is typed as, a class
    whose name (last qualname component) is in ``class_names``."""
    for target in edge.targets:
        parts = target.rsplit(".", 2)
        if len(parts) >= 2 and parts[-2] in class_names:
            return True
    recv = edge.receiver
    if recv is not None:
        for cls in recv.types:
            if cls.rsplit(".", 1)[-1] in class_names:
                return True
    return False


def _is_schedule_edge(edge: CallEdge) -> bool:
    return edge.callee_name in SCHEDULE_METHODS and _is_method_of(
        edge, SIMULATOR_CLASSES
    )


def _ground_target(
    base: ast.AST, attr: str, ctx: FunctionContext, line: int, via: str
) -> Tuple[List[WriteEffect], List[ParamWrite], bool]:
    """Ground a write through ``base.attr`` (or ``base[...]``).

    Returns (grounded effects, param-rooted writes, ignored). A write is
    *ignored* when it lands on a plain function-local object.
    """
    ref = classify(base, ctx)
    qual = ctx.fn.qualname
    if ref.kind == SELF and not ref.attrs:
        cls = ctx.fn.cls
        return [WriteEffect(cls, attr, qual, line, via)], [], False
    if ref.kind == PARAM and not ref.attrs:
        return [], [ParamWrite(ref.index, attr, qual, line, via)], False
    if ref.kind == MODULE and not ref.attrs:
        return [WriteEffect(ref.name, attr, qual, line, via, "module-attr")], [], False
    if ref.types:
        return (
            [WriteEffect(cls, attr, qual, line, via) for cls in sorted(ref.types)],
            [],
            False,
        )
    if ref.kind == LOCAL:
        # Untyped local (fresh record, accumulator, comprehension var):
        # treated as function-owned. Locals aliasing self/param state
        # were already re-rooted by the alias map.
        return [], [], True
    if ref.kind == PARAM:
        # param.x.y with no type info: keep it param-rooted so the
        # caller's argument can ground it.
        return [], [ParamWrite(ref.index, attr, qual, line, via)], False
    # self.x.y with unknown attr type / anything else.
    return [WriteEffect(None, attr, qual, line, via, ref.describe())], [], False


def _extract_one(graph: CallGraph, qualname: str) -> FnEffects:
    fn = graph.index.functions[qualname]
    ctx = graph.context(qualname)
    eff = FnEffects()

    def record(effects, params):
        eff.grounded.update(effects)
        eff.param_writes.update(params)

    stack: List[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        via_del = isinstance(node, ast.Delete)
        for target in targets:
            for leaf in _flatten_target(target):
                if isinstance(leaf, ast.Attribute):
                    grounded, params, _ = _ground_target(
                        leaf.value,
                        leaf.attr,
                        ctx,
                        leaf.lineno,
                        "del" if via_del else "attr-store",
                    )
                    record(grounded, params)
                elif isinstance(leaf, ast.Subscript):
                    base = leaf.value
                    if isinstance(base, ast.Attribute):
                        grounded, params, _ = _ground_target(
                            base.value,
                            base.attr + "[]",
                            ctx,
                            leaf.lineno,
                            "del" if via_del else "subscript-store",
                        )
                        record(grounded, params)
                    else:
                        ref = classify(base, ctx)
                        _record_container(eff, ref, ctx, leaf.lineno, "subscript-store")
        if isinstance(node, ast.Global):
            for name in node.names:
                eff.grounded.add(
                    WriteEffect(fn.module, name, qualname, node.lineno, "global-store")
                )

    # Mutating container calls and scheduling/RNG calls.
    for edge in graph.edges(qualname):
        call = edge.node
        if _is_schedule_edge(edge):
            eff.sched_calls.append(SchedCall(edge.callee_name, edge.line, "schedule"))
        if unseeded_rng(call) is not None:
            eff.sched_calls.append(SchedCall(ast.unparse(call.func), edge.line, "rng"))
        if (
            edge.kind == "builtin"
            and edge.callee_name in MUTATING_METHODS
            and isinstance(call.func, ast.Attribute)
        ):
            base = call.func.value
            if isinstance(base, ast.Attribute):
                grounded, params, _ = _ground_target(
                    base.value, base.attr, ctx, edge.line, "mutating-call"
                )
                record(grounded, params)
            else:
                ref = classify(base, ctx)
                _record_container(eff, ref, ctx, edge.line, "mutating-call")
    return eff


def _record_container(
    eff: FnEffects, ref: Ref, ctx: FunctionContext, line: int, via: str
) -> None:
    """Record mutation of a container referred to by ``ref`` directly."""
    qual = ctx.fn.qualname
    if ref.kind == SELF and ref.attrs:
        # self._waiting[a][b] = ... mutates the container held at
        # (cls, first attr): ownership follows the attribute's owner.
        eff.grounded.add(WriteEffect(ctx.fn.cls, ref.attrs[0], qual, line, via))
    elif ref.kind == PARAM:
        eff.param_writes.add(
            ParamWrite(ref.index, ref.attrs[0] if ref.attrs else "", qual, line, via)
        )
    elif ref.kind == LOCAL and not ref.types:
        # Function-local container (fresh record/accumulator): owned by
        # this function, not shared state.
        return
    elif ref.types:
        for cls in sorted(ref.types):
            eff.grounded.add(
                WriteEffect(cls, ref.attrs[0] if ref.attrs else "[]", qual, line, via)
            )
    else:
        eff.grounded.add(
            WriteEffect(None, ref.attrs[-1] if ref.attrs else "", qual, line, via, ref.describe())
        )


def _flatten_target(target: ast.AST) -> List[ast.AST]:
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[ast.AST] = []
        for elt in target.elts:
            out.extend(_flatten_target(elt))
        return out
    if isinstance(target, ast.Starred):
        return _flatten_target(target.value)
    return [target]


def extract_effects(graph: CallGraph) -> Dict[str, FnEffects]:
    """Local effect summaries for every function in the index."""
    return {
        qualname: _extract_one(graph, qualname)
        for qualname in graph.index.functions
    }


def propagate_effects(
    graph: CallGraph,
    local: Dict[str, FnEffects],
    max_rounds: int = 20,
) -> Dict[str, Set[WriteEffect]]:
    """Fixpoint: transitive grounded writes per function.

    Param-rooted writes in a callee are re-grounded through the caller's
    argument refs (``helper(self.inode)`` turns the callee's write into
    a write on the inode's classes).
    """
    summary: Dict[str, Set[WriteEffect]] = {
        q: set(eff.grounded) for q, eff in local.items()
    }
    for _ in range(max_rounds):
        changed = False
        for qualname in graph.index.functions:
            mine = summary[qualname]
            before = len(mine)
            for edge in graph.edges(qualname):
                for target in edge.targets:
                    mine |= summary.get(target, set())
                    for pw in local.get(target, FnEffects()).param_writes:
                        mine |= _bind_param_write(pw, edge, graph, qualname)
            if len(mine) != before:
                changed = True
        if not changed:
            break
    return summary


def _bind_param_write(
    pw: ParamWrite, edge: CallEdge, graph: CallGraph, caller: str
) -> Set[WriteEffect]:
    # Positional binding only; self (index 0 of methods) binds to the
    # receiver, remaining params shift by one.
    target_fn = graph.index.functions.get(edge.targets[0]) if edge.targets else None
    is_method_call = (
        target_fn is not None
        and target_fn.is_method
        and edge.receiver is not None
    )
    arg_pos = pw.param_index - 1 if is_method_call else pw.param_index
    if is_method_call and pw.param_index == 0:
        ref: Optional[Ref] = edge.receiver
    elif 0 <= arg_pos < len(edge.arg_refs):
        ref = edge.arg_refs[arg_pos]
    else:
        ref = None
    if ref is None:
        return {WriteEffect(None, pw.attr, pw.site_fn, pw.line, pw.via, "via-call")}
    if ref.types:
        return {
            WriteEffect(cls, pw.attr, pw.site_fn, pw.line, pw.via)
            for cls in sorted(ref.types)
        }
    if ref.kind == LOCAL and not ref.attrs:
        return set()  # fresh local passed down: caller-owned
    return {WriteEffect(None, pw.attr, pw.site_fn, pw.line, pw.via, ref.describe())}


def observer_entry_points(graph: CallGraph, config: FlowConfig) -> List[str]:
    """Qualnames of the pure-observer entry functions.

    Every public function/method in the entry modules (hooks, metric
    API, sanitizer callbacks) minus the configured setup functions.
    Private helpers are not entries themselves but are still audited
    when reachable from one.
    """
    out = []
    for qualname, fn in graph.index.functions.items():
        if not config.is_entry_module(fn.module):
            continue
        if qualname in config.entry_exclude:
            continue
        if fn.name.startswith("_"):
            continue
        out.append(qualname)
    return sorted(out)


def _fn_module_owned(graph: CallGraph, qualname: str, config: FlowConfig) -> bool:
    fn = graph.index.functions.get(qualname)
    return fn is not None and config.owns_module(fn.module)


def check_pure_observer(
    graph: CallGraph,
    local: Dict[str, FnEffects],
    config: FlowConfig,
) -> Tuple[List[FlowIssue], Dict[str, int]]:
    """Run PUR501–PUR504 over the observer-reachable region.

    The region is closed over *direct* edges plus heuristic edges whose
    every candidate lives in an observer-owned module; a heuristic edge
    that could land in sim code is reported (PUR504) but not traversed,
    so one shared method name cannot pull the whole simulator into the
    audited region.
    """
    entries = observer_entry_points(graph, config)
    entry_set = set(entries)

    def follow(edge: CallEdge) -> bool:
        if edge.kind == "direct":
            return True
        if edge.kind == "heuristic":
            return all(
                _fn_module_owned(graph, t, config) for t in edge.targets
            )
        return False

    reachable = graph.reachable(entries, edge_filter=follow)
    issues: List[FlowIssue] = []
    unresolved = 0

    def judge_grounded(write: WriteEffect, fn, qualname: str, is_entry: bool) -> Optional[FlowIssue]:
        if write.cls is None:
            if not is_entry:
                # Unknown-ownership writes in internal helpers are
                # overwhelmingly observer-local records; hooks are held
                # to the stricter standard.
                return None
            return FlowIssue(
                "PUR502",
                fn.path,
                write.line,
                f"observer-reachable write `{write.detail or '?'}"
                f".{write.attr}` has unresolved ownership (in {qualname})",
                qualname,
                f"{write.attr}:{write.via}",
            )
        owner_module = (
            write.cls
            if write.cls in graph.index.modules
            else write.cls.rsplit(".", 1)[0]
        )
        if config.owns_module(owner_module):
            return None
        return FlowIssue(
            "PUR501",
            fn.path,
            write.line,
            f"observer-reachable code writes non-observer state "
            f"`{write.cls.rsplit('.', 1)[-1]}.{write.attr}` "
            f"(in {qualname}, via {write.via})",
            qualname,
            f"{write.cls.rsplit('.', 1)[-1]}.{write.attr}",
        )

    for qualname in sorted(reachable):
        fn = graph.index.functions[qualname]
        eff = local.get(qualname)
        if eff is None:
            continue
        is_entry = qualname in entry_set
        unknown_reported = 0
        for write in sorted(
            eff.grounded, key=lambda w: (w.line, w.attr, w.cls or "")
        ):
            issue = judge_grounded(write, fn, qualname, is_entry)
            if issue is None:
                continue
            if issue.code == "PUR502":
                if unknown_reported >= MAX_UNKNOWN_SITES:
                    continue
                unknown_reported += 1
            issues.append(issue)
        # Param-rooted writes: ground through in-region call sites; a
        # hook's own param writes stay PUR502 (hooks receive sim state).
        for pw in sorted(eff.param_writes, key=lambda p: (p.line, p.attr)):
            if is_entry:
                issues.append(
                    FlowIssue(
                        "PUR502",
                        fn.path,
                        pw.line,
                        f"observer hook writes to parameter "
                        f"`{fn.params[pw.param_index] if pw.param_index < len(fn.params) else pw.param_index}"
                        f"{'.' + pw.attr if pw.attr else ''}` "
                        f"(in {qualname}; sim objects must stay read-only)",
                        qualname,
                        f"param:{pw.param_index}:{pw.attr}",
                    )
                )
        for sched in eff.sched_calls:
            issues.append(
                FlowIssue(
                    "PUR503",
                    fn.path,
                    sched.line,
                    f"observer-reachable code calls `{sched.name}` "
                    f"({'schedules simulator events' if sched.kind == 'schedule' else 'draws RNG'}) "
                    f"in {qualname}",
                    qualname,
                    f"{sched.kind}:{sched.name}",
                )
            )
        escapes_reported = 0
        for edge in graph.edges(qualname):
            if edge.kind == "unresolved":
                unresolved += 1
                if edge.callee_name in ("__init__", "<expr>"):
                    continue
                if edge.callee_name in COMMON_OBJECT_METHODS:
                    continue  # counted in stats; almost surely dict/str
                if escapes_reported >= MAX_UNKNOWN_SITES:
                    continue
                escapes_reported += 1
                issues.append(
                    FlowIssue(
                        "PUR504",
                        fn.path,
                        edge.line,
                        f"unresolved call `{edge.callee_name}(...)` from "
                        f"observer-reachable {qualname}; effects unknown",
                        qualname,
                        f"call:{edge.callee_name}",
                    )
                )
            elif edge.kind == "heuristic" and not follow(edge):
                unresolved += 1
                if escapes_reported >= MAX_UNKNOWN_SITES:
                    continue
                escapes_reported += 1
                issues.append(
                    FlowIssue(
                        "PUR504",
                        fn.path,
                        edge.line,
                        f"call `{edge.callee_name}(...)` from "
                        f"observer-reachable {qualname} may land in "
                        f"non-observer code (unresolved receiver); not traversed",
                        qualname,
                        f"escape:{edge.callee_name}",
                    )
                )
        # Ground in-region param writes of direct callees through this
        # caller's argument refs (one binding level).
        for edge in graph.edges(qualname):
            if edge.kind != "direct":
                continue
            for target in edge.targets:
                teff = local.get(target)
                if teff is None:
                    continue
                tfn = graph.index.functions[target]
                for pw in teff.param_writes:
                    for write in _bind_param_write(pw, edge, graph, qualname):
                        issue = judge_grounded(write, tfn, target, is_entry=False)
                        if issue is not None and issue not in issues:
                            issues.append(issue)

    stats = {
        "entry_points": len(entries),
        "reachable_functions": len(reachable),
        "unresolved_calls_in_region": unresolved,
    }
    return issues, stats
