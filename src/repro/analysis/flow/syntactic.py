"""Per-module syntactic rules: the line-local determinism hazards.

The whole reproduction strategy rests on bit-for-bit deterministic
replay: a stray ``time.time()``, an unseeded ``random`` draw, or an
iteration order that depends on object identity silently breaks the
fingerprint contract, and the failure only surfaces far downstream as a
cache or replay mismatch.  This pass walks each module's tree from the
:class:`~.modindex.PackageIndex` and flags the hazard classes we have
actually been bitten by:

* **DET101** — process-global ``random`` draws / ``random.Random()``
  without a seed,
* **DET102** — ``time.time()``/``datetime.now()`` etc. leaking host
  time into the simulation,
* **DET103** — iterating a ``set`` expression, whose order varies with
  PYTHONHASHSEED,
* **DET104** — ``id()`` inside sort keys or ``hash()`` inputs
  (address-dependent ordering),
* **DET105** — ``import random`` outside ``sim.rng`` (all randomness
  must flow through named :class:`RngStreams` streams),
* **MUT201** — mutable default argument values,
* **DEAD301** — statements after ``return``/``raise``/``break``/
  ``continue`` (the class of bug behind the dead ``yield`` once shipped
  in ``rpc.xprt._handle_reply``).

The recognised *generator-marker* idiom — a bare ``yield`` directly
after ``return``, which turns a plain function into a generator — is
exempt from DEAD301: it is load-bearing throughout the lock layer.

The hazard tables here are the only definition of each hazard: the
DET15x taint pass (:mod:`.taint`) takes its ``rng``/``clock``/
``set-order`` sources from the same predicates.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .effects import FlowIssue
from .modindex import ModuleInfo, PackageIndex

__all__ = [
    "ORDER_INSENSITIVE_FNS",
    "check_syntactic",
    "is_set_expr",
    "unseeded_rng",
    "wall_clock",
]

#: random-module functions that draw from the process-global RNG.
_GLOBAL_RNG_FNS = frozenset(
    [
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    ]
)

#: time-module wall-clock readers (the sim clock is ``sim.now``).
_WALL_CLOCK_FNS = frozenset(
    [
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "clock",
    ]
)

_DATETIME_FNS = frozenset(["now", "utcnow", "today"])
_DATETIME_BASES = frozenset(["datetime", "date"])

#: constructors of mutable containers (bad default arguments).
_MUTABLE_CTORS = frozenset(
    ["list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter", "bytearray"]
)

#: order-sensitive consumers of an iterable's raw order.
_ORDER_SENSITIVE_FNS = frozenset(["list", "tuple", "enumerate", "reversed"])

#: consumers for which iteration order is normalised (sorted) or
#: irrelevant (reductions, set constructors): a set expression fed to
#: one of these — directly or through a comprehension — is fine.
ORDER_INSENSITIVE_FNS = frozenset(
    ["sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"]
)

_COMPREHENSION_NODES = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)

_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def is_set_expr(node: ast.AST) -> bool:
    """A set display, set comprehension, or ``set()``/``frozenset()`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def unseeded_rng(call: ast.Call) -> Optional[str]:
    """DET101's message when ``call`` draws from an unseeded RNG, else None."""
    func = call.func
    unseeded = not call.args and not call.keywords
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "random":
            if func.attr in _GLOBAL_RNG_FNS:
                return (
                    f"random.{func.attr}() draws from the process-global RNG; "
                    "use a named RngStreams stream"
                )
            if func.attr == "Random" and unseeded:
                return (
                    "random.Random() without a seed is nondeterministic; "
                    "pass an explicit seed or use RngStreams"
                )
    if isinstance(func, ast.Name) and func.id == "Random" and unseeded:
        return (
            "Random() without a seed is nondeterministic; pass an "
            "explicit seed or use RngStreams"
        )
    return None


def wall_clock(call: ast.Call) -> Optional[str]:
    """DET102's message when ``call`` reads the host clock, else None."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if (
        isinstance(value, ast.Name)
        and value.id == "time"
        and func.attr in _WALL_CLOCK_FNS
    ):
        return f"time.{func.attr}() reads the host clock; simulated time is sim.now"
    if func.attr in _DATETIME_FNS:
        base = None
        if isinstance(value, ast.Name):
            base = value.id
        elif isinstance(value, ast.Attribute):
            base = value.attr
        if base in _DATETIME_BASES:
            return (
                f"{base}.{func.attr}() reads the host clock; "
                "simulated time is sim.now"
            )
    return None


def _dotted(func: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else the empty string."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_generator_marker(stmt: ast.stmt) -> bool:
    """The deliberate ``return`` + bare ``yield`` generator idiom."""
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Yield)
        and stmt.value.value is None
    )


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in _MUTABLE_CTORS
        if isinstance(func, ast.Attribute):
            return func.attr in _MUTABLE_CTORS
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, mod: ModuleInfo):
        self.path = mod.path
        #: qualname stack of the enclosing defs: the finding's scope.
        self.scope: List[str] = [mod.name]
        self.issues: List[FlowIssue] = []
        #: (scope, code, slug) -> occurrences so far, for line-free keys.
        self._seen: Dict[Tuple[str, str, str], int] = {}
        #: set-expression iter nodes exempt from DET103 because an
        #: order-insensitive consumer normalises/ignores their order.
        self._order_exempt: Set[int] = set()

    def _flag(self, node: ast.AST, code: str, slug: str, message: str) -> None:
        scope = ".".join(self.scope)
        n = self._seen.get((scope, code, slug), 0) + 1
        self._seen[(scope, code, slug)] = n
        self.issues.append(
            FlowIssue(
                code,
                self.path,
                getattr(node, "lineno", 1),
                message,
                scope,
                f"{slug}#{n}",
            )
        )

    # -- DEAD301: unreachable code ------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list):
                self._check_unreachable(stmts)
        super().generic_visit(node)

    def _check_unreachable(self, stmts: List[ast.AST]) -> None:
        terminator: Optional[ast.stmt] = None
        for stmt in stmts:
            if terminator is not None:
                if _is_generator_marker(stmt):
                    continue  # the sanctioned return-then-yield idiom
                kind = type(terminator).__name__.lower()
                self._flag(
                    stmt,
                    "DEAD301",
                    f"after-{kind}",
                    f"unreachable: the {kind} on line {terminator.lineno} "
                    "always exits this block first",
                )
                return
            if isinstance(stmt, _TERMINATORS):
                terminator = stmt

    # -- scopes and MUT201 ----------------------------------------------------

    def _check_defaults(self, args: ast.arguments) -> None:
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            if _is_mutable_default(default):
                self._flag(
                    default,
                    "MUT201",
                    "default",
                    "mutable default argument is created once and shared "
                    "across calls; default to None and build inside",
                )

    def _visit_scope(self, node) -> None:
        self.scope.append(node.name)
        if not isinstance(node, ast.ClassDef):
            self._check_defaults(node.args)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args)
        self.generic_visit(node)

    # -- DET101 / DET102 / DET104 and order-sensitive calls -----------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        message = unseeded_rng(node)
        if message is not None:
            self._flag(node, "DET101", _dotted(func), message)
        message = wall_clock(node)
        if message is not None:
            self._flag(node, "DET102", _dotted(func), message)

        # DET104: id() inside sort keys.
        is_sort = (isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")) or (
            isinstance(func, ast.Attribute) and func.attr == "sort"
        )
        if is_sort:
            for keyword in node.keywords:
                if keyword.arg == "key":
                    self._flag_id_calls(keyword.value, "sort-key", "a sort key")
        # DET104: id() inside hash() inputs.
        if isinstance(func, ast.Name) and func.id == "hash":
            for arg in node.args:
                self._flag_id_calls(arg, "hash", "a hash() input")

        # DET103: order-sensitive consumption of a set expression.
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_FNS
            and node.args
            and is_set_expr(node.args[0])
        ):
            self._flag(
                node,
                "DET103",
                func.id,
                f"{func.id}() over a set captures hash order; sort first",
            )
        # Order-insensitive consumers (sorted/len/sum/...) normalise or
        # ignore iteration order: exempt set-expression iters of any
        # comprehension passed directly as an argument, so
        # ``sorted(x for x in {...})`` does not fire.
        if isinstance(func, ast.Name) and func.id in ORDER_INSENSITIVE_FNS:
            for arg in node.args:
                if isinstance(arg, _COMPREHENSION_NODES):
                    for gen in arg.generators:
                        if is_set_expr(gen.iter):
                            self._order_exempt.add(id(gen.iter))
        self.generic_visit(node)

    def _flag_id_calls(self, node: ast.AST, slug: str, where: str) -> None:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                self._flag(
                    sub,
                    "DET104",
                    slug,
                    f"id() used in {where} depends on allocation addresses",
                )

    # -- DET103: direct iteration over set expressions ----------------------

    def visit_For(self, node: ast.For) -> None:
        if is_set_expr(node.iter):
            self._flag(
                node.iter,
                "DET103",
                "for",
                "for-loop over a set iterates in hash order; sort first",
            )
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if is_set_expr(node.iter) and id(node.iter) not in self._order_exempt:
            self._flag(
                node.iter,
                "DET103",
                "comprehension",
                "comprehension over a set iterates in hash order; sort first",
            )
        self.generic_visit(node)

    # -- DET105: stray random imports ---------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._flag(
                    node,
                    "DET105",
                    "import",
                    "import random outside repro.sim.rng; randomness must "
                    "flow through named RngStreams streams",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag(
                node,
                "DET105",
                "import",
                "from random import ... outside repro.sim.rng; randomness "
                "must flow through named RngStreams streams",
            )
        self.generic_visit(node)


def check_syntactic(index: PackageIndex) -> List[FlowIssue]:
    """Run DET101–DET105, MUT201 and DEAD301 over every indexed module."""
    issues: List[FlowIssue] = []
    for name in sorted(index.modules):
        mod = index.modules[name]
        visitor = _Visitor(mod)
        visitor.visit(mod.tree)
        issues.extend(visitor.issues)
    return issues
