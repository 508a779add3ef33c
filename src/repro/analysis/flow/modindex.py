"""Whole-package module index: the ground truth every flow pass shares.

The :class:`PackageIndex` parses every module under one package root
with :mod:`ast` (stdlib only) and records what the interprocedural
passes need to resolve names across files:

* module name ↔ path mapping (``repro.sim.core`` ← ``src/repro/sim/core.py``),
* import tables per module (``import x as y`` aliases and ``from .. import z``
  targets, with relative-import levels resolved against the module name),
* every function, method, and nested function with its parameters,
  parameter annotations, and whether it is a *generator coroutine*
  (contains a ``yield`` outside nested defs — the simulator's task
  idiom),
* every class with its base classes (resolved through the import
  tables where possible), its method table, and two per-attribute
  heuristics mined from ``self.<attr> = ...`` assignments: the set of
  classes the attribute may hold (constructor calls, annotated
  parameters) and whether it may be ``None``.

Nothing here is exact type inference — it is the deliberately simple
assignment-heuristic layer the issue calls for, and every consumer
treats a miss as "unresolved", never as "safe".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "PackageIndex",
    "build_index",
]


def _contains_yield(node: ast.AST) -> bool:
    """True when the function body yields outside nested defs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        if _contains_yield(child):
            return True
    return False


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """The dotted name of a simple annotation, unquoting strings."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip('"')
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _annotation_name(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Subscript):  # Optional[X] / List[X]
        base = _annotation_name(node.value)
        if base in ("Optional",):
            return _annotation_name(node.slice)
        return None
    return None


@dataclass
class FunctionInfo:
    """One function, method, or nested function."""

    qualname: str  # repro.obs.core.Observability.count
    module: str
    name: str
    cls: Optional[str]  # owning class qualname, or None
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    path: str
    lineno: int
    params: List[str] = field(default_factory=list)
    #: param name -> annotated dotted type name (unresolved).
    annotations: Dict[str, str] = field(default_factory=dict)
    is_generator: bool = False

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    """One class definition plus attribute-assignment heuristics."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    lineno: int
    #: Base-class qualnames where resolvable, raw dotted names otherwise.
    bases: List[str] = field(default_factory=list)
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: self.<attr> -> possible class qualnames (constructor heuristics).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: attributes that are assigned ``None`` somewhere.
    attr_maybe_none: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    name: str
    path: str
    tree: ast.Module
    #: The text ``tree`` was parsed from (read once per run).
    source: str
    #: local alias -> absolute module name (``import repro.sim as s``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> absolute dotted target (``from .sim import RngStreams``).
    from_names: Dict[str, str] = field(default_factory=dict)
    #: top-level function/class names defined here.
    toplevel: Set[str] = field(default_factory=set)


@dataclass
class SyntaxFailure:
    """A file the index could not parse (reported as FLW001)."""

    path: str
    line: int
    message: str


class PackageIndex:
    """Everything the flow passes know about the analysed package."""

    def __init__(self, root_package: str):
        #: Name of the root package (``repro``).
        self.root_package = root_package
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> qualnames of every index function with that name.
        self.methods_by_name: Dict[str, List[str]] = {}
        self.failures: List[SyntaxFailure] = []
        self._mro_cache: Dict[str, List[str]] = {}

    # -- name resolution -----------------------------------------------------

    def resolve_name(self, name: str, module: str) -> Optional[str]:
        """Resolve a local dotted name in ``module`` to an index qualname.

        Returns a module, class, or function qualname — whichever the
        name denotes — or None when the name leaves the index (stdlib,
        builtins, third party).
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, _, rest = name.partition(".")
        target: Optional[str] = None
        if head in mod.from_names:
            target = mod.from_names[head]
        elif head in mod.imports:
            target = mod.imports[head]
        elif head in mod.toplevel:
            target = f"{module}.{head}"
        if target is None:
            return None
        if rest:
            target = f"{target}.{rest}"
        # Normalise package re-exports: repro.sim.RngStreams is really
        # defined in repro.sim.rng; chase one __init__ re-export level.
        if target in self.classes or target in self.functions or target in self.modules:
            return target
        parent, _, leaf = target.rpartition(".")
        pkg = self.modules.get(parent)
        if pkg is not None and leaf in pkg.from_names:
            return pkg.from_names[leaf]
        return target

    def resolve_class(self, name: str, module: str) -> Optional[str]:
        resolved = self.resolve_name(name, module)
        if resolved in self.classes:
            return resolved
        return None

    def mro(self, class_qualname: str) -> List[str]:
        """The class plus its in-index ancestors, depth-first."""
        cached = self._mro_cache.get(class_qualname)
        if cached is not None:
            return cached
        seen: List[str] = []
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.append(current)
            info = self.classes.get(current)
            if info is None:
                continue
            for base in info.bases:
                resolved = self.resolve_class(base, info.module) or base
                if resolved not in seen:
                    stack.append(resolved)
        self._mro_cache[class_qualname] = seen
        return seen

    def lookup_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Find ``method`` on the class or an in-index ancestor."""
        for cls in self.mro(class_qualname):
            info = self.classes.get(cls)
            if info is not None and method in info.methods:
                return info.methods[method]
        return None

    def attr_types(self, class_qualname: str, attr: str) -> Set[str]:
        """Possible classes of ``self.<attr>`` across the class's MRO."""
        out: Set[str] = set()
        for cls in self.mro(class_qualname):
            info = self.classes.get(cls)
            if info is not None and attr in info.attr_types:
                out |= info.attr_types[attr]
        return out

    # -- construction ----------------------------------------------------------

    def _register_function(self, info: FunctionInfo) -> None:
        self.functions[info.qualname] = info
        self.methods_by_name.setdefault(info.name, []).append(info.qualname)


def _module_name(path: Path, root: Path, root_package: str) -> str:
    rel = path.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root_package] + parts) if parts else root_package


def _absolute_import(module: str, node: ast.ImportFrom, is_package: bool) -> str:
    """The absolute module an ``ImportFrom`` refers to."""
    if not node.level:
        return node.module or ""
    parts = module.split(".")
    # Level 1 from inside a package __init__ refers to the package itself.
    anchor = parts if is_package else parts[:-1]
    if node.level > 1:
        anchor = anchor[: len(anchor) - (node.level - 1)]
    base = ".".join(anchor)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base


class _ModuleCollector(ast.NodeVisitor):
    """One pass over a module collecting defs, imports, and classes."""

    def __init__(self, index: PackageIndex, mod: ModuleInfo, is_package: bool):
        self.index = index
        self.mod = mod
        self.is_package = is_package
        #: qualname prefix stack under the module (classes/functions).
        self.scope: List[str] = []
        self.class_stack: List[ClassInfo] = []
        #: (owner, fn node, info) triples mined after the full parse.
        self._pending_mines: List[Tuple[ClassInfo, ast.AST, FunctionInfo]] = []

    def run_deferred_mines(self) -> None:
        for owner, node, info in self._pending_mines:
            self._mine_self_assignments(owner, node, info)
        self._pending_mines = []

    # -- imports ---------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.partition(".")[0]
            target = alias.name if alias.asname else alias.name.partition(".")[0]
            self.mod.imports[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _absolute_import(self.mod.name, node, self.is_package)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.mod.from_names[local] = f"{base}.{alias.name}" if base else alias.name

    # -- defs ------------------------------------------------------------------

    def _qual(self, name: str) -> str:
        return ".".join([self.mod.name] + self.scope + [name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        info = ClassInfo(
            qualname=qual,
            module=self.mod.name,
            name=node.name,
            node=node,
            path=self.mod.path,
            lineno=node.lineno,
            bases=[b for b in (_annotation_name(base) for base in node.bases) if b],
        )
        self.index.classes[qual] = info
        if not self.scope:
            self.mod.toplevel.add(node.name)
        self.scope.append(node.name)
        self.class_stack.append(info)
        self.generic_visit(node)
        self.class_stack.pop()
        self.scope.pop()

    def _visit_func(self, node) -> None:
        qual = self._qual(node.name)
        owner = self.class_stack[-1] if self.class_stack else None
        in_class_body = owner is not None and self.scope and self.scope[-1] == owner.name
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        annotations = {
            a.arg: name
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if (name := _annotation_name(a.annotation)) is not None
        }
        info = FunctionInfo(
            qualname=qual,
            module=self.mod.name,
            name=node.name,
            cls=owner.qualname if in_class_body else None,
            node=node,
            path=self.mod.path,
            lineno=node.lineno,
            params=params,
            annotations=annotations,
            is_generator=_contains_yield(node),
        )
        self.index._register_function(info)
        if in_class_body:
            owner.methods[node.name] = qual
            # Deferred until every module is indexed: `self.x = Server()`
            # must resolve Server even when its defining module sorts
            # after this one.
            self._pending_mines.append((owner, node, info))
        if not self.scope:
            self.mod.toplevel.add(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    # -- self.<attr> heuristics ------------------------------------------------

    def _value_classes(
        self, value: ast.AST, info: FunctionInfo
    ) -> Tuple[Set[str], bool]:
        """(possible class names, may_be_none) for an assigned value."""
        if isinstance(value, ast.Constant):
            return set(), value.value is None
        if isinstance(value, ast.IfExp):
            body_cls, body_none = self._value_classes(value.body, info)
            else_cls, else_none = self._value_classes(value.orelse, info)
            return body_cls | else_cls, body_none or else_none
        if isinstance(value, ast.BoolOp):
            out: Set[str] = set()
            none = False
            for operand in value.values:
                cls, n = self._value_classes(operand, info)
                out |= cls
                none = none or n
            return out, none
        if isinstance(value, ast.Call):
            name = _annotation_name(value.func)
            if name:
                resolved = self.index.resolve_class(name, self.mod.name)
                if resolved:
                    return {resolved}, False
            return set(), False
        if isinstance(value, ast.Name):
            annotated = info.annotations.get(value.id)
            if annotated:
                resolved = self.index.resolve_class(annotated, self.mod.name)
                if resolved:
                    return {resolved}, False
            return set(), False
        return set(), False

    def _mine_self_assignments(
        self, owner: ClassInfo, node, info: FunctionInfo
    ) -> None:
        if not info.params:
            return
        self_name = info.params[0]
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                # A bare annotation still names the attribute's type.
                targets, value = [stmt.target], None
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    continue
                attr = target.attr
                bucket = owner.attr_types.setdefault(attr, set())
                if value is None and isinstance(stmt, ast.AnnAssign):
                    name = _annotation_name(stmt.annotation)
                    resolved = (
                        self.index.resolve_class(name, self.mod.name) if name else None
                    )
                    if resolved:
                        bucket.add(resolved)
                    continue
                if value is not None:
                    classes, maybe_none = self._value_classes(value, info)
                    bucket |= classes
                    if maybe_none:
                        owner.attr_maybe_none.add(attr)
                if isinstance(stmt, ast.AnnAssign) and stmt.annotation is not None:
                    name = _annotation_name(stmt.annotation)
                    resolved = (
                        self.index.resolve_class(name, self.mod.name) if name else None
                    )
                    if resolved:
                        bucket.add(resolved)


def _iter_module_files(root: Path) -> List[Path]:
    return [
        p
        for p in sorted(root.rglob("*.py"))
        if "__pycache__" not in p.parts
    ]


def build_index(
    package_root: Union[str, Path], root_package: Optional[str] = None
) -> PackageIndex:
    """Parse every module under ``package_root`` into a PackageIndex.

    ``package_root`` is the directory of the package itself (the one
    containing ``__init__.py``); ``root_package`` defaults to the
    directory's name.
    """
    root = Path(package_root).resolve()
    name = root_package or root.name
    index = PackageIndex(name)
    collectors: List[_ModuleCollector] = []
    for path in _iter_module_files(root):
        mod_name = _module_name(path, root, name)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as err:
            index.failures.append(
                SyntaxFailure(str(path), err.lineno or 1, err.msg or "syntax error")
            )
            continue
        except OSError as err:
            index.failures.append(SyntaxFailure(str(path), 1, str(err)))
            continue
        mod = ModuleInfo(name=mod_name, path=str(path), tree=tree, source=source)
        index.modules[mod_name] = mod
        collector = _ModuleCollector(index, mod, is_package=path.name == "__init__.py")
        collector.visit(tree)
        collectors.append(collector)
    for collector in collectors:
        collector.run_deferred_mines()
    return index
