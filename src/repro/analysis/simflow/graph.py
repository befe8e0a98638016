"""Pass 1 — the project graph: modules, symbols, imports, call edges.

simflow's interprocedural passes need three whole-program maps that the
per-file ``simlint`` pass cannot build:

* a **module graph** (who imports whom), for the ``--changed``
  reachability pruning and for resolving ``from ..sim import Resource``
  style relative imports;
* a **symbol table** of every function, method, and class, keyed by
  qualified name (``repro.sim.resources.Resource.hold``), with one-level
  re-export resolution so ``from ..sim import rng`` lands on
  ``repro.sim.rng.rng``;
* a best-effort **call resolver** mapping a call expression inside one
  function to the qualified name of its target, via the module's alias
  table, ``self.<method>`` lookup with base-class walking, and a
  lightweight type map for locals/attributes bound to known-class
  constructor calls.

Everything is plain ``ast`` — no imports are executed, so the analyzer
is safe to run on broken or hostile input.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

__all__ = ["ModuleInfo", "FunctionInfo", "ClassInfo", "ProjectGraph"]


def _module_name(path: Path) -> str:
    """Dotted module name for ``path`` (anchored at a ``src`` dir or
    the first ``repro`` segment; falls back to the stem)."""
    parts = list(path.parts)
    name_parts: List[str] = []
    anchor = None
    if "src" in parts:
        anchor = parts.index("src") + 1
    elif "repro" in parts:
        anchor = parts.index("repro")
    if anchor is not None and anchor < len(parts):
        name_parts = list(parts[anchor:])
    else:
        name_parts = [parts[-1]]
    if name_parts[-1].endswith(".py"):
        name_parts[-1] = name_parts[-1][: -len(".py")]
    if name_parts[-1] == "__init__":
        name_parts.pop()
    return ".".join(name_parts) if name_parts else path.stem


@dataclass
class FunctionInfo:
    """One function or method, with its defining context."""

    qname: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    module: "ModuleInfo"
    class_qname: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class: methods, base-class names and its ``self.<attr>`` uses.

    The attribute facts cover the whole class node, nested classes
    included, and come from one walk in :meth:`ProjectGraph.build`.
    """

    qname: str
    node: ast.ClassDef
    module: "ModuleInfo"
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: every ``self.<attr>`` name read or written in the class.
    self_attrs: Set[str] = field(default_factory=set)
    #: ``(attr, dotted)`` for each ``self.<attr> = <dotted>(...)``, in
    #: walk order (unresolved: the class table is not complete yet).
    self_stores: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    name: str
    tree: ast.Module
    source: str
    #: local alias -> fully qualified dotted target ("np" -> "numpy",
    #: "Resource" -> "repro.sim.resources.Resource" after resolution).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: project-internal module names this module imports.
    imports: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def _resolve_relative(module_name: str, is_package: bool, level: int,
                      target: str) -> str:
    """Absolute module name for a ``from ...target import x`` statement."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]  # the containing package
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


class ProjectGraph:
    """Whole-program symbol/call/import graph over a set of files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.parse_errors: List[Tuple[str, str]] = []

    # -- construction ---------------------------------------------------------
    @classmethod
    def build(cls, paths: Sequence[Union[str, Path]]) -> "ProjectGraph":
        graph = cls()
        for f in _expand(paths):
            graph._add_file(f)
        graph._link()
        return graph

    def _add_file(self, path: Path) -> None:
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError) as exc:
            self.parse_errors.append((str(path), str(exc)))
            return
        name = _module_name(path)
        mod = ModuleInfo(path=str(path), name=name, tree=tree, source=source)
        is_package = path.name == "__init__.py"
        for node in _statements(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.partition(".")[0]
                    mod.aliases[local] = target
                    mod.imports.append(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    base = _resolve_relative(
                        name, is_package, node.level, node.module or ""
                    )
                mod.imports.append(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mod.aliases[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        self._collect_defs(mod, tree.body, prefix=name, class_qname=None)
        self.modules[name] = mod
        self.by_path[str(path)] = mod

    def _collect_defs(self, mod: ModuleInfo, body: Iterable[ast.stmt],
                      prefix: str, class_qname: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                info = FunctionInfo(
                    qname=qname, node=node, module=mod,
                    class_qname=class_qname,
                )
                mod.functions[qname] = info
                self.functions[qname] = info
                if class_qname is not None:
                    self.classes[class_qname].methods[node.name] = info
                # Nested defs: collected for completeness (rare here).
                self._collect_defs(mod, node.body, qname, class_qname)
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                cinfo = ClassInfo(qname=qname, node=node, module=mod)
                for base in node.bases:
                    dotted = _dotted(base)
                    if dotted:
                        cinfo.bases.append(dotted)
                _scan_self_attrs(cinfo)
                mod.classes[qname] = cinfo
                self.classes[qname] = cinfo
                self._collect_defs(mod, node.body, qname, qname)

    def _link(self) -> None:
        """Resolve alias targets through one level of re-exports and
        keep only project-internal import edges."""
        for mod in self.modules.values():
            resolved: Dict[str, str] = {}
            for local, target in mod.aliases.items():
                resolved[local] = self._canonical(target)
            mod.aliases = resolved
            mod.imports = sorted({
                imp for imp in (self._canonical_module(i) for i in mod.imports)
                if imp is not None
            })

    def _canonical(self, dotted: str, depth: int = 0) -> str:
        """Follow ``repro.sim.Resource`` through package re-exports to
        ``repro.sim.resources.Resource`` (bounded depth)."""
        if depth > 4:
            return dotted
        if dotted in self.functions or dotted in self.classes \
                or dotted in self.modules:
            return dotted
        prefix, _, attr = dotted.rpartition(".")
        if not prefix:
            return dotted
        pkg = self.modules.get(prefix)
        if pkg is not None and attr in pkg.aliases:
            return self._canonical(pkg.aliases[attr], depth + 1)
        return dotted

    def _canonical_module(self, name: str) -> Optional[str]:
        """Project-internal module for an import target, else None."""
        while name:
            if name in self.modules:
                return name
            name = name.rpartition(".")[0]
        return None

    # -- queries --------------------------------------------------------------
    def importers_of(self, module_name: str) -> List[str]:
        return sorted(
            m.name for m in self.modules.values()
            if module_name in m.imports
        )

    def resolve_class(self, mod: ModuleInfo, dotted: str) -> Optional[ClassInfo]:
        """Class named ``dotted`` as seen from ``mod`` (alias-expanded)."""
        head, _, rest = dotted.partition(".")
        full = mod.aliases.get(head, head)
        full = f"{full}.{rest}" if rest else full
        full = self._canonical(full)
        if full in self.classes:
            return self.classes[full]
        # A name defined in the same module.
        local = f"{mod.name}.{dotted}"
        return self.classes.get(local)

    def method_on(self, class_qname: str, method: str,
                  depth: int = 0) -> Optional[FunctionInfo]:
        """Find ``method`` on the class or (recursively) its bases."""
        cinfo = self.classes.get(class_qname)
        if cinfo is None or depth > 8:
            return None
        if method in cinfo.methods:
            return cinfo.methods[method]
        for base in cinfo.bases:
            base_info = self.resolve_class(cinfo.module, base)
            if base_info is not None:
                found = self.method_on(base_info.qname, method, depth + 1)
                if found is not None:
                    return found
        return None

    def resolve_call_target(
        self, mod: ModuleInfo, func: ast.AST,
        self_class: Optional[str] = None,
        local_types: Optional[Dict[str, str]] = None,
        attr_types: Optional[Dict[str, str]] = None,
    ) -> Optional[FunctionInfo]:
        """Best-effort resolution of a call's target FunctionInfo.

        ``self_class`` is the enclosing class qname (for ``self.m()``),
        ``local_types``/``attr_types`` map local variable / ``self.attr``
        names to class qnames inferred from constructor assignments.
        """
        # self.method(...) — look on the class and its bases.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            recv, meth = func.value.id, func.attr
            if recv == "self" and self_class is not None:
                found = self.method_on(self_class, meth)
                if found is not None:
                    return found
            if local_types and recv in local_types:
                found = self.method_on(local_types[recv], meth)
                if found is not None:
                    return found
        # self.attr.method(...) — typed attribute receiver.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and attr_types and func.value.attr in attr_types
        ):
            found = self.method_on(attr_types[func.value.attr], func.attr)
            if found is not None:
                return found
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        full = mod.aliases.get(head, head)
        full = f"{full}.{rest}" if rest else full
        full = self._canonical(full)
        if full in self.functions:
            return self.functions[full]
        # Module-local call: f() defined at module scope.
        local = self._canonical(f"{mod.name}.{dotted}")
        if local in self.functions:
            return self.functions[local]
        # ClassName(...) constructor -> __init__ is handled by callers
        # via resolve_class; a plain function is all we resolve here.
        return None

    def __repr__(self) -> str:
        return (
            f"<ProjectGraph modules={len(self.modules)} "
            f"functions={len(self.functions)} classes={len(self.classes)}>"
        )


#: Nodes that can hold statements; expressions never do.
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def _statements(tree: ast.Module) -> Iterator[ast.AST]:
    """``ast.walk(tree)`` restricted to statements (plus handlers and
    match cases), in the same order, without entering expressions."""
    queue: deque = deque([tree])
    while queue:
        node = queue.popleft()
        yield node
        queue.extend(c for c in ast.iter_child_nodes(node)
                     if isinstance(c, _BLOCKS))


def _scan_self_attrs(cinfo: ClassInfo) -> None:
    """Fill ``cinfo.self_attrs`` and ``cinfo.self_stores`` in one walk."""
    for node in ast.walk(cinfo.node):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                cinfo.self_attrs.add(node.attr)
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        else:
            continue
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and isinstance(value, ast.Call)
        ):
            dotted = _dotted(value.func)
            if dotted is not None:
                cinfo.self_stores.append((target.attr, dotted))


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _expand(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            # Directory walks skip `fixtures/` — those files are linter
            # *input* (deliberately broken), not project code.  Naming a
            # fixture file explicitly still analyzes it.
            files.extend(
                f for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
                and "fixtures" not in f.parts
            )
        else:
            files.append(p)
    # De-dup while preserving order.
    seen: Dict[str, None] = {}
    out: List[Path] = []
    for f in files:
        key = str(f)
        if key not in seen:
            seen[key] = None
            out.append(f)
    return out
