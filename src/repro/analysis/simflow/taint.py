"""Pass 2 — interprocedural taint: sources to determinism sinks.

The syntactic SL rules fire only when a forbidden API is called directly
at the offending line.  This pass instead follows *values*:

sources
    wall-clock reads, OS/process entropy, global-state RNG draws,
    unblessed RNG construction, ``id()`` and builtin ``hash()``.
propagation
    assignments (flow-sensitive in statement order, branches unioned),
    arithmetic/formatting expressions, container literals, function
    returns (via per-function summaries run to a fixpoint), default
    argument values, and ``self.attr`` stores read back anywhere in the
    class.
sinks
    event posts and sim delays (``env.timeout``/``hold``/``_post``),
    sim-state writes (attribute stores in sim-coupled modules),
    ordering keys (``sorted``/``min``/``max``/``.sort`` keys, heap
    pushes), and ``repro.sim.rng(...)`` arguments.

A helper that launders a source — ``def jitter(): return time.time()``
— gets a summary saying "returns wall-clock taint", so every call site
inherits the taint; a helper whose *parameter* reaches a sink gets a
"param i flows to <sink>" summary entry, so passing a tainted argument
fires at the call site with the path through the helper named in the
message.  Both directions compose transitively through the fixpoint.

The fixpoint is a worklist.  Each walk of a function or module body
records the facts it read — callee summaries, ``(class, attr)``
attribute taint, ``(module, name)`` global taint — and the facts it
changed; a changed fact queues only its readers.  Findings come from
each body's last walk, which saw the final value of every fact it read.
"""

from __future__ import annotations

import ast
import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..rules import FLOW_RULES_BY_ID, Finding
from ..simlint import (
    _ENTROPY,
    _GLOBAL_RNG,
    _RNG_CONSTRUCTORS,
    _WALL_CLOCK,
    _is_sim_coupled,
)
from .graph import FunctionInfo, ModuleInfo, ProjectGraph, _dotted

__all__ = ["TaintAnalysis", "Summary"]

# Taint kinds (stable strings — they appear in messages and baselines).
WALL_CLOCK = "wall-clock"
ENTROPY = "entropy"
GLOBAL_RNG = "global-rng"
UNBLESSED_RNG = "unblessed-rng"
ID_ORDER = "id-order"
HASH_ORDER = "hash-order"

_ORDERING_KINDS = frozenset({ID_ORDER, HASH_ORDER, WALL_CLOCK, ENTROPY,
                             GLOBAL_RNG, UNBLESSED_RNG})

#: taint kind -> (origin description, origin line).  Param markers use
#: the pseudo-kind "param:<i>" with origin None.
Taint = Dict[str, Tuple[str, int]]

#: The blessed substream constructor (its *arguments* are an SF203 sink;
#: its return value is clean).
_BLESSED_RNG = {"repro.sim.rng.rng", "repro.sim.rng"}

#: Builtin calls whose result is simply as tainted as their arguments.
_SORT_FUNCS = {"sorted", "min", "max"}

#: Upper bound on worklist rounds; a round walks, in item order, every
#: body whose inputs changed since its last walk.
_MAX_ROUNDS = 8

#: A fact one walk reads or changes: ``("summary", qname)``,
#: ``("attr", class_qname, attr)`` or ``("global", module, name)``.
Fact = Tuple[str, ...]

#: One unit of the worklist: a function body or a module's top level.
Item = Union[FunctionInfo, ModuleInfo]


def _is_param(kind: str) -> bool:
    return kind.startswith("param:")


def _concrete(taint: Taint) -> Taint:
    return {k: v for k, v in taint.items() if not _is_param(k)}


def _merge(into: Taint, other: Taint) -> bool:
    """Union ``other`` into ``into``; True if anything new appeared."""
    changed = False
    for kind, origin in other.items():
        if kind not in into:
            into[kind] = origin
            changed = True
    return changed


@dataclass
class Summary:
    """Interprocedural facts about one function."""

    #: Taint kinds the return value may carry (param markers included).
    returns: Taint = field(default_factory=dict)
    #: param index -> {(rule_id, sink description)} reachable from it.
    param_sinks: Dict[int, FrozenSet[Tuple[str, str]]] = field(
        default_factory=dict
    )
    #: Class qname when the function returns a known-class instance.
    return_type: Optional[str] = None

    def snapshot(self) -> Tuple:
        return (
            frozenset(self.returns),
            frozenset((i, s) for i, ss in self.param_sinks.items() for s in ss),
            self.return_type,
        )


def _receiver_leaf(node: ast.AST) -> Optional[str]:
    """Final name of a call receiver: ``self.env.timeout`` -> "env"."""
    if isinstance(node, ast.Attribute):
        value = node.value
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Name):
            return value.id
    return None


class TaintAnalysis:
    """Runs the fixpoint over a :class:`ProjectGraph` and emits findings."""

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in graph.functions
        }
        #: (class_qname, attr) -> concrete taint stored there.
        self.attr_taint: Dict[Tuple[str, str], Taint] = {}
        #: (module_name, var) -> concrete taint of a module-level global.
        self.global_taint: Dict[Tuple[str, str], Taint] = {}
        #: class attr type map: (class_qname, attr) -> class qname.
        self.attr_types: Dict[str, Dict[str, str]] = {}
        self.sim_coupled: Dict[str, bool] = {}
        self.findings: List[Finding] = []
        self._prepare()

    # -- setup ----------------------------------------------------------------
    def _prepare(self) -> None:
        for mod in self.graph.modules.values():
            self.sim_coupled[mod.name] = _is_sim_coupled(mod.tree, mod.path)
            for cls in mod.classes.values():
                types: Dict[str, str] = {}
                for attr, dotted in cls.self_stores:
                    cinfo = self.graph.resolve_class(mod, dotted)
                    if cinfo is not None:
                        types[attr] = cinfo.qname
                self.attr_types[cls.qname] = types

    # -- fixpoint -------------------------------------------------------------
    def items(self) -> List[Item]:
        """Worklist order: module bodies by name, then functions by qname.

        Module bodies come first so a function walked in the same round
        reads the globals they bind (``START = time.time()``)."""
        mods: List[Item] = sorted(self.graph.modules.values(),
                                  key=lambda m: m.name)
        return mods + [self.graph.functions[q]
                       for q in sorted(self.graph.functions)]

    def run(self) -> List[Finding]:
        """Walk bodies until no fact changes (or the round cap).

        Each round walks its queued items in :meth:`items` order.  When a
        walk changes a fact, every body that has read it is queued: one
        later in this round's order runs in this round, any other (the
        walker itself included) in the next.  The walk sequence is that
        of repeating full rounds over :meth:`items`, minus walks whose
        inputs had not changed, so each body's last walk saw the final
        value of every fact it read and its findings are the findings."""
        items = self.items()
        readers: Dict[Fact, Set[int]] = {}
        last: List[List[Finding]] = [[] for _ in items]
        queue = list(range(len(items)))
        for _ in range(_MAX_ROUNDS):
            if not queue:
                break
            heapq.heapify(queue)
            queued = set(queue)
            next_round: Set[int] = set()
            while queue:
                i = heapq.heappop(queue)
                walker = self._walk(items[i])
                last[i] = walker.findings
                for fact in walker.reads:
                    readers.setdefault(fact, set()).add(i)
                for fact in walker.changed:
                    for j in readers.get(fact, ()):
                        if j <= i:
                            next_round.add(j)
                        elif j not in queued:
                            queued.add(j)
                            heapq.heappush(queue, j)
            queue = list(next_round)
        self.findings = [f for found in last for f in found]
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return self.findings

    def _walk(self, item: Item) -> "_FunctionTaint":
        """One taint walk of ``item``; the walker holds its reads, the
        facts it changed and its findings."""
        if isinstance(item, ModuleInfo):
            walker = _FunctionTaint(self, item, None, None)
            walker.run_block([
                s for s in item.tree.body
                if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
            ])
            for name, taint in walker.env.items():
                concrete = _concrete(taint)
                if concrete and _merge(
                    self.global_taint.setdefault((item.name, name), {}),
                    concrete,
                ):
                    walker.changed.add(("global", item.name, name))
            return walker
        summary = self.summaries[item.qname]
        before = summary.snapshot()
        walker = _FunctionTaint(self, item.module, item, summary)
        walker.seed_params()
        walker.run_block(item.node.body)
        if summary.snapshot() != before:
            walker.changed.add(("summary", item.qname))
        return walker


class _FunctionTaint:
    """One statement-ordered taint walk over a function (or module) body."""

    def __init__(
        self,
        analysis: TaintAnalysis,
        mod: ModuleInfo,
        info: Optional[FunctionInfo],
        summary: Optional[Summary],
    ) -> None:
        self.analysis = analysis
        self.graph = analysis.graph
        self.mod = mod
        self.info = info
        self.summary = summary
        self.reads: Set[Fact] = set()
        self.changed: Set[Fact] = set()
        self.findings: List[Finding] = []
        self.env: Dict[str, Taint] = {}
        self.local_types: Dict[str, str] = {}
        self.class_qname = info.class_qname if info is not None else None

    # -- parameter seeding ----------------------------------------------------
    def seed_params(self) -> None:
        assert self.info is not None
        args = self.info.node.args
        names = self.info.params
        for i, name in enumerate(names):
            self.env[name] = {f"param:{i}": ("", 0)}
        # Default argument values are evaluated at def time; a tainted
        # default taints the parameter for every call that omits it.
        pos = args.posonlyargs + args.args
        for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                args.defaults):
            taint = _concrete(self.taint_of(default))
            if taint:
                _merge(self.env.setdefault(arg.arg, {}), taint)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is None:
                continue
            taint = _concrete(self.taint_of(default))
            if taint:
                _merge(self.env.setdefault(arg.arg, {}), taint)

    # -- block / statement walk -----------------------------------------------
    def run_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def _branch(self, *blocks: Sequence[ast.stmt]) -> None:
        """Run each block on a copy of the env; union the results."""
        base = {k: dict(v) for k, v in self.env.items()}
        merged: Dict[str, Taint] = {k: dict(v) for k, v in base.items()}
        for block in blocks:
            self.env = {k: dict(v) for k, v in base.items()}
            self.run_block(block)
            for name, taint in self.env.items():
                _merge(merged.setdefault(name, {}), taint)
        self.env = merged

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # analyzed separately
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(node)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                taint = self.taint_of(node.value)
                if self.summary is not None:
                    _merge(self.summary.returns, taint)
                    rtype = self._type_of(node.value)
                    if rtype is not None:
                        self.summary.return_type = rtype
        elif isinstance(node, ast.If):
            self.taint_of(node.test)
            self._branch(node.body, node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_taint = self.taint_of(node.iter)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = dict(iter_taint)
            # Two rounds so loop-carried taint reaches first-line uses.
            self._branch(list(node.body) + list(node.body), node.orelse, [])
        elif isinstance(node, ast.While):
            self.taint_of(node.test)
            self._branch(list(node.body) + list(node.body), node.orelse, [])
        elif isinstance(node, ast.Try):
            self._branch(node.body, [])
            for handler in node.handlers:
                self._branch(handler.body, [])
            self.run_block(node.orelse)
            self.run_block(node.finalbody)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taint = self.taint_of(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = dict(taint)
            self.run_block(node.body)
        elif isinstance(node, ast.Expr):
            self.taint_of(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.taint_of(child)
        elif isinstance(node, (ast.Delete, ast.Global, ast.Nonlocal,
                               ast.Pass, ast.Break, ast.Continue,
                               ast.Import, ast.ImportFrom)):
            pass
        else:  # pragma: no cover - future statement kinds
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.taint_of(child)

    def _assign(self, node) -> None:
        if isinstance(node, ast.AugAssign):
            value_taint = self.taint_of(node.value)
            targets = [node.target]
            augment = True
        else:
            if node.value is None:
                return
            value_taint = self.taint_of(node.value)
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            augment = False
        vtype = self._type_of(node.value) if not augment else None
        for target in targets:
            self._bind(target, value_taint, vtype, augment, node)

    def _bind(self, target: ast.AST, taint: Taint, vtype: Optional[str],
              augment: bool, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            if augment:
                _merge(self.env.setdefault(target.id, {}), taint)
            else:
                self.env[target.id] = dict(taint)
                if vtype is not None:
                    self.local_types[target.id] = vtype
                else:
                    self.local_types.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, None, augment, stmt)
        elif isinstance(target, ast.Attribute):
            self._attr_store(target, taint, stmt)
        elif isinstance(target, ast.Subscript):
            self.taint_of(target.value)
            self.taint_of(target.slice)

    def _attr_store(self, target: ast.Attribute, taint: Taint,
                    stmt: ast.stmt) -> None:
        concrete = _concrete(taint)
        # Record self.<attr> taint for class-wide reads.
        if (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.class_qname is not None
            and concrete
        ):
            slot = self.analysis.attr_taint.setdefault(
                (self.class_qname, target.attr), {}
            )
            if _merge(slot, concrete):
                self.changed.add(("attr", self.class_qname, target.attr))
        # SF201: sim-state write of a nondeterministic value.
        if concrete and self.analysis.sim_coupled.get(self.mod.name):
            self._report(
                "SF201", stmt,
                f"attribute store `{ast.unparse(target)}`", concrete,
            )

    # -- expression taint ------------------------------------------------------
    def taint_of(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            taint = dict(self.env.get(node.id, {}))
            self.reads.add(("global", self.mod.name, node.id))
            g = self.analysis.global_taint.get((self.mod.name, node.id))
            if g:
                _merge(taint, g)
            return taint
        if isinstance(node, ast.Constant):
            return {}
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self" \
                    and self.class_qname is not None:
                self.reads.add(("attr", self.class_qname, node.attr))
                stored = self.analysis.attr_taint.get(
                    (self.class_qname, node.attr)
                )
                return dict(stored) if stored else {}
            return self.taint_of(node.value)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Lambda):
            return {}
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            taint: Taint = {}
            for gen in node.generators:
                _merge(taint, self.taint_of(gen.iter))
            if isinstance(node, ast.DictComp):
                _merge(taint, self.taint_of(node.key))
                _merge(taint, self.taint_of(node.value))
            else:
                _merge(taint, self.taint_of(node.elt))
            return taint
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            return self.taint_of(node.value) if node.value is not None else {}
        if isinstance(node, ast.NamedExpr):
            taint = self.taint_of(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = dict(taint)
            return taint
        # Generic expression: union over child expressions.
        taint = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                _merge(taint, self.taint_of(child))
        return taint

    def _type_of(self, node: ast.expr) -> Optional[str]:
        """Class qname of an expression, when statically knowable."""
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                cinfo = self.graph.resolve_class(self.mod, dotted)
                if cinfo is not None:
                    return cinfo.qname
            target = self.graph.resolve_call_target(
                self.mod, node.func, self.class_qname,
                self.local_types, self.analysis.attr_types.get(
                    self.class_qname or "", {}
                ),
            )
            if target is not None:
                return self._callee(target).return_type
        elif isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        return None

    # -- calls: sources, summaries, sinks --------------------------------------
    def _resolved_dotted(self, func: ast.AST) -> Optional[str]:
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        full = self.mod.aliases.get(head, head)
        return f"{full}.{rest}" if rest else full

    def _call(self, node: ast.Call) -> Taint:
        arg_taints = [self.taint_of(a) for a in node.args]
        kw_taints = {kw.arg: self.taint_of(kw.value) for kw in node.keywords}
        resolved = self._resolved_dotted(node.func)
        line = node.lineno

        # Sources.
        if resolved in _WALL_CLOCK:
            return {WALL_CLOCK: (f"{resolved}()", line)}
        if resolved in _ENTROPY:
            return {ENTROPY: (f"{resolved}()", line)}
        if resolved in _GLOBAL_RNG:
            return {GLOBAL_RNG: (f"{resolved}()", line)}
        if resolved in _RNG_CONSTRUCTORS:
            return {UNBLESSED_RNG: (f"{resolved}()", line)}
        if isinstance(node.func, ast.Name) and not node.keywords:
            if node.func.id == "id" and "id" not in self.mod.aliases:
                return {ID_ORDER: ("id()", line)}
            if node.func.id == "hash" and "hash" not in self.mod.aliases:
                return {HASH_ORDER: ("hash()", line)}

        # Sinks checked before generic propagation.
        self._check_sinks(node, resolved, arg_taints, kw_taints)

        # Blessed constructor: returns a clean, named substream.
        canonical = self.graph._canonical(resolved) if resolved else None
        if canonical in _BLESSED_RNG:
            return {}

        # Project-internal call: apply the callee summary.
        target = self.graph.resolve_call_target(
            self.mod, node.func, self.class_qname,
            self.local_types,
            self.analysis.attr_types.get(self.class_qname or "", {}),
        )
        if target is not None:
            return self._apply_summary(node, target, arg_taints, kw_taints)

        # Unknown call: result is as tainted as its arguments (catches
        # laundering through str(), math helpers, formatting, ...).
        taint: Taint = {}
        for t in arg_taints:
            _merge(taint, t)
        for t in kw_taints.values():
            _merge(taint, t)
        _merge(taint, self.taint_of(node.func) if isinstance(
            node.func, ast.Attribute) else {})
        return taint

    def _arg_index_map(
        self, node: ast.Call, target: FunctionInfo,
        arg_taints: List[Taint], kw_taints: Dict[Optional[str], Taint],
    ) -> List[Tuple[int, Taint, ast.expr]]:
        """(callee param index, taint, arg node) for each call argument."""
        params = target.params
        offset = 0
        if target.class_qname is not None and params and params[0] == "self" \
                and isinstance(node.func, ast.Attribute):
            offset = 1
        out: List[Tuple[int, Taint, ast.expr]] = []
        for i, (taint, arg) in enumerate(zip(arg_taints, node.args)):
            out.append((i + offset, taint, arg))
        for kw, taint in kw_taints.items():
            if kw is not None and kw in params:
                out.append((params.index(kw), taint,
                            next(k.value for k in node.keywords
                                 if k.arg == kw)))
        return out

    def _apply_summary(
        self, node: ast.Call, target: FunctionInfo,
        arg_taints: List[Taint], kw_taints: Dict[Optional[str], Taint],
    ) -> Taint:
        callee = self._callee(target)
        mapped = self._arg_index_map(node, target, arg_taints, kw_taints)
        result: Taint = {}
        for kind, origin in callee.returns.items():
            if _is_param(kind):
                idx = int(kind.split(":", 1)[1])
                for (i, taint, _a) in mapped:
                    if i == idx:
                        _merge(result, taint)
            else:
                _merge(result, {kind: origin})
        # Param-to-sink laundering: a tainted argument reaches a sink
        # inside the callee (possibly transitively).
        for (i, taint, arg) in mapped:
            sinks = callee.param_sinks.get(i)
            if not sinks:
                continue
            concrete = _concrete(taint)
            for rule_id, descr in sorted(sinks):
                if concrete:
                    self._report(
                        rule_id, arg, f"{descr} via {target.qname}()",
                        concrete,
                    )
                else:
                    # Propagate to our own params for transitivity.
                    self._record_param_sinks(taint, rule_id, descr)
        return result

    def _callee(self, target: FunctionInfo) -> Summary:
        """``target``'s summary, recorded as a fact this walk read."""
        self.reads.add(("summary", target.qname))
        return self.analysis.summaries[target.qname]

    # -- sink checks -----------------------------------------------------------
    def _record_param_sinks(self, taint: Taint, rule_id: str,
                            descr: str) -> None:
        if self.summary is None:
            return
        for kind in taint:
            if _is_param(kind):
                idx = int(kind.split(":", 1)[1])
                have = set(self.summary.param_sinks.get(idx, frozenset()))
                have.add((rule_id, descr))
                self.summary.param_sinks[idx] = frozenset(have)

    def _sink(self, rule_id: str, descr: str, node: ast.AST,
              taint: Taint) -> None:
        concrete = _concrete(taint)
        if concrete:
            self._report(rule_id, node, descr, concrete)
        self._record_param_sinks(taint, rule_id, descr)

    def _check_sinks(
        self, node: ast.Call, resolved: Optional[str],
        arg_taints: List[Taint], kw_taints: Dict[Optional[str], Taint],
    ) -> None:
        func = node.func
        meth = func.attr if isinstance(func, ast.Attribute) else None
        leaf = _receiver_leaf(func) if meth is not None else None
        recv_name = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            recv_name = func.value.id

        # SF200 — event post / sim delay arguments.
        is_timeout = meth == "timeout" and (
            recv_name == "env" or leaf == "env"
            or (recv_name is not None
                and self.local_types.get(recv_name, "").endswith("Environment"))
        )
        is_hold = meth == "hold"
        is_post = meth in {"_post", "_post_at"} and (
            recv_name == "env" or leaf == "env"
        )
        if is_timeout or is_hold or is_post:
            where = f"{ast.unparse(func)}()"
            for taint, arg in zip(arg_taints, node.args):
                self._sink("SF200", f"event post {where}", arg, taint)
            for kw in node.keywords:
                if kw.arg in {"delay", "duration", "time"}:
                    self._sink("SF200", f"event post {where}", kw.value,
                               kw_taints[kw.arg])

        # SF202 — ordering keys.
        sort_like = (
            (isinstance(func, ast.Name) and func.id in _SORT_FUNCS)
            or meth == "sort"
        )
        if sort_like:
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                key = kw.value
                key_taint: Taint = {}
                if isinstance(key, ast.Lambda):
                    key_taint = self.taint_of(key.body)
                else:
                    ktarget = self.graph.resolve_call_target(
                        self.mod, key, self.class_qname, self.local_types,
                        self.analysis.attr_types.get(self.class_qname or "", {}),
                    )
                    if ktarget is not None:
                        key_taint = dict(_concrete(
                            self._callee(ktarget).returns
                        ))
                key_taint = {k: v for k, v in key_taint.items()
                             if _is_param(k) or k in _ORDERING_KINDS}
                self._sink(
                    "SF202",
                    f"ordering key of {ast.unparse(func)}()", key, key_taint,
                )
        if resolved in {"heapq.heappush", "heapq.heappushpop"} \
                and len(arg_taints) >= 2:
            key_taint = {k: v for k, v in arg_taints[1].items()
                         if _is_param(k) or k in _ORDERING_KINDS}
            self._sink("SF202", "heap ordering (heapq.heappush)",
                       node.args[1], key_taint)

        # SF203 — rng(...) argument material.
        canonical = self.graph._canonical(resolved) if resolved else None
        if canonical in _BLESSED_RNG:
            for taint, arg in zip(arg_taints, node.args):
                self._sink("SF203", "repro.sim.rng() seed material",
                           arg, taint)
            for kw in node.keywords:
                self._sink("SF203", "repro.sim.rng() seed material",
                           kw.value, kw_taints[kw.arg])

    # -- reporting -------------------------------------------------------------
    def _report(self, rule_id: str, node: ast.AST, descr: str,
                concrete: Taint) -> None:
        kinds = sorted(concrete)
        origins = "; ".join(
            f"{concrete[k][0]} @ line {concrete[k][1]}" if concrete[k][1]
            else concrete[k][0]
            for k in kinds
        )
        where = self.info.qname if self.info is not None \
            else f"{self.mod.name} (module scope)"
        rule = FLOW_RULES_BY_ID[rule_id]
        self.findings.append(Finding(
            path=self.mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=(
                f"{'/'.join(kinds)} value reaches {descr} "
                f"in {where} [source: {origins}]"
            ),
            hint=rule.hint,
        ))
