"""Interprocedural effect & parallel-safety analyzer (codes E1-E5).

The PR-1 hazard detector proves the declared ``SimTask.reads``/``writes``
sets are *consistent* with the emitted dependencies — but it trusts the
declarations.  Before the task DAG is handed to a real shared-memory
backend, an undeclared write stops being a simulator artifact and
becomes a silent data race.  This module closes the loop statically: it
infers each function's actual effects from the AST, propagates them
bottom-up through the call graph with fixed-point iteration on cycles,
and cross-checks the inferred effects against the declared contracts.

Per-function **effect summaries** (:class:`FunctionEffects`) record:

* parameters mutated in place — subscript/attribute stores (``x[...] =``,
  ``p.attr = ...``), augmented assignment through views, known mutator
  methods (``.sort()``, ``.fill()``, ``.append()``, ...), ``out=``
  keyword aliasing, and ``np.<ufunc>.at`` / ``np.copyto`` families —
  including mutation through local aliases of a parameter;
* module-global reads and writes (only *mutable* module state counts);
* whether the return value aliases a parameter (borrowed buffer) or is
  a fresh allocation;
* whether the function (transitively) emits scheduler tasks.

Finding classes::

    E0  malformed ``# effects:`` pin or @effects declaration
    E1  a task-emission site whose declared read/write key families
        miss an inferred block access in the emitting region (or that
        declares a family the module never touches)
    E2  a function declared pure (or with a declared mutates-set) via
        @repro.contracts.effects mutates a caller-visible parameter
        outside the declaration
    E3  process-unsafety for a real worker-pool backend: a kernel
        function writes mutable module-global state, or a locally
        defined closure/lambda is passed to a task-dispatch entry point
        (unpicklable payload)
    E4  a task emitted inside a loop whose declared write keys do not
        vary with the loop variable — two same-schedule-level tasks
        would declare identical (non-disjoint) write sets; also the
        plan-level audits below
    E5  numpy in-place misuse: ``out=`` aliasing an input operand of a
        non-elementwise routine, or augmented assignment through a
        broadcast view

Comment pins (real COMMENT tokens, module-wide scope)::

    # effects: blocks A=A Lb=L|LU Ub=U|LU   map block-store variables to
                                            the declared key families
    # effects: emitter builder em new_task  names whose ``.add(...)`` /
                                            ``name(...)`` calls emit tasks
    # effects: dispatch my_pool_map         extra E3 dispatch entry points
    # effects: ordered                      (trailing) this emission line
                                            is serialized across loop
                                            iterations by its deps — E4 off
    # effects: global-ok                    (trailing, read by lint R6 and
                                            E3) sanctioned module state

E1 is deliberately *regional*: an inferred access is attributed to the
closest following emission statement within the same statement list
(``if``/``with`` bodies are transparent; loop bodies and statements that
call into other task-emitting functions reset the region).  Anything the
analyzer cannot resolve — declared key lists built by helpers, emission
wrappers forwarding parameters — makes the corresponding check *open*
and silent, so an unannotated module produces no false positives.

Plan-level E4 complements the AST rule for the compiled replay plans of
:mod:`repro.sparse.schedule`: :func:`audit_triangular_schedule` and
:func:`audit_refactor_schedule` (from :mod:`repro.analysis.plans`)
verify that within every level/stage the finalized columns are unique
and the post-grouping scatter targets are pairwise disjoint (the
symbolic precondition for running a level's gather/scatter in
parallel).

The checker is a pass over the shared :mod:`repro.analysis.core` index;
E3's module-state half uses the same detector as lint R6.  Entry points
mirror :mod:`repro.analysis.domains`:
:func:`check_effects_source`, :func:`check_effects_paths` (fixtures;
treated as kernel modules), :func:`check_effects_tree` (the CI gate,
``python -m repro analyze effects``) and
:func:`collect_effect_summaries` (the differential soundness tests).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import core
from .core import PROCESS_DIRS, call_name as _call_name, walk_own as _walk_own
from .plans import audit_refactor_schedule, audit_triangular_schedule

__all__ = [
    "EffectFinding",
    "FunctionEffects",
    "check_effects_source",
    "check_effects_paths",
    "check_effects_tree",
    "collect_effect_summaries",
    "audit_triangular_schedule",
    "audit_refactor_schedule",
    "summary_for",
]

# Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "sort", "fill", "append", "extend", "insert", "remove", "clear",
    "update", "add", "setdefault", "discard", "pop", "popitem",
    "itemset", "resize", "byteswap",
}
# ``np.<name>(dst, ...)`` routines that mutate their first argument.
_NP_ARG0_MUTATORS = {"copyto", "put", "place", "putmask", "fill_diagonal"}
# Callees for which ``out=`` aliasing an input operand is undefined
# behaviour (non-elementwise: the kernel reads operands after writing
# out).  Elementwise ufuncs like ``np.add(x, y, out=x)`` are fine.
_E5_UNSAFE_OUT = {
    "dot", "matmul", "einsum", "tensordot", "outer", "cross",
    "convolve", "correlate", "solve", "inv",
}
_BROADCAST_MAKERS = {"broadcast_to", "as_strided"}
# ``fn(payload, items)`` entry points that may ship the payload to a
# worker process (defaults; the dispatch pin adds more).
_DEFAULT_DISPATCH = {"parallel_map"}
# Value expressions that alias argument 0 (may return the same buffer).
_ALIAS_ARG0_CALLS = {"asarray", "asanyarray", "ascontiguousarray", "require"}

# Emission kwargs: read-side and write-side key lists.
_READ_KWARGS = ("reads", "chunk_reads")
_WRITE_KWARGS = ("writes", "final_writes")


EffectFinding = core.Finding


@dataclass
class FunctionEffects:
    """Inferred effect summary of one function (after propagation)."""

    name: str
    path: str
    line: int
    params: Tuple[str, ...]
    is_method: bool
    mutates: Dict[str, int] = field(default_factory=dict)   # param -> line
    global_reads: Set[str] = field(default_factory=set)
    global_writes: Dict[str, int] = field(default_factory=dict)
    returns_params: Set[str] = field(default_factory=set)   # borrowed buffers
    allocates: bool = False
    emits: bool = False
    calls: List["_CallRef"] = field(default_factory=list)
    declared: Optional[dict] = None   # parsed @effects(...) declaration
    # global writes performed by this function's own statements (the
    # pre-propagation snapshot E3a reports on; ``global_writes`` also
    # accumulates transitive writes during propagation)
    local_global_writes: Dict[str, int] = field(default_factory=dict)

    def signature(self):
        return (
            self.params,
            frozenset(self.mutates),
            frozenset(self.global_writes),
            frozenset(self.global_reads),
            self.emits,
        )


@dataclass
class _CallRef:
    """A call site with arguments pre-resolved to caller-param roots."""

    name: str
    line: int
    recv_roots: FrozenSet[str]
    arg_roots: Tuple[FrozenSet[str], ...]
    kw_roots: Dict[str, FrozenSet[str]]


@dataclass
class _ModulePins:
    blocks: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    emitters: Set[str] = field(default_factory=set)
    dispatch: Set[str] = field(default_factory=set)
    ordered_lines: Set[int] = field(default_factory=set)


def _scan_pins(module: core.Module, findings: List[EffectFinding]) -> _ModulePins:
    """Collect the module's ``# effects:`` pins."""
    pins = _ModulePins()
    relpath = module.relpath
    for lineno, text in module.pins("effects"):
        payload = text.split()
        if not payload:
            continue
        kind, rest = payload[0], payload[1:]
        if kind == "blocks":
            ok = bool(rest)
            for item in rest:
                if "=" not in item:
                    ok = False
                    continue
                name, _, fams = item.partition("=")
                fams_set = frozenset(f for f in fams.split("|") if f)
                if not name or not fams_set:
                    ok = False
                    continue
                pins.blocks[name] = pins.blocks.get(name, frozenset()) | fams_set
            if not ok:
                findings.append(EffectFinding(
                    relpath, lineno, "E0",
                    "malformed '# effects: blocks' pin (expected NAME=FAM[|FAM...] ...)"))
        elif kind == "emitter":
            if rest:
                pins.emitters.update(rest)
            else:
                findings.append(EffectFinding(
                    relpath, lineno, "E0", "'# effects: emitter' names no emitters"))
        elif kind == "dispatch":
            if rest:
                pins.dispatch.update(rest)
            else:
                findings.append(EffectFinding(
                    relpath, lineno, "E0", "'# effects: dispatch' names no functions"))
        elif kind == "ordered":
            pins.ordered_lines.add(lineno)
        elif kind != "global-ok":  # global-ok is read by core.mutable_state
            findings.append(EffectFinding(
                relpath, lineno, "E0",
                "unknown '# effects:' pin kind %r" % kind))
    return pins


def _base_name(node: ast.expr) -> Optional[str]:
    """Peel subscripts/attributes (and alias-preserving calls) down to
    the root ``Name`` — ``F[s][:w, :]`` -> ``F``, ``numeric.cache`` ->
    ``numeric``, ``np.asarray(x)`` -> ``x``."""
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call) and node.args \
                and _call_name(node) in _ALIAS_ARG0_CALLS:
            node = node.args[0]
        else:
            return None


def _parse_effects_decorator(
    node: ast.AST, relpath: str, findings: List[EffectFinding]
) -> Optional[dict]:
    for dec in core.decorators(node, "effects")[:1]:
        pure = False
        mutates: List[str] = []
        ok = True
        for kw in dec.keywords:
            if kw.arg == "pure":
                if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, bool):
                    pure = kw.value.value
                else:
                    ok = False
            elif kw.arg == "mutates":
                if isinstance(kw.value, (ast.Tuple, ast.List)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in kw.value.elts
                ):
                    mutates = [e.value for e in kw.value.elts]
                else:
                    ok = False
            else:
                ok = False
        if not ok:
            findings.append(EffectFinding(
                relpath, dec.lineno, "E0",
                "@effects accepts pure=<bool literal> and "
                "mutates=<tuple of string literals> only"))
            return None
        return {"pure": pure, "mutates": tuple(mutates), "line": dec.lineno}
    return None


# ---------------------------------------------------------------------------
# Per-module parse


@dataclass
class _ModuleInfo:
    relpath: str
    pins: _ModulePins
    kernel: bool = False   # in PROCESS_DIRS (or an explicit target): E3 applies
    mutable_globals: Dict[str, int] = field(default_factory=dict)  # name -> def line
    functions: List[Tuple[ast.AST, FunctionEffects]] = field(default_factory=list)
    accessed_families: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Per-function effect collection


class _FnCollector:
    """One in-order pass over a function body: local effects, aliasing,
    call refs, and the purely local finding classes (E3b, E5)."""

    def __init__(
        self,
        fn: ast.AST,
        info: _ModuleInfo,
        findings: List[EffectFinding],
        kernel: bool,
    ) -> None:
        self.fn = fn
        self.info = info
        self.findings = findings
        self.kernel = kernel
        params = core.function_params(fn)
        self.eff = FunctionEffects(
            name=fn.name, path=info.relpath, line=fn.lineno, params=params,
            is_method=bool(params) and params[0] in ("self", "cls"),
            declared=_parse_effects_decorator(fn, info.relpath, findings),
        )
        self.locals: Set[str] = set(params)
        for node in _walk_own(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
                self.locals.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    self.locals.add(alias.asname or alias.name.split(".")[0])
        # comprehension targets are scoped, but treating them as locals
        # only makes the analysis more conservative about globals
        self.param_alias: Dict[str, Set[str]] = {}
        self.broadcast_names: Set[str] = set()
        self.nested_defs: Set[str] = set()
        self.declared_globals: Set[str] = set()
        self.dispatch_names = _DEFAULT_DISPATCH | info.pins.dispatch

    # -- roots ----------------------------------------------------------

    def _param_roots(self, name: Optional[str]) -> FrozenSet[str]:
        if name is None:
            return frozenset()
        if name in self.eff.params:
            return frozenset((name,))
        return frozenset(self.param_alias.get(name, ()))

    def _value_roots(self, value: ast.expr) -> Set[str]:
        """Param roots a bound value may alias.  Conditional binding
        idioms — ``led = ledger if ledger is not None else CostLedger()``
        and ``led = ledger or CostLedger()`` — alias the parameter on
        one branch, so the union over branches keeps mutation tracking
        sound."""
        if isinstance(value, ast.IfExp):
            return self._value_roots(value.body) | self._value_roots(value.orelse)
        if isinstance(value, ast.BoolOp):
            out: Set[str] = set()
            for v in value.values:
                out |= self._value_roots(v)
            return out
        if _copies_value(value):
            return set()
        return set(self._param_roots(_base_name(value)))

    def _mutate_name(self, name: Optional[str], line: int) -> None:
        if name is None:
            return
        for p in self._param_roots(name):
            self.eff.mutates.setdefault(p, line)
        if name in self.declared_globals or (
            name not in self.locals and name in self.info.mutable_globals
        ):
            self.eff.global_writes.setdefault(name, line)

    # -- statements -----------------------------------------------------

    def run(self) -> FunctionEffects:
        self._body(self.fn.body)
        self.eff.local_global_writes = dict(self.eff.global_writes)
        return self.eff

    def _body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested_defs.add(stmt.name)
            return  # nested defs are collected as their own functions
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Global):
            self.declared_globals.update(stmt.names)
            return
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for t in stmt.targets:
                self._target(t, stmt.value, stmt.lineno)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
                self._target(stmt.target, stmt.value, stmt.lineno)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            t = stmt.target
            if isinstance(t, ast.Name):
                # plain ``name += expr`` rebinds (ints, float counters);
                # only flag broadcast views (E5b has no other shape here)
                if t.id in self.broadcast_names:
                    self._report(stmt.lineno, "E5",
                                 "augmented assignment to broadcast view %r "
                                 "(silently writes through shared strides)" % t.id)
                if t.id in self.declared_globals:
                    self.eff.global_writes.setdefault(t.id, stmt.lineno)
            elif isinstance(t, (ast.Subscript, ast.Attribute)):
                self._mutate_name(_base_name(t), stmt.lineno)
                if isinstance(t, ast.Subscript):
                    root = _base_name(t.value)
                    if root in self.broadcast_names:
                        self._report(stmt.lineno, "E5",
                                     "augmented assignment through broadcast view %r" % root)
                self._expr_sub(t)
            return
        if isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, (ast.Subscript, ast.Attribute)):
                    self._mutate_name(_base_name(t), stmt.lineno)
            return
        if isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
                base = _base_name(stmt.value)
                roots = self._param_roots(base)
                if roots:
                    self.eff.returns_params.update(roots)
                elif isinstance(stmt.value, (ast.Call, ast.Tuple, ast.List,
                                             ast.Dict, ast.BinOp)):
                    self.eff.allocates = True
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test)
            self._body(stmt.body)
            self._body(stmt.orelse)
            return
        if isinstance(stmt, ast.For):
            self._expr(stmt.iter)
            self._body(stmt.body)
            self._body(stmt.orelse)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._expr(item.context_expr)
            self._body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self._body(stmt.body)
            for h in stmt.handlers:
                self._body(h.body)
            self._body(stmt.orelse)
            self._body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Assert, ast.Raise)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.expr):
                    self._expr(sub)
            return
        # pass/break/continue/import: inert (imports already in locals)

    def _target(self, t: ast.expr, value: ast.expr, line: int) -> None:
        if isinstance(t, ast.Name):
            if t.id in self.declared_globals:
                self.eff.global_writes.setdefault(t.id, line)
            # alias bookkeeping: Name = <view of param> / broadcast view
            roots = self._value_roots(value)
            if roots:
                self.param_alias[t.id] = set(roots)
            else:
                self.param_alias.pop(t.id, None)
            if isinstance(value, ast.Call) and _call_name(value) in _BROADCAST_MAKERS:
                self.broadcast_names.add(t.id)
            else:
                self.broadcast_names.discard(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for elt in t.elts:
                self._target(elt, ast.Constant(value=None), line)
        elif isinstance(t, (ast.Subscript, ast.Attribute)):
            self._mutate_name(_base_name(t), line)
            self._expr_sub(t)
        elif isinstance(t, ast.Starred):
            self._target(t.value, ast.Constant(value=None), line)

    # -- expressions ----------------------------------------------------

    def _expr_sub(self, node: ast.expr) -> None:
        """Scan the sub-expressions of a store target (indices etc.)."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr) and not isinstance(child, ast.expr_context):
                self._expr(child)

    def _expr(self, node: ast.expr) -> None:
        for sub in _walk_own(node):
            if isinstance(sub, ast.Call):
                self._call(sub)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id not in self.locals and sub.id in self.info.mutable_globals:
                    self.eff.global_reads.add(sub.id)

    def _call(self, node: ast.Call) -> None:
        name = _call_name(node)
        line = node.lineno
        # receiver-mutating methods
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATOR_METHODS:
            self._mutate_name(_base_name(node.func.value), line)
        # np.<ufunc>.at(dst, ...) and np.copyto-style arg0 mutators
        if node.args:
            arg0 = _base_name(node.args[0])
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr == "at" or node.func.attr in _NP_ARG0_MUTATORS
                or (isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")
                    and node.func.attr in _NP_ARG0_MUTATORS)
            ):
                self._mutate_name(arg0, line)
        # out= aliasing: always a mutation of the target ...
        out_base = None
        for kw in node.keywords:
            if kw.arg == "out":
                out_base = _base_name(kw.value)
                self._mutate_name(out_base, line)
        # ... and E5 when it aliases an input of a non-elementwise routine
        if out_base is not None and name in _E5_UNSAFE_OUT:
            for a in node.args:
                if _base_name(a) == out_base:
                    self._report(line, "E5",
                                 "out=%s aliases an input operand of %s() — "
                                 "non-elementwise kernels read operands after "
                                 "writing out" % (out_base, name))
                    break
        # E3b: locally defined callables shipped to a dispatch point
        if name in self.dispatch_names and self.kernel:
            for a in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(a, ast.Lambda):
                    self._report(line, "E3",
                                 "lambda passed to %s() — unpicklable task "
                                 "payload for a process backend" % name)
                elif isinstance(a, ast.Name) and a.id in self.nested_defs:
                    self._report(line, "E3",
                                 "locally defined closure %r passed to %s() — "
                                 "unpicklable task payload for a process "
                                 "backend (hoist it to module level)" % (a.id, name))
        # call ref for interprocedural propagation
        if name is not None:
            recv = frozenset()
            if isinstance(node.func, ast.Attribute):
                recv = self._param_roots(_base_name(node.func.value))
            arg_roots = tuple(self._param_roots(_base_name(a)) for a in node.args)
            kw_roots = {
                kw.arg: self._param_roots(_base_name(kw.value))
                for kw in node.keywords if kw.arg is not None
            }
            self.eff.calls.append(_CallRef(name, line, recv, arg_roots, kw_roots))

    def _report(self, line: int, code: str, message: str) -> None:
        self.findings.append(EffectFinding(self.info.relpath, line, code, message))


def _copies_value(value: ast.expr) -> bool:
    """True for expressions that produce a fresh buffer even though the
    root name peels through (``x.copy()``, ``np.array(x)``)."""
    if isinstance(value, ast.Call):
        name = _call_name(value)
        if name in ("copy", "astype", "array", "deepcopy", "tolist"):
            return True
    return False


# ---------------------------------------------------------------------------
# Emission sites: E1 (declared vs inferred) and E4 (loop-varying keys)


def _is_emission(node: ast.AST, pins: _ModulePins) -> bool:
    """A direct task-emission call: ``SimTask(...)``,
    ``<emitter>.add(...)`` or ``<emitter>(...)``."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id == "SimTask" or fn.id in pins.emitters
    if isinstance(fn, ast.Attribute):
        return fn.attr == "SimTask" or (
            fn.attr == "add" and isinstance(fn.value, ast.Name)
            and fn.value.id in pins.emitters)
    return False


def _emission_calls(stmt: ast.stmt, pins: _ModulePins) -> List[ast.Call]:
    """Direct task-emission calls in *stmt* (not inside nested defs)."""
    return [node for node in _walk_own(stmt) if _is_emission(node, pins)]


def _calls_emitting_fn(stmt: ast.stmt, emitting_names: Set[str]) -> bool:
    for node in _walk_own(stmt):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is not None and name in emitting_names:
                return True
    return False


def _resolve_families(
    expr: Optional[ast.expr],
    env: Dict[str, List[ast.expr]],
    _seen: Optional[Set[str]] = None,
) -> Tuple[Set[str], bool]:
    """Resolve a declared key-list expression to the set of key families
    (first tuple components).  Returns ``(families, open)``; *open*
    means something could not be resolved and the corresponding checks
    must stay silent."""
    if expr is None:
        return set(), False
    seen = _seen if _seen is not None else set()
    fams: Set[str] = set()
    opened = False

    def walk(e: ast.expr, depth: int) -> None:
        nonlocal opened
        if depth > 8:
            opened = True
            return
        if isinstance(e, ast.Tuple):
            if e.elts and isinstance(e.elts[0], ast.Constant) \
                    and isinstance(e.elts[0].value, str):
                fams.add(e.elts[0].value)
                return
            for elt in e.elts:
                walk(elt, depth + 1)
            return
        if isinstance(e, (ast.List, ast.Set)):
            for elt in e.elts:
                walk(elt, depth + 1)
            return
        if isinstance(e, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            walk(e.elt, depth + 1)
            return
        if isinstance(e, ast.BinOp) and isinstance(e.op, ast.Add):
            walk(e.left, depth + 1)
            walk(e.right, depth + 1)
            return
        if isinstance(e, ast.Name):
            if e.id in seen:
                return
            values = env.get(e.id)
            if not values:
                opened = True
                return
            seen.add(e.id)
            for v in values:
                walk(v, depth + 1)
            return
        if isinstance(e, ast.Call):
            name = _call_name(e)
            if name in ("list", "tuple", "sorted", "set"):
                for a in e.args:
                    walk(a, depth + 1)
                return
            opened = True
            return
        if isinstance(e, ast.IfExp):
            walk(e.body, depth + 1)
            walk(e.orelse, depth + 1)
            return
        if isinstance(e, ast.Constant) and e.value in ((), None):
            return
        opened = True

    walk(expr, 0)
    return fams, opened


def _names_in(expr: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


class _EmissionChecker:
    """E1/E4 over one function: regional attribution of block-store
    accesses to the closest following emission statement."""

    def __init__(
        self,
        fn: ast.AST,
        info: _ModuleInfo,
        emitting_names: Set[str],
        findings: List[EffectFinding],
    ) -> None:
        self.fn = fn
        self.info = info
        self.pins = info.pins
        self.emitting_names = emitting_names
        self.findings = findings
        self.params = {
            x.arg for x in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        }
        # Name -> every expr ever assigned to it in this function
        self.env: Dict[str, List[ast.expr]] = {}
        for node in _walk_own(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                self.env.setdefault(node.targets[0].id, []).append(node.value)

    def run(self) -> None:
        self._body(self.fn.body, [], [])

    # pending: statements since the last emission/breaker in this list.
    # loops: enclosing for-loop target-name sets (innermost last).
    def _body(self, stmts: Sequence[ast.stmt], pending: List[ast.stmt],
              loops: List[Set[str]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                # a def executes nothing here; its body is checked as its
                # own function and must not leak into this region
                continue
            emissions = _emission_calls(stmt, self.pins)
            if emissions:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                     ast.Expr, ast.Return)):
                    region = pending + [stmt]
                    for call in emissions:
                        self._check_site(call, region, loops)
                    pending.clear()
                elif isinstance(stmt, (ast.If, ast.With, ast.Try)):
                    # transparent: carry the pending region into bodies
                    for body in _sub_bodies(stmt):
                        self._body(body, list(pending), loops)
                    pending.clear()
                elif isinstance(stmt, (ast.For, ast.While)):
                    tnames = _names_in(stmt.target) if isinstance(stmt, ast.For) else set()
                    for body in _sub_bodies(stmt):
                        self._body(body, [], loops + ([tnames] if tnames else []))
                    pending.clear()
                else:
                    pending.clear()
            elif _calls_emitting_fn(stmt, self.emitting_names):
                pending.clear()
            else:
                pending.append(stmt)

    def _check_site(self, call: ast.Call, region: List[ast.stmt],
                    loops: List[Set[str]]) -> None:
        kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        read_fams: Set[str] = set()
        write_fams: Set[str] = set()
        opened = {"r": False, "w": False}
        for kw in _READ_KWARGS:
            fams, op = _resolve_families(kwargs.get(kw), self.env)
            read_fams |= fams
            opened["r"] |= op
        for kw in _WRITE_KWARGS:
            fams, op = _resolve_families(kwargs.get(kw), self.env)
            write_fams |= fams
            opened["w"] |= op
        # writes cover reads, so an open write side also mutes read checks
        opened["r"] |= opened["w"]

        # E1a: inferred accesses in the region vs declared families
        if self.pins.blocks:
            reads, writes = self._region_accesses(region)
            read_cover = read_fams | write_fams
            for line, store, fams in writes:
                if not opened["w"] and not (fams & write_fams):
                    self._report(line, "E1",
                                 "store %r (families %s) is written in the "
                                 "region of the task emitted at line %d but "
                                 "the declared writes %s do not cover it"
                                 % (store, _fmt(fams), call.lineno,
                                    _fmt(write_fams)))
            for line, store, fams in reads:
                if not opened["r"] and not (fams & read_cover):
                    self._report(line, "E1",
                                 "store %r (families %s) is read in the "
                                 "region of the task emitted at line %d but "
                                 "the declared reads/writes %s do not cover it"
                                 % (store, _fmt(fams), call.lineno,
                                    _fmt(read_cover)))
        # E1b: declared families that map to pinned stores but are never
        # touched anywhere in the module
        image = set()
        for fams in self.pins.blocks.values():
            image |= fams
        for fam in sorted((read_fams | write_fams) & image):
            if fam not in self.info.accessed_families:
                self._report(call.lineno, "E1",
                             "task declares key family %r but no pinned "
                             "block store of that family is ever accessed "
                             "in this module" % fam)

        # E4: write keys must vary with every enclosing loop variable
        if loops and (set(kwargs) & set(_WRITE_KWARGS)) \
                and call.lineno not in self.pins.ordered_lines:
            referenced, op = self._write_key_names(kwargs)
            if not op:
                for tnames in loops:
                    if not (tnames & referenced):
                        self._report(
                            call.lineno, "E4",
                            "task emitted in a loop over %s declares write "
                            "keys that do not vary with it — same-level "
                            "tasks would declare identical write sets "
                            "(add '# effects: ordered' if deps serialize "
                            "the iterations)" % "/".join(sorted(tnames)))
                        break

    def _write_key_names(self, kwargs: Dict[str, ast.expr]) -> Tuple[Set[str], bool]:
        names: Set[str] = set()
        opened = False
        frontier: List[str] = []
        for kw in _WRITE_KWARGS:
            if kw in kwargs:
                for n in _names_in(kwargs[kw]):
                    names.add(n)
                    frontier.append(n)
        seen: Set[str] = set()
        depth = 0
        while frontier and depth < 6:
            nxt: List[str] = []
            for n in frontier:
                if n in seen:
                    continue
                seen.add(n)
                if n in self.params:
                    opened = True  # wrapper forwarding declared keys
                    continue
                for v in self.env.get(n, ()):
                    for m in _names_in(v):
                        if m not in names:
                            names.add(m)
                            nxt.append(m)
            frontier = nxt
            depth += 1
        return names, opened

    def _region_accesses(self, region: List[ast.stmt]):
        reads: List[Tuple[int, str, FrozenSet[str]]] = []
        writes: List[Tuple[int, str, FrozenSet[str]]] = []
        for stmt in region:
            for node in _walk_own(stmt):
                if not isinstance(node, ast.Subscript):
                    continue
                base = _base_name(node.value)
                if base is None or base not in self.pins.blocks:
                    continue
                fams = self.pins.blocks[base]
                rec = (node.lineno, base, fams)
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    writes.append(rec)
                else:
                    reads.append(rec)
        return reads, writes

    def _report(self, line: int, code: str, message: str) -> None:
        self.findings.append(EffectFinding(self.info.relpath, line, code, message))


def _sub_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    out = []
    for attr in ("body", "orelse", "finalbody"):
        body = getattr(stmt, attr, None)
        if body:
            out.append(body)
    for h in getattr(stmt, "handlers", ()):
        out.append(h.body)
    return out


def _fmt(fams: Iterable[str]) -> str:
    fams = sorted(fams)
    return "{%s}" % ", ".join(fams) if fams else "{}"


# ---------------------------------------------------------------------------
# Interprocedural propagation


def _propagate(registry: core.Registry, functions: List[FunctionEffects]) -> None:
    def step() -> bool:
        changed = False
        for f in functions:
            def mutate(roots: Iterable[str], line: int) -> None:
                nonlocal changed
                for p in roots:
                    if p not in f.mutates:
                        f.mutates[p] = line
                        changed = True

            for call in f.calls:
                callee = registry.resolve(call.name)
                if callee is None or callee is f:
                    continue
                mutated = set(callee.mutates)
                pos_params = list(callee.params)
                if callee.is_method and call.recv_roots is not None:
                    if "self" in mutated or "cls" in mutated:
                        mutate(call.recv_roots, call.line)
                    pos_params = pos_params[1:]
                for i, roots in enumerate(call.arg_roots):
                    if i < len(pos_params) and pos_params[i] in mutated:
                        mutate(roots, call.line)
                for kw_name, roots in call.kw_roots.items():
                    if kw_name in mutated:
                        mutate(roots, call.line)
                for g in callee.global_writes:
                    if g not in f.global_writes:
                        f.global_writes[g] = call.line
                        changed = True
                new_reads = callee.global_reads - f.global_reads
                if new_reads:
                    f.global_reads |= new_reads
                    changed = True
                if callee.emits and not f.emits:
                    f.emits = True
                    changed = True
        return changed

    core.fixed_point(step, 30)


# ---------------------------------------------------------------------------
# E2 / E3a


def _check_declarations(
    functions: List[Tuple[_ModuleInfo, ast.AST, FunctionEffects]],
    findings: List[EffectFinding],
) -> None:
    for info, _node, eff in functions:
        if eff.declared is not None:
            declared = set(eff.declared["mutates"])
            label = "pure" if eff.declared["pure"] else \
                "effects(mutates=%s)" % _fmt(declared)
            for p, line in sorted(eff.mutates.items()):
                if p not in declared:
                    findings.append(EffectFinding(
                        info.relpath, eff.line, "E2",
                        "%s() is declared %s but mutates parameter %r "
                        "(line %d)" % (eff.name, label, p, line)))
        if info.kernel:
            # Only writes performed by this function's own statements
            # (the snapshot) — transitive writes would re-report the
            # same defect at every caller.
            for g, line in sorted(eff.local_global_writes.items()):
                findings.append(EffectFinding(
                    info.relpath, line, "E3",
                    "%s() writes mutable module-global %r — "
                    "process-unsafe for a worker-pool backend "
                    "(pin the definition '# effects: global-ok' "
                    "if intentional)" % (eff.name, g)))


# ---------------------------------------------------------------------------
# the pass and its entry points


def _module_info(module: core.Module, findings: List[EffectFinding]) -> _ModuleInfo:
    pins = _scan_pins(module, findings)
    info = _ModuleInfo(relpath=module.relpath, pins=pins)
    for where, name, line in core.mutable_state(module):
        if where == "module":
            info.mutable_globals[name] = line
    info.kernel = module.in_scope(PROCESS_DIRS)
    for fn in module.functions:
        eff = _FnCollector(fn.node, info, findings, info.kernel).run()
        # direct emission marks (before propagation)
        eff.emits = any(_is_emission(n, pins) for n in ast.walk(fn.node))
        info.functions.append((fn.node, eff))
    # module-wide accessed key families (for E1b)
    for node in ast.walk(module.tree) if pins.blocks else ():
        if isinstance(node, ast.Subscript):
            base = _base_name(node.value)
            if base is not None and base in pins.blocks:
                info.accessed_families |= pins.blocks[base]
    return info


def _analyze(
    index: core.ModuleIndex,
) -> Tuple[List[EffectFinding], List[FunctionEffects]]:
    findings: List[EffectFinding] = []
    infos = [_module_info(m, findings) for m in index.parsed]

    registry = core.Registry(key=FunctionEffects.signature)
    flat: List[Tuple[_ModuleInfo, ast.AST, FunctionEffects]] = []
    for info in infos:
        for node, eff in info.functions:
            registry.add(eff)
            flat.append((info, node, eff))
    _propagate(registry, [eff for _i, _n, eff in flat])

    _check_declarations(flat, findings)

    emitting = {name for name, group in registry.by_name.items()
                if all(e.emits for e in group)}
    for info in infos:
        for node, _eff in info.functions:
            _EmissionChecker(node, info, emitting, findings).run()
    return findings, [eff for _i, _n, eff in flat]


EFFECTS = core.Checker("E0", lambda index: _analyze(index)[0])


def check_effects_source(
    source: str,
    relpath: str = "<string>",
    extra_sources: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[EffectFinding]:
    """Check a single source string (plus optional companions).  The
    primary source is treated as a kernel module so every finding class
    is live — the unit-test entry point."""
    return core.check_source(EFFECTS, source, relpath, extra_sources)


def check_effects_paths(
    paths: Sequence[str], package_root: Optional[str] = None
) -> List[EffectFinding]:
    """Check explicit files with summaries drawn from the package *plus*
    those files; findings are reported only for the given files.  The
    files are treated as kernel modules (this is the fixture entry
    point — a seeded violation must fire regardless of where the
    fixture happens to live on disk)."""
    return core.check_paths(EFFECTS, paths, package_root)


def check_effects_tree(root: Optional[str] = None) -> List[EffectFinding]:
    """Check every module of the package — the CI gate."""
    return core.check_tree(EFFECTS, root)


def collect_effect_summaries(root: Optional[str] = None) -> List[FunctionEffects]:
    """Propagated effect summaries for every function in the package.

    The differential soundness tests look functions up by
    ``(path, name)`` and assert dynamically observed mutations are a
    subset of ``summary.mutates``."""
    return _analyze(core.tree_index(root))[1]


def summary_for(
    summaries: Sequence[FunctionEffects], path_suffix: str, name: str
) -> FunctionEffects:
    """The unique summary whose path ends with *path_suffix* and whose
    function name is *name* (raises if absent or ambiguous)."""
    hits = [s for s in summaries if s.name == name and s.path.endswith(path_suffix)]
    if len(hits) != 1:
        raise KeyError("expected exactly one summary for %s::%s, found %d"
                       % (path_suffix, name, len(hits)))
    return hits[0]
