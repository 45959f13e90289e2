"""Index-domain static analysis: track permutation spaces through the solver.

Basker's design is a stack of reorderings — coarse/fine BTF, nested
dissection on the big irreducible block, AMD on diagonal blocks, and
partial-pivoting row permutations folded in during numeric
factorization — so every integer array in the package lives in one of
several *index spaces*: ``global`` (the input matrix), ``btf`` (after
the BTF row/column permutation), ``nd`` (after the ND ordering of the
large block), ``local:block`` (positions within one extracted block).
Mixing spaces up — indexing a global array with a block-local offset,
applying a permutation twice, composing permutations whose inner spaces
do not chain — is the dominant silent-corruption bug class in this kind
of solver, and the type system cannot see it: every space is just an
``int64`` array.

This module is an AST-based checker for those invariants.  It has three
parts:

1. **Contracts** — functions declare domains with the runtime no-op
   decorator :func:`repro.contracts.domains`; locals can be pinned with
   ``# domain:`` comments (``x = f()  # domain: vec[btf]`` on an
   assignment, or a standalone ``# domain: name = perm[nd->nd]``).

2. **Intraprocedural dataflow** — a linear walk over each function body
   propagates domains through assignments and the permutation algebra:

   * ``invert(p)``: ``perm[A->B]`` becomes ``perm[B->A]``;
   * ``compose(p, q)`` and the equivalent fancy-index form ``p[q]``:
     requires ``outer(p) == inner(q)`` and yields
     ``perm[inner(p)->outer(q)]``;
   * fancy indexing ``x[p]`` with ``x: vec[A]`` and ``p: perm[A->B]``
     yields ``vec[B]`` (the package-wide *new→old* convention of
     ``repro.ordering.perm``);
   * slicing ``x[lo:hi]`` extracts a block-local view
     (``vec[local:block]``);
   * ``np.asarray`` / ``.copy()`` / ``.astype()`` pass domains through.

3. **Interprocedural call-site checking** — contracts are collected
   across the whole package first, then every call site is unified
   against the callee's declaration.  Single-uppercase space tokens
   (``A``, ``B``, ``S``) are *variables* bound per call site, so a
   generic ``amd_order(A="matrix[S]") -> perm[S->S]`` called on a
   ``CSC.submatrix`` result (declared ``matrix[local:block]``) returns
   a block-local permutation.

The checker is deliberately conservative: a finding is emitted only
when **both** sides of a comparison are *concrete* spaces that
disagree.  Anything it does not understand infers "unknown" and stays
silent, so an unannotated module can never produce false positives.

Finding codes::

    D1  call-site or return domain mismatch against a declared contract
    D2  double application of a permutation  (x[p] where x: vec[B],
        p: perm[A->B] — x is already in p's output space)
    D3  composing permutations whose spaces do not chain
    D4  index-space mismatch on a subscript (e.g. a ``local:block``
        index used against a ``global`` array)
    D5  malformed domain expression / declaration

Entry points: :func:`check_domains_source` (one source string),
:func:`check_domains_paths` (explicit files, contracts drawn from the
package *plus* those files), :func:`check_domains_tree` (the whole
installed package — the CI gate, exposed as ``python -m repro analyze
domains``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import core

__all__ = [
    "Domain",
    "DomainFinding",
    "DomainSyntaxError",
    "FunctionContract",
    "ContractRegistry",
    "parse_domain",
    "check_domains_source",
    "check_domains_paths",
    "check_domains_tree",
]

# The concrete spaces used by the package.  Anything matching _SPACE_RE
# is accepted (fixtures may invent spaces); single uppercase letters are
# unification variables.
LOCAL_BLOCK = "local:block"
KINDS = ("perm", "index", "vec", "matrix")

_SPACE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_:.\-]*$")
_DOMAIN_RE = re.compile(r"^\s*(perm|index|vec|matrix)\s*\[\s*([^\[\]]+?)\s*\]\s*$")
_NAMED_RE = re.compile(r"^(\w+)\s*=\s*(.+)$")

# Functions that return their input unchanged (domain-wise).  Attribute
# calls in the first group pass through argument 0 (``np.asarray(x)``);
# the second group passes through the receiver (``x.copy()``).
_PASSTHROUGH_ARG0 = {"asarray", "ascontiguousarray", "asanyarray", "array", "require"}
_PASSTHROUGH_RECV = {"copy", "astype"}


class DomainSyntaxError(ValueError):
    """Raised by :func:`parse_domain` on a malformed domain expression."""


@dataclass(frozen=True)
class Domain:
    """A parsed domain expression.

    ``kind`` is one of :data:`KINDS`.  For ``perm``, ``s1`` is the inner
    (input) space and ``s2`` the outer (output) space of ``x_B = x_A[p]``;
    for the other kinds ``s1`` is the space and ``s2`` is ``None``.  A
    space of ``None`` means "unknown" (e.g. after substituting an
    unbound variable).
    """

    kind: str
    s1: Optional[str]
    s2: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "perm":
            return "perm[%s->%s]" % (self.s1 or "?", self.s2 or "?")
        return "%s[%s]" % (self.kind, self.s1 or "?")


DomainFinding = core.Finding


def _is_var(space: Optional[str]) -> bool:
    """Single-uppercase-letter spaces are unification variables."""
    return space is not None and len(space) == 1 and space.isupper()


def _concrete(space: Optional[str]) -> bool:
    return space is not None and not _is_var(space)


def _conflict(a: Optional[str], b: Optional[str]) -> bool:
    """True when two spaces are both concrete and disagree."""
    return _concrete(a) and _concrete(b) and a != b


def parse_domain(text: str) -> Optional[Domain]:
    """Parse ``"perm[global->btf]"`` / ``"vec[nd]"`` / ``"any"``.

    Returns ``None`` for ``any`` (explicit unknown).  Raises
    :class:`DomainSyntaxError` on malformed input.
    """
    stripped = text.strip()
    if stripped == "any":
        return None
    m = _DOMAIN_RE.match(stripped)
    if m is None:
        raise DomainSyntaxError(
            "invalid domain %r (expected kind[space] with kind in %s)"
            % (text, "/".join(KINDS))
        )
    kind, inside = m.group(1), m.group(2)
    if kind == "perm":
        if "->" not in inside:
            raise DomainSyntaxError(
                "invalid perm domain %r (expected perm[inner->outer])" % text
            )
        inner, _, outer = inside.partition("->")
        inner, outer = inner.strip(), outer.strip()
        if not _SPACE_RE.match(inner) or not _SPACE_RE.match(outer):
            raise DomainSyntaxError("invalid space name in %r" % text)
        return Domain("perm", inner, outer)
    space = inside.strip()
    if "->" in space or not _SPACE_RE.match(space):
        raise DomainSyntaxError("invalid space name in %r" % text)
    return Domain(kind, space)


@dataclass
class FunctionContract:
    """The declared domains of one ``@domains``-decorated function."""

    name: str
    path: str
    line: int
    params: Dict[str, Optional[Domain]]
    returns: Optional[Domain]
    is_method: bool
    param_order: Tuple[str, ...]  # excludes self/cls for methods

    def signature_key(self):
        return (
            tuple(sorted(self.params.items(), key=lambda kv: kv[0])),
            self.returns,
            self.param_order,
        )


class ContractRegistry(core.Registry):
    """Contracts by simple callee name and by function node.

    A name shared by several decorated functions resolves only if their
    declarations agree (e.g. ``factor`` on both ``KLU`` and ``Basker``);
    otherwise call sites against it are skipped.
    """

    def __init__(self) -> None:
        super().__init__(key=FunctionContract.signature_key)
        self._by_node: Dict[int, FunctionContract] = {}

    def add(self, contract: FunctionContract, node: ast.AST) -> None:
        super().add(contract)
        self._by_node[id(node)] = contract

    def for_node(self, node: ast.AST) -> Optional[FunctionContract]:
        return self._by_node.get(id(node))


def _collect_contracts(
    module: core.Module, registry: ContractRegistry, findings: List[DomainFinding]
) -> None:
    """Pass 1: read every ``@domains(...)`` declaration in *module*."""
    relpath = module.relpath
    for node in (f.node for f in module.functions):
        for dec in core.decorators(node, "domains"):
            arg_names = [a.arg for a in node.args.posonlyargs + node.args.args]
            is_method = bool(arg_names) and arg_names[0] in ("self", "cls")
            order = tuple(arg_names[1:] if is_method else arg_names)
            valid_names = set(arg_names) | {
                a.arg for a in node.args.kwonlyargs
            } | {"returns"}
            params: Dict[str, Optional[Domain]] = {}
            returns: Optional[Domain] = None
            for kw in dec.keywords:
                if kw.arg is None:
                    findings.append(
                        DomainFinding(relpath, dec.lineno, "D5",
                                      "@domains does not accept ** expansion")
                    )
                    continue
                if not (isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)):
                    findings.append(
                        DomainFinding(relpath, kw.value.lineno, "D5",
                                      "@domains values must be string literals")
                    )
                    continue
                if kw.arg not in valid_names:
                    findings.append(
                        DomainFinding(
                            relpath, kw.value.lineno, "D5",
                            "@domains declares %r which is not a parameter of %s()"
                            % (kw.arg, node.name))
                    )
                    continue
                try:
                    dom = parse_domain(kw.value.value)
                except DomainSyntaxError as exc:
                    findings.append(
                        DomainFinding(relpath, kw.value.lineno, "D5", str(exc))
                    )
                    continue
                if kw.arg == "returns":
                    returns = dom
                else:
                    params[kw.arg] = dom
            registry.add(
                FunctionContract(
                    name=node.name, path=relpath, line=node.lineno,
                    params=params, returns=returns,
                    is_method=is_method, param_order=order,
                ),
                node,
            )


def _scan_comments(
    module: core.Module, findings: List[DomainFinding]
) -> Tuple[Dict[int, Domain], List[Tuple[int, str, Domain]]]:
    """Read the module's ``# domain:`` pins.

    Returns ``(trailing, named)``: *trailing* maps a line number to the
    domain its assignment target should take; *named* is a list of
    ``(line, name, domain)`` standalone declarations applied in
    statement order.
    """
    trailing: Dict[int, Domain] = {}
    named: List[Tuple[int, str, Domain]] = []
    for lineno, payload in module.pins("domain"):
        nm = _NAMED_RE.match(payload)
        try:
            if nm is not None and nm.group(1) not in KINDS:
                named.append((lineno, nm.group(1), parse_domain(nm.group(2))))
            else:
                dom = parse_domain(payload)
                if dom is not None:
                    trailing[lineno] = dom
        except DomainSyntaxError as exc:
            findings.append(DomainFinding(module.relpath, lineno, "D5", str(exc)))
    return trailing, named


class _FunctionChecker(ast.NodeVisitor):
    """Dataflow over one function body (or the module top level)."""

    def __init__(
        self,
        relpath: str,
        registry: ContractRegistry,
        trailing: Dict[int, Domain],
        named: List[Tuple[int, str, Domain]],
        findings: List[DomainFinding],
        contract: Optional[FunctionContract] = None,
    ) -> None:
        self.relpath = relpath
        self.registry = registry
        self.trailing = trailing
        self.named = sorted(named, key=lambda t: t[0])
        self._named_idx = 0
        self.findings = findings
        self.contract = contract
        self.env: Dict[str, Optional[Domain]] = {}
        if contract is not None:
            for pname, dom in contract.params.items():
                self.env[pname] = dom

    # -- reporting -------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            DomainFinding(self.relpath, getattr(node, "lineno", 0), code, message)
        )

    # -- statement walk --------------------------------------------------

    def run_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _apply_named(self, lineno: int) -> None:
        while self._named_idx < len(self.named) and self.named[self._named_idx][0] <= lineno:
            _, name, dom = self.named[self._named_idx]
            self.env[name] = dom
            self._named_idx += 1

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        self._apply_named(stmt.lineno)
        if isinstance(stmt, ast.Assign):
            dom = self.infer(stmt.value)
            override = self.trailing.get(stmt.lineno)
            if override is not None:
                dom = override
            for target in stmt.targets:
                self._assign_target(target, dom)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                dom = self.infer(stmt.value)
                override = self.trailing.get(stmt.lineno)
                if override is not None:
                    dom = override
                self._assign_target(stmt.target, dom)
        elif isinstance(stmt, ast.AugAssign):
            self.infer(stmt.value)
            if isinstance(stmt.target, ast.Subscript):
                self._infer_subscript(stmt.target)
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                actual = self.infer(stmt.value)
                self._check_return(stmt, actual)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.infer(stmt.test)
            self.run_body(stmt.body)
            self.run_body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.infer(stmt.iter)
            self._assign_target(stmt.target, None)
            self.run_body(stmt.body)
            self.run_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.infer(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, None)
            self.run_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run_body(stmt.body)
            for handler in stmt.handlers:
                self.run_body(handler.body)
            self.run_body(stmt.orelse)
            self.run_body(stmt.finalbody)
        elif isinstance(stmt, (ast.Assert,)):
            self.infer(stmt.test)
        # FunctionDef / ClassDef bodies are checked separately with
        # their own (empty) environments; everything else is inert.

    def _assign_target(self, target: ast.expr, dom: Optional[Domain]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = dom
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None)
        elif isinstance(target, ast.Subscript):
            # a store through a subscript still checks the index space
            self._infer_subscript(target)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, None)
        # attribute stores do not change the local environment

    def _check_return(self, stmt: ast.Return, actual: Optional[Domain]) -> None:
        if self.contract is None or self.contract.returns is None or actual is None:
            return
        declared = self.contract.returns
        if declared.kind != actual.kind or _conflict(declared.s1, actual.s1) \
                or _conflict(declared.s2, actual.s2):
            self._report(
                stmt, "D1",
                "%s() declared to return %s but returns %s"
                % (self.contract.name, declared, actual))

    # -- expression inference --------------------------------------------

    def infer(self, node: ast.expr) -> Optional[Domain]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Subscript):
            return self._infer_subscript(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            body = self.infer(node.body)
            orelse = self.infer(node.orelse)
            return body if body == orelse else None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.infer(elt)
            return None
        if isinstance(node, ast.BinOp):
            self.infer(node.left)
            self.infer(node.right)
            return None
        if isinstance(node, ast.UnaryOp):
            self.infer(node.operand)
            return None
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.infer(v)
            return None
        if isinstance(node, ast.Compare):
            self.infer(node.left)
            for c in node.comparators:
                self.infer(c)
            return None
        if isinstance(node, ast.Starred):
            self.infer(node.value)
            return None
        return None

    def _infer_call(self, node: ast.Call) -> Optional[Domain]:
        # Infer every argument first so nested calls are always checked,
        # even under callees we know nothing about.
        arg_doms = [self.infer(a) for a in node.args]
        kw_doms = {kw.arg: self.infer(kw.value) for kw in node.keywords}

        func = node.func
        name = core.call_name(node)

        # Domain-preserving wrappers.
        if name in _PASSTHROUGH_ARG0 and node.args:
            return arg_doms[0]
        if name in _PASSTHROUGH_RECV and isinstance(func, ast.Attribute):
            return self.infer(func.value)

        # The permutation-algebra primitives get dedicated transfer
        # functions (and dedicated finding codes) rather than generic
        # contract unification.
        if name == "invert" and len(node.args) >= 1:
            return self._transfer_invert(node, arg_doms[0])
        if name == "compose" and len(node.args) >= 2:
            return self._transfer_compose(node, arg_doms[0], arg_doms[1])

        if name is None:
            return None
        contract = self.registry.resolve(name)
        if contract is None:
            return None
        return self._check_call(node, contract, arg_doms, kw_doms)

    def _transfer_invert(self, node: ast.Call, p: Optional[Domain]) -> Optional[Domain]:
        if p is None:
            return Domain("perm", None, None)
        if p.kind != "perm":
            self._report(node, "D1", "invert() applied to %s (expected a perm)" % p)
            return None
        return Domain("perm", p.s2, p.s1)

    def _transfer_compose(
        self, node: ast.Call, p: Optional[Domain], q: Optional[Domain]
    ) -> Optional[Domain]:
        for arg in (p, q):
            if arg is not None and arg.kind != "perm":
                self._report(node, "D1", "compose() applied to %s (expected a perm)" % arg)
                return None
        if p is not None and q is not None and _conflict(p.s2, q.s1):
            self._report(
                node, "D3",
                "compose(%s, %s): outer space %r does not chain with inner space %r"
                % (p, q, p.s2, q.s1))
            return None
        return Domain(
            "perm",
            p.s1 if p is not None else None,
            q.s2 if q is not None else None,
        )

    def _check_call(
        self,
        node: ast.Call,
        contract: FunctionContract,
        arg_doms: List[Optional[Domain]],
        kw_doms: Dict[Optional[str], Optional[Domain]],
    ) -> Optional[Domain]:
        if any(isinstance(a, ast.Starred) for a in node.args) or None in kw_doms:
            return self._substitute(contract.returns, {})
        if contract.is_method and not isinstance(node.func, ast.Attribute):
            # a bound method called through a bare name: cannot map args
            return self._substitute(contract.returns, {})
        pairs: List[Tuple[str, Optional[Domain]]] = []
        for i, dom in enumerate(arg_doms):
            if i < len(contract.param_order):
                pairs.append((contract.param_order[i], dom))
        for kw_name, dom in kw_doms.items():
            pairs.append((kw_name, dom))
        bindings: Dict[str, str] = {}
        for pname, actual in pairs:
            declared = contract.params.get(pname)
            if declared is None or actual is None:
                continue
            self._unify(node, contract, pname, declared, actual, bindings)
        return self._substitute(contract.returns, bindings)

    def _unify(
        self,
        node: ast.Call,
        contract: FunctionContract,
        pname: str,
        declared: Domain,
        actual: Domain,
        bindings: Dict[str, str],
    ) -> None:
        if declared.kind != actual.kind:
            self._report(
                node, "D1",
                "argument %r of %s(): declared %s, got %s"
                % (pname, contract.name, declared, actual))
            return
        for d, a in ((declared.s1, actual.s1), (declared.s2, actual.s2)):
            if d is None or a is None:
                continue
            if _is_var(d):
                bound = bindings.get(d)
                if bound is None:
                    bindings[d] = a
                elif _conflict(bound, a):
                    self._report(
                        node, "D1",
                        "argument %r of %s(): declared %s, got %s "
                        "(space variable %s already bound to %r)"
                        % (pname, contract.name, declared, actual, d, bound))
                    return
                elif _concrete(a) and not _concrete(bound):
                    bindings[d] = a
            elif _conflict(d, a):
                self._report(
                    node, "D1",
                    "argument %r of %s(): declared %s, got %s"
                    % (pname, contract.name, declared, actual))
                return

    @staticmethod
    def _substitute(declared: Optional[Domain], bindings: Dict[str, str]) -> Optional[Domain]:
        if declared is None:
            return None

        def sub(space: Optional[str]) -> Optional[str]:
            if space is None:
                return None
            if _is_var(space):
                bound = bindings.get(space)
                return bound if _concrete(bound) else None
            return space

        return Domain(declared.kind, sub(declared.s1), sub(declared.s2))

    # -- subscripts ------------------------------------------------------

    def _infer_subscript(self, node: ast.Subscript) -> Optional[Domain]:
        base = self.infer(node.value)
        sl = node.slice
        if isinstance(sl, ast.Slice):
            for part in (sl.lower, sl.upper, sl.step):
                if part is not None:
                    self.infer(part)
            if base is None:
                return None
            if base.kind == "matrix":
                return None
            # slicing a range out of a structured array extracts a
            # block-local view
            return Domain("vec", LOCAL_BLOCK)
        if isinstance(sl, ast.Tuple):
            for elt in sl.elts:
                self.infer(elt)
            return None
        idx = self.infer(sl)
        if base is None:
            return None
        if base.kind == "matrix":
            return None
        if base.kind == "perm":
            if idx is not None and idx.kind == "perm":
                # p[q] is compose(p, q): outer(p) must chain with inner(q)
                if _conflict(base.s2, idx.s1):
                    self._report(
                        node, "D3",
                        "%s[%s]: outer space %r does not chain with inner space %r"
                        % (base, idx, base.s2, idx.s1))
                    return None
                return Domain("perm", base.s1, idx.s2)
            return None
        # base is vec/index
        if idx is None:
            return None
        space = base.s1
        if idx.kind == "perm":
            if _conflict(space, idx.s1):
                if not _conflict(space, idx.s2):
                    self._report(
                        node, "D2",
                        "double application of permutation: %s indexed with %s "
                        "(the array is already in the permutation's output space)"
                        % (base, idx))
                else:
                    self._report(
                        node, "D4",
                        "%s indexed with %s (permutation consumes %r-space data)"
                        % (base, idx, idx.s1))
                return None
            return Domain(base.kind, idx.s2)
        if idx.kind == "index":
            if _conflict(space, idx.s1):
                self._report(
                    node, "D4",
                    "%s subscripted with %s (index values live in a different space)"
                    % (base, idx))
                return None
            return None
        if idx.kind in ("vec", "matrix"):
            return None
        return None


# ---------------------------------------------------------------------------
# the pass and its entry points


def _domains(index: core.ModuleIndex) -> List[DomainFinding]:
    registry = ContractRegistry()
    findings: List[DomainFinding] = []
    comments = {}
    for module in index.parsed:
        comments[module] = _scan_comments(module, findings)
        _collect_contracts(module, registry, findings)
    for module in index.parsed:
        if not index.reported(module.relpath):
            continue
        trailing, named = comments[module]
        # module top level (skips nested function/class bodies)
        _FunctionChecker(module.relpath, registry, trailing, named, findings).run_body(
            [s for s in module.tree.body
             if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))])
        # every function and method, each in its own environment
        for fn in module.functions:
            lo, hi = fn.node.lineno, fn.node.end_lineno
            checker = _FunctionChecker(
                module.relpath, registry,
                {ln: d for ln, d in trailing.items() if lo <= ln <= hi},
                [t for t in named if lo <= t[0] <= hi],
                findings, contract=registry.for_node(fn.node))
            checker.run_body(fn.node.body)
    return findings


DOMAINS = core.Checker("D5", _domains)


def check_domains_source(
    source: str,
    relpath: str = "<string>",
    extra_sources: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[DomainFinding]:
    """Check a single source string (plus optional companion sources).

    Contracts are collected from *source* and every ``(text, relpath)``
    pair in *extra_sources*; findings are reported for all of them.
    Mostly a unit-test entry point.
    """
    return core.check_source(DOMAINS, source, relpath, extra_sources,
                             report_all=True)


def check_domains_paths(
    paths: Sequence[str], package_root: Optional[str] = None
) -> List[DomainFinding]:
    """Check explicit files against the package's contracts.

    The registry is built from the installed ``repro`` package (or
    *package_root*) *plus* the given files, but findings are reported
    only for the given files — this is how the seeded-violation fixtures
    are checked without muddying the tree-wide gate.
    """
    return core.check_paths(DOMAINS, paths, package_root)


def check_domains_tree(root: Optional[str] = None) -> List[DomainFinding]:
    """Check every module of the package — the CI gate."""
    return core.check_tree(DOMAINS, root)
