"""Symbolic shape/bounds/dtype abstract interpretation for the kernels.

Basker's design (and our PR-3 schedule compiler) is index plumbing:
every kernel gathers and scatters through layered index arrays, so the
dominant silent-corruption bug class is an index array that is *out of
bounds for the buffer it indexes*, a ``reduceat`` segment array that is
not sorted, or a narrowing cast that breaks the package-wide ``int64``
discipline.  This module closes that gap with an abstract interpreter
over the kernel packages that assigns every array variable a *symbolic
shape* in a lattice of named dimensions (``n``, ``nnz(A)``,
``len(seg_starts)``, block sizes, ...) plus an index-range interval,
propagated through the numpy idioms the kernels use (``np.asarray``,
slicing, fancy indexing, ``searchsorted``, ``bincount(minlength=)``,
``reduceat``, broadcasting, concatenation) and interprocedurally via
:func:`repro.contracts.shapes` declarations, as a pass over the shared
:mod:`repro.analysis.core` index (its registry and fixed-point helper).

The symbolic dimension lattice
------------------------------

A dimension is a multivariate integer polynomial over *atoms* — named
dimensions bound by a contract (``n``, ``k``), dimension functions of a
parameter (``nnz(A)``, ``len(x)``, ``rows(A)``, ``cols(A)``) and fresh
anonymous atoms — represented in canonical form (monomial -> integer
coefficient).  All atoms are nonnegative integers, which makes the
partial order decidable for the cases that matter::

    d1 <= d2   iff every coefficient of d2 - d1 is >= 0          (True)
    d1 >  d2   iff d2 - d1 has a negative constant term and no
                   positive coefficients                         (False)
    otherwise  unknown                                           (None)

``unknown`` keeps the checker conservative: a finding is emitted only
when a violation is *provable*, so an unannotated module can never
produce false positives, exactly like the domain and effect checkers.

Finding classes::

    S1  gather out of bounds — an index (scalar or fancy-index array)
        provably >= the length of the buffer it indexes
    S2  scatter/reduceat precondition violation — segment starts
        provably unsorted or out of range, scatter target arrays
        provably containing duplicates without accumulation
    S3  shape-conformance mismatch — elementwise ops, comparisons,
        boolean masks or sliced stores over provably different (or
        declared-distinct) dimensions
    S4  index-width hazard — creation of or narrowing cast to
        int32/int16 index arrays in kernel packages (the tree is
        int64-only), and degree->=2 products like ``n * n`` used as
        flat allocation lengths
    S5  contract mismatch — declared vs inferred shapes disagree at a
        return site or a call site (also malformed declarations and
        unparsable shape expressions)

Contracts are declared with the runtime no-op decorator
:func:`repro.contracts.shapes`; ``# shapes: ignore`` on a line
suppresses findings on that line.  :func:`audit_schedule_buffers`
complements the static pass with a concrete bounds audit of compiled
:mod:`repro.sparse.schedule` plans, and :func:`contract_checked` /
:func:`check_call_contract` provide the differential runtime checker
that validates observed shapes against the same declarations.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import AnalysisError
from . import core
from .core import DETERMINISTIC_DIRS
from .plans import audit_schedule_buffers

__all__ = [
    "ShapeFinding",
    "ShapeContractError",
    "check_shapes_source",
    "check_shapes_paths",
    "check_shapes_tree",
    "collect_shape_contracts",
    "audit_schedule_buffers",
    "check_call_contract",
    "contract_checked",
]


class ShapeContractError(AnalysisError):
    """A runtime value violated its declared shape contract."""


ShapeFinding = core.Finding


# ======================================================================
# Dimension algebra: canonical polynomials over nonnegative atoms
# ======================================================================

# A Dim is a dict mapping a monomial (sorted tuple of atom names; () is
# the constant term) to a nonzero integer coefficient.

Dim = Dict[Tuple[str, ...], int]


def _d_const(c: int) -> Dim:
    return {(): int(c)} if c else {}


def _d_atom(name: str) -> Dim:
    return {(name,): 1}


def _d_add(a: Dim, b: Dim) -> Dim:
    out = dict(a)
    for mono, c in b.items():
        nc = out.get(mono, 0) + c
        if nc:
            out[mono] = nc
        else:
            out.pop(mono, None)
    return out


def _d_neg(a: Dim) -> Dim:
    return {m: -c for m, c in a.items()}


def _d_sub(a: Dim, b: Dim) -> Dim:
    return _d_add(a, _d_neg(b))


def _d_mul(a: Dim, b: Dim) -> Dim:
    out: Dim = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            nc = out.get(mono, 0) + ca * cb
            if nc:
                out[mono] = nc
            else:
                out.pop(mono, None)
    return out


def _d_eq(a: Optional[Dim], b: Optional[Dim]) -> Optional[bool]:
    """Provable equality: True / False / None (unknown)."""
    if a is None or b is None:
        return None
    diff = _d_sub(a, b)
    if not diff:
        return True
    if set(diff) == {()}:
        return False
    return None


def _d_le(a: Optional[Dim], b: Optional[Dim]) -> Optional[bool]:
    """Provable ``a <= b`` given all atoms are nonnegative integers."""
    if a is None or b is None:
        return None
    diff = _d_sub(b, a)
    if all(c >= 0 for c in diff.values()):
        return True
    if diff.get((), 0) < 0 and all(c <= 0 for c in diff.values()):
        return False
    return None


def _d_lt(a: Optional[Dim], b: Optional[Dim]) -> Optional[bool]:
    """Provable ``a < b``."""
    if a is None or b is None:
        return None
    if _d_le(_d_add(a, _d_const(1)), b) is True:
        return True
    if _d_le(b, a) is True:
        return False
    return None


def _d_nonneg(a: Dim) -> bool:
    """Provably >= 0 (all coefficients nonnegative)."""
    return all(c >= 0 for c in a.values())


_ATOM_STRIP = re.compile(r"@\d+")


def _d_str(d: Optional[Dim]) -> str:
    if d is None:
        return "?"
    if not d:
        return "0"
    parts = []
    for mono in sorted(d, key=lambda m: (len(m), m)):
        c = d[mono]
        if not mono:
            parts.append(str(c))
            continue
        body = "*".join(mono)
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append("-%s" % body)
        else:
            parts.append("%d*%s" % (c, body))
    out = " + ".join(parts).replace("+ -", "- ")
    return _ATOM_STRIP.sub("", out)


def _d_subst(d: Dim, bindings: Dict[str, Dim]) -> Dim:
    """Substitute bound atoms (unbound atoms stay themselves)."""
    out: Dim = {}
    for mono, c in d.items():
        term = _d_const(c) if not mono else None
        acc: Dim = {(): c}
        for atom in mono:
            acc = _d_mul(acc, bindings.get(atom, _d_atom(atom)))
        term = acc
        out = _d_add(out, term)
    return out


def _d_single_atom(d: Optional[Dim]) -> Optional[str]:
    """The atom name when ``d`` is exactly one atom with coefficient 1."""
    if d is not None and len(d) == 1:
        (mono, c), = d.items()
        if c == 1 and len(mono) == 1:
            return mono[0]
    return None


# ======================================================================
# Contract mini-language
# ======================================================================

_DTYPES = ("f8", "i8", "i4", "i2", "b1", "u4")
_DIM_FUNCS = ("len", "nnz", "rows", "cols")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\[\](),+\-*<]))"
)


class _SpecError(ValueError):
    pass


def _tokenize_spec(text: str) -> List[Tuple[str, str]]:
    toks: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise _SpecError("unexpected %r" % rest[:10])
        if m.group("int") is not None:
            toks.append(("int", m.group("int")))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name")))
        else:
            toks.append(("op", m.group("op")))
        pos = m.end()
    return toks


@dataclass
class _Spec:
    kind: str                      # array | csc | dim | scalar | any
    dtype: Optional[str] = None
    dims: Optional[List[Dim]] = None
    bound: Optional[Dim] = None
    sorted: bool = False
    unique: bool = False
    text: str = ""


class _SpecParser:
    def __init__(self, toks: List[Tuple[str, str]]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise _SpecError("unexpected end of shape expression")
        self.i += 1
        return tok

    def expect(self, val: str) -> None:
        tok = self.next()
        if tok[1] != val:
            raise _SpecError("expected %r, got %r" % (val, tok[1]))

    # dim := term (("+"|"-") term)*
    def dim(self) -> Dim:
        d = self.term()
        while self.peek() and self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            t = self.term()
            d = _d_add(d, t) if op == "+" else _d_sub(d, t)
        return d

    def term(self) -> Dim:
        d = self.factor()
        while self.peek() and self.peek()[1] == "*":
            self.next()
            d = _d_mul(d, self.factor())
        return d

    def factor(self) -> Dim:
        kind, val = self.next()
        if kind == "int":
            return _d_const(int(val))
        if kind == "name":
            if self.peek() and self.peek()[1] == "(":
                if val not in _DIM_FUNCS:
                    raise _SpecError("unknown dimension function %r" % val)
                self.next()
                arg = self.next()
                if arg[0] != "name":
                    raise _SpecError("dimension function needs a parameter name")
                self.expect(")")
                return _d_atom("%s(%s)" % (val, arg[1]))
            return _d_atom(val)
        raise _SpecError("unexpected %r in dimension" % val)


def parse_shape_spec(text: str) -> _Spec:
    """Parse one shape expression of the contract mini-language."""
    if not isinstance(text, str):
        raise _SpecError("shape declaration must be a string")
    toks = _tokenize_spec(text)
    p = _SpecParser(toks)
    kind, val = p.next()
    if kind != "name":
        raise _SpecError("shape expression must start with a form name")
    spec: _Spec
    if val in ("any", "scalar", "dim") and (p.peek() is None or p.peek()[1] != "["):
        spec = _Spec(kind=val if val != "any" else "any", text=text)
        if val in ("scalar", "dim"):
            spec.kind = val
    elif val == "csc":
        p.expect("[")
        r = p.dim()
        p.expect(",")
        c = p.dim()
        p.expect("]")
        spec = _Spec(kind="csc", dims=[r, c], text=text)
    elif val in _DTYPES or val == "any":
        p.expect("[")
        dims = [p.dim()]
        while p.peek() and p.peek()[1] == ",":
            p.next()
            dims.append(p.dim())
        p.expect("]")
        spec = _Spec(kind="array", dtype=None if val == "any" else val,
                     dims=dims, text=text)
    else:
        raise _SpecError("unknown shape form %r" % val)
    # qualifiers
    while p.peek() is not None:
        kind, val = p.next()
        if val == "sorted":
            spec.sorted = True
        elif val == "unique":
            spec.unique = True
        elif val == "<":
            spec.bound = p.dim()
        else:
            raise _SpecError("unknown qualifier %r" % val)
    if spec.bound is not None and spec.kind not in ("array", "scalar", "dim"):
        raise _SpecError("'< bound' only applies to arrays and scalars")
    return spec


def _spec_atoms(spec: _Spec) -> Set[str]:
    atoms: Set[str] = set()
    for d in (spec.dims or []) + ([spec.bound] if spec.bound is not None else []):
        for mono in d:
            atoms.update(mono)
    return atoms


# ======================================================================
# Abstract values
# ======================================================================


@dataclass(frozen=True)
class _Val:
    kind: str = "any"              # any | scalar | array | csc | tuple | range
    dtype: Optional[str] = None
    shape: Optional[Tuple[Optional[Dim], ...]] = None
    bound: Optional[Dim] = None    # exclusive upper bound on int values
    maxval: Optional[Dim] = None   # provable lower bound on max element
    nonneg: bool = False
    sorted: Optional[bool] = None  # nondecreasing element order
    unique: Optional[bool] = None
    dim: Optional[Dim] = None      # scalars: symbolic value
    rows: Optional[Dim] = None     # csc
    cols: Optional[Dim] = None
    nnz: Optional[Dim] = None
    elts: Optional[Tuple["_Val", ...]] = None


_UNKNOWN = _Val()


def _axis0(v: _Val) -> Optional[Dim]:
    if v.kind == "array" and v.shape:
        return v.shape[0]
    return None


def _provably_nonempty(v: _Val) -> bool:
    d = _axis0(v)
    return d is not None and _d_le(_d_const(1), d) is True


def _is_int_dtype(dt: Optional[str]) -> bool:
    return dt is not None and dt[0] in ("i", "u")


def _join_dim(a: Optional[Dim], b: Optional[Dim]) -> Optional[Dim]:
    return a if _d_eq(a, b) is True else None


def _join_flag(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    return a if a == b else None


def _join(a: _Val, b: _Val) -> _Val:
    if a == b:
        return a
    if a.kind != b.kind:
        return _UNKNOWN
    shape: Optional[Tuple[Optional[Dim], ...]] = None
    if a.shape is not None and b.shape is not None and len(a.shape) == len(b.shape):
        shape = tuple(_join_dim(x, y) for x, y in zip(a.shape, b.shape))
    return _Val(
        kind=a.kind,
        dtype=a.dtype if a.dtype == b.dtype else None,
        shape=shape,
        bound=_join_dim(a.bound, b.bound),
        maxval=_join_dim(a.maxval, b.maxval),
        nonneg=a.nonneg and b.nonneg,
        sorted=_join_flag(a.sorted, b.sorted),
        unique=_join_flag(a.unique, b.unique),
        dim=_join_dim(a.dim, b.dim),
        rows=_join_dim(a.rows, b.rows),
        cols=_join_dim(a.cols, b.cols),
        nnz=_join_dim(a.nnz, b.nnz),
    )


def _merge_envs(a: Dict[str, _Val], b: Dict[str, _Val]) -> Dict[str, _Val]:
    return {k: _join(a[k], b[k]) for k in a.keys() & b.keys()}


# numpy dtype expression -> tag
_DTYPE_TAGS = {
    "int64": "i8", "intp": "i8", "int_": "i8", "int": "i8",
    "int32": "i4", "intc": "i4",
    "int16": "i2",
    "uint32": "u4",
    "float64": "f8", "double": "f8", "float": "f8", "float_": "f8",
    "bool": "b1", "bool_": "b1",
}


def _dtype_tag_of_expr(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return _DTYPE_TAGS.get(node.attr)
    if isinstance(node, ast.Name):
        return _DTYPE_TAGS.get(node.id)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_TAGS.get(node.value)
    return None


def _attr_chain(node: ast.expr) -> Optional[List[str]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


# ======================================================================
# Contract collection
# ======================================================================


@dataclass
class _Contract:
    name: str
    relpath: str
    line: int
    params: List[str]
    specs: Dict[str, _Spec]
    returns: Optional[_Spec]
    is_method: bool
    is_classmethod: bool


def _parse_shapes_decorator(
    node: ast.FunctionDef,
    relpath: str,
    in_class: bool,
    findings: List[ShapeFinding],
) -> Optional[_Contract]:
    dec = next(iter(core.decorators(node, "shapes")), None)
    if dec is None:
        return None
    params = [a.arg for a in node.args.posonlyargs + node.args.args]
    is_classmethod = any(
        isinstance(d, ast.Name) and d.id == "classmethod"
        for d in node.decorator_list)
    is_staticmethod = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list)
    kwonly = {a.arg for a in node.args.kwonlyargs}
    specs: Dict[str, _Spec] = {}
    returns: Optional[_Spec] = None
    ok = True
    for kw in dec.keywords:
        if kw.arg is None or not (
            isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str)
        ):
            findings.append(ShapeFinding(
                relpath, dec.lineno, "S5",
                "malformed @shapes declaration on %r: values must be "
                "string literals" % node.name))
            ok = False
            continue
        try:
            spec = parse_shape_spec(kw.value.value)
        except _SpecError as exc:
            findings.append(ShapeFinding(
                relpath, dec.lineno, "S5",
                "malformed @shapes declaration on %r: %s in %r"
                % (node.name, exc, kw.value.value)))
            ok = False
            continue
        if kw.arg == "returns":
            returns = spec
        elif kw.arg in params or kw.arg in kwonly:
            specs[kw.arg] = spec
        else:
            findings.append(ShapeFinding(
                relpath, dec.lineno, "S5",
                "@shapes on %r declares unknown parameter %r"
                % (node.name, kw.arg)))
            ok = False
    if not ok and not specs and returns is None:
        return None
    return _Contract(
        name=node.name,
        relpath=relpath,
        line=node.lineno,
        params=params,
        specs=specs,
        returns=returns,
        is_method=in_class and not is_staticmethod,
        is_classmethod=is_classmethod,
    )


def _contract_dim_resolver(contract: _Contract) -> Dict[str, Dim]:
    """Bindings mapping dimension-function atoms of declared params to
    their declared dimensions (``len(x)`` -> x's declared axis-0 dim,
    ``rows(A)``/``cols(A)`` -> A's declared row/col dims)."""
    bindings: Dict[str, Dim] = {}
    for pname, spec in contract.specs.items():
        if spec.kind == "array" and spec.dims and len(spec.dims) == 1:
            bindings["len(%s)" % pname] = spec.dims[0]
        elif spec.kind == "csc" and spec.dims:
            bindings["rows(%s)" % pname] = spec.dims[0]
            bindings["cols(%s)" % pname] = spec.dims[1]
    return bindings


def _val_from_spec(spec: _Spec, pname: str,
                   resolver: Dict[str, Dim]) -> _Val:
    if spec.kind == "dim":
        return _Val(kind="scalar", dim=_d_atom(pname), nonneg=True)
    if spec.kind == "scalar":
        b = _d_subst(spec.bound, resolver) if spec.bound is not None else None
        return _Val(kind="scalar", bound=b, nonneg=b is not None)
    if spec.kind == "csc":
        return _Val(
            kind="csc",
            rows=_d_subst(spec.dims[0], resolver),
            cols=_d_subst(spec.dims[1], resolver),
            nnz=_d_atom("nnz(%s)" % pname),
        )
    if spec.kind == "array":
        b = _d_subst(spec.bound, resolver) if spec.bound is not None else None
        return _Val(
            kind="array",
            dtype=spec.dtype,
            shape=tuple(_d_subst(d, resolver) for d in spec.dims),
            bound=b,
            nonneg=b is not None,
            sorted=True if spec.sorted else None,
            unique=True if spec.unique else None,
        )
    return _UNKNOWN


# ======================================================================
# Pins
# ======================================================================

def _scan_pins(module: core.Module, findings: List[ShapeFinding]) -> None:
    """Report ``# shapes:`` pins other than ``ignore`` (which the
    finalize step applies)."""
    for line, payload in module.pins("shapes"):
        if payload != "ignore":
            findings.append(ShapeFinding(
                module.relpath, line, "S5",
                "unknown '# shapes:' pin %r (only 'ignore' is "
                "supported)" % payload))


# ======================================================================
# The abstract interpreter
# ======================================================================

_REDUCEAT_UFUNCS = ("add", "subtract", "maximum", "minimum", "multiply")
_NARROW_DTYPES = ("i4", "i2", "u4")


class _ShapeInterp:
    """Interpret one function body, emitting S1-S5 findings."""

    def __init__(
        self,
        relpath: str,
        fn: ast.FunctionDef,
        contract: Optional[_Contract],
        registry: core.Registry,
        findings: List[ShapeFinding],
        kernel: bool,
        summaries: Dict[str, _Val],
    ) -> None:
        self.relpath = relpath
        self.fn = fn
        self.contract = contract
        self.registry = registry
        self.findings = findings
        self.kernel = kernel
        self.summaries = summaries
        self.env: Dict[str, _Val] = {}
        self.declared: Set[str] = set()
        self.returns: List[_Val] = []
        self._fresh = 0
        self._ver: Dict[str, int] = {}
        self._cs = 0

    # ------------------------------------------------------------------
    def run(self) -> _Val:
        if self.contract is not None:
            resolver = _contract_dim_resolver(self.contract)
            atoms: Set[str] = set()
            for spec in self.contract.specs.values():
                atoms |= _spec_atoms(spec)
            if self.contract.returns is not None:
                atoms |= _spec_atoms(self.contract.returns)
            for pname, spec in self.contract.specs.items():
                self.env[pname] = _val_from_spec(spec, pname, resolver)
            for pname in self.contract.params:
                if pname not in self.env and pname in atoms:
                    self.env[pname] = _Val(
                        kind="scalar", dim=_d_atom(pname), nonneg=True)
            self.declared = {a for a in atoms if "(" not in a}
            self._resolver = resolver
        else:
            self._resolver = {}
        for stmt in self.fn.body:
            self._stmt(stmt)
        ret = self.returns[0] if self.returns else _UNKNOWN
        for r in self.returns[1:]:
            ret = _join(ret, r)
        return ret

    def _emit(self, node: ast.AST, code: str, msg: str) -> None:
        self.findings.append(ShapeFinding(
            self.relpath, getattr(node, "lineno", self.fn.lineno), code, msg))

    def _fresh_atom(self) -> Dim:
        self._fresh += 1
        return _d_atom("?@%d" % self._fresh)

    def _bind(self, name: str, val: _Val) -> None:
        self._ver[name] = self._ver.get(name, 0) + 1
        self.env[name] = val

    def _len_atom(self, node: ast.expr) -> Dim:
        """A stable atom for the unknown length of a named variable."""
        if isinstance(node, ast.Name):
            ver = self._ver.get(node.id, 0)
            return _d_atom("len(%s)@%d" % (node.id, ver))
        return self._fresh_atom()

    # ------------------------------------------------------------------
    # statements

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            val = self._eval(node.value)
            for tgt in node.targets:
                self._assign(tgt, val)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign(node.target, self._eval(node.value))
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Subscript):
                self._store(node.target, self._eval(node.value), aug=True)
            elif isinstance(node.target, ast.Name):
                cur = self.env.get(node.target.id, _UNKNOWN)
                rhs = self._eval(node.value)
                self._bind(node.target.id, self._binop(node, cur, rhs, node.op))
        elif isinstance(node, ast.Expr):
            self._eval(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.returns.append(self._eval(node.value))
            else:
                self.returns.append(_Val(kind="any"))
        elif isinstance(node, ast.If):
            self._eval(node.test)
            env_t = dict(self.env)
            env_f = dict(self.env)
            self.env = env_t
            for s in node.body:
                self._stmt(s)
            env_t, self.env = self.env, env_f
            for s in node.orelse:
                self._stmt(s)
            self.env = _merge_envs(env_t, self.env)
        elif isinstance(node, (ast.For, ast.While)):
            if isinstance(node, ast.For):
                it = self._eval(node.iter)
                self._assign(node.target, self._iter_elem(it))
            else:
                self._eval(node.test)
            pre = dict(self.env)
            for s in node.body:
                self._stmt(s)
            for s in node.orelse:
                self._stmt(s)
            self.env = _merge_envs(pre, self.env)
        elif isinstance(node, ast.With):
            for item in node.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, _UNKNOWN)
            for s in node.body:
                self._stmt(s)
        elif isinstance(node, ast.Try):
            pre = dict(self.env)
            for s in node.body:
                self._stmt(s)
            body_env = self.env
            for handler in node.handlers:
                self.env = dict(pre)
                for s in handler.body:
                    self._stmt(s)
            self.env = body_env
            for s in node.finalbody:
                self._stmt(s)
        elif isinstance(node, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child)
        elif isinstance(node, ast.Delete):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    self.env.pop(tgt.id, None)
        # nested defs/classes/imports/pass/etc: skip

    def _iter_elem(self, it: _Val) -> _Val:
        if it.kind == "range":
            return _Val(kind="scalar", bound=it.bound, nonneg=it.nonneg)
        if it.kind == "array":
            return _Val(kind="scalar", dtype=it.dtype, bound=it.bound,
                        nonneg=it.nonneg)
        return _UNKNOWN

    def _assign(self, tgt: ast.expr, val: _Val) -> None:
        if isinstance(tgt, ast.Name):
            self._bind(tgt.id, val)
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            elts = val.elts if val.kind == "tuple" and val.elts else None
            for i, sub in enumerate(tgt.elts):
                if isinstance(sub, ast.Starred):
                    self._assign(sub.value, _UNKNOWN)
                elif elts is not None and i < len(elts):
                    self._assign(sub, elts[i])
                else:
                    self._assign(sub, _UNKNOWN)
        elif isinstance(tgt, ast.Subscript):
            self._store(tgt, val, aug=False)
        # attribute targets: no tracking

    # ------------------------------------------------------------------
    # subscripts

    def _check_gather(self, node: ast.AST, idx: _Val, length: Optional[Dim],
                      what: str) -> None:
        """S1 when an index is provably out of bounds for ``length``.

        Array indexes need a provable *lower bound on the max element*
        (``maxval``) plus provable nonemptiness — an over-approximate
        upper bound exceeding the buffer proves nothing."""
        if length is None:
            return
        if idx.kind == "scalar" and idx.dim is not None:
            if _d_nonneg(idx.dim) and _d_lt(idx.dim, length) is False:
                self._emit(node, "S1",
                           "%s: index %s is provably >= length %s"
                           % (what, _d_str(idx.dim), _d_str(length)))
        elif idx.kind == "array" and idx.maxval is not None \
                and _provably_nonempty(idx):
            if _d_lt(idx.maxval, length) is False:
                self._emit(node, "S1",
                           "%s: index reaches %s, provably >= buffer "
                           "length %s"
                           % (what, _d_str(idx.maxval), _d_str(length)))

    def _conform(self, node: ast.AST, a: _Val, b: _Val, what: str) -> None:
        """S3 when two 1-D operands have provably different lengths."""
        da, db = _axis0(a), _axis0(b)
        if da is None or db is None:
            return
        if len(a.shape or ()) != 1 or len(b.shape or ()) != 1:
            return
        if _d_eq(da, _d_const(1)) is True or _d_eq(db, _d_const(1)) is True:
            return  # broadcastable
        if _d_eq(da, db) is False:
            self._emit(node, "S3",
                       "%s: shapes (%s,) and (%s,) are provably different"
                       % (what, _d_str(da), _d_str(db)))
            return
        sa, sb = _d_single_atom(da), _d_single_atom(db)
        if (sa and sb and sa != sb and sa in self.declared
                and sb in self.declared):
            self._emit(node, "S3",
                       "%s: mixes declared dimensions %r and %r"
                       % (what, sa, sb))

    def _subscript_load(self, node: ast.Subscript) -> _Val:
        val = self._eval(node.value)
        sl = node.slice
        if val.kind == "tuple" and isinstance(sl, ast.Constant) \
                and isinstance(sl.value, int) and val.elts:
            if 0 <= sl.value < len(val.elts):
                return val.elts[sl.value]
            return _UNKNOWN
        if val.kind != "array":
            if isinstance(sl, ast.Slice):
                self._slice_parts(sl)
            else:
                self._eval(sl)
            return _UNKNOWN
        length = _axis0(val)
        if isinstance(sl, ast.Slice):
            return self._sliced(node, val, sl)
        if isinstance(sl, ast.Tuple):
            for e in sl.elts:
                if isinstance(e, ast.Slice):
                    self._slice_parts(e)
                else:
                    self._eval(e)
            return _Val(kind="array", dtype=val.dtype)
        idx = self._eval(sl)
        if idx.kind == "scalar":
            self._check_gather(node, idx, length, "gather")
            return _Val(kind="scalar", dtype=val.dtype, bound=val.bound,
                        nonneg=val.nonneg)
        if idx.kind == "array":
            if idx.dtype == "b1":
                self._conform(node, idx, val, "boolean mask")
                return _Val(kind="array", dtype=val.dtype, shape=(None,),
                            bound=val.bound, nonneg=val.nonneg,
                            sorted=val.sorted, unique=val.unique)
            self._check_gather(node, idx, length, "gather")
            srt = True if (val.sorted is True and idx.sorted is True) else None
            unq = True if (val.unique is True and idx.unique is True) else None
            return _Val(kind="array", dtype=val.dtype, shape=idx.shape,
                        bound=val.bound, nonneg=val.nonneg,
                        sorted=srt, unique=unq)
        return _Val(kind="array", dtype=val.dtype) if idx.kind == "any" \
            else _UNKNOWN

    def _slice_parts(self, sl: ast.Slice) -> Tuple[Optional[_Val], ...]:
        lo = self._eval(sl.lower) if sl.lower is not None else None
        hi = self._eval(sl.upper) if sl.upper is not None else None
        st = self._eval(sl.step) if sl.step is not None else None
        return lo, hi, st

    def _sliced(self, node: ast.AST, val: _Val, sl: ast.Slice) -> _Val:
        lo, hi, st = self._slice_parts(sl)
        length = _axis0(val)
        out_len: Optional[Dim] = None
        srt = val.sorted
        mv: Optional[Dim] = None
        if st is None:
            lo_d = lo.dim if lo is not None and lo.kind == "scalar" else (
                _d_const(0) if lo is None else None)
            hi_d = hi.dim if hi is not None and hi.kind == "scalar" else (
                length if hi is None else None)
            if lo_d is not None and hi_d is not None:
                neg_hi = not _d_nonneg(hi_d)
                if neg_hi and length is not None:
                    hi_d = _d_add(length, hi_d)
                    neg_hi = False
                if not neg_hi and _d_nonneg(lo_d):
                    ok_hi = length is None or _d_le(hi_d, length) is not False
                    if _d_le(lo_d, hi_d) is True and ok_hi:
                        out_len = _d_sub(hi_d, lo_d)
        elif st.kind == "scalar" and st.dim is not None \
                and _d_eq(st.dim, _d_const(-1)) is True \
                and lo is None and hi is None:
            out_len = length
            mv = val.maxval
            if val.sorted is True and length is not None \
                    and _d_le(_d_const(2), length) is True:
                srt = False
            else:
                srt = None
        else:
            srt = None
        return _Val(kind="array", dtype=val.dtype,
                    shape=(out_len,) if out_len is not None else (None,),
                    bound=val.bound, maxval=mv, nonneg=val.nonneg,
                    sorted=srt, unique=val.unique)

    def _store(self, node: ast.Subscript, rhs: _Val, aug: bool) -> None:
        val = self._eval(node.value)
        sl = node.slice
        if val.kind != "array":
            if isinstance(sl, ast.Slice):
                self._slice_parts(sl)
            else:
                self._eval(sl)
            return
        length = _axis0(val)
        if isinstance(sl, ast.Slice):
            out = self._sliced(node, val, sl)
            if rhs.kind == "array":
                self._conform(node, out, rhs, "sliced store")
            return
        if isinstance(sl, ast.Tuple):
            for e in sl.elts:
                if isinstance(e, ast.Slice):
                    self._slice_parts(e)
                else:
                    self._eval(e)
            return
        idx = self._eval(sl)
        if idx.kind == "scalar":
            self._check_gather(node, idx, length, "scatter")
            return
        if idx.kind == "array":
            if idx.dtype == "b1":
                self._conform(node, idx, val, "boolean mask store")
                return
            self._check_gather(node, idx, length, "scatter")
            if idx.unique is False:
                self._emit(node, "S2",
                           "scatter target provably contains duplicate "
                           "indices; updates would collide (use ufunc.at "
                           "or reduceat for accumulation)")
            if rhs.kind == "array":
                self._conform(node, idx, rhs, "scatter store")

    # ------------------------------------------------------------------
    # expressions

    def _eval(self, node: ast.expr) -> _Val:
        if isinstance(node, ast.Constant):
            v = node.value
            if isinstance(v, bool):
                return _Val(kind="scalar", dtype="b1")
            if isinstance(v, int):
                return _Val(kind="scalar", dim=_d_const(v), nonneg=v >= 0)
            if isinstance(v, float):
                return _Val(kind="scalar", dtype="f8")
            return _UNKNOWN
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _UNKNOWN)
        if isinstance(node, (ast.Tuple, ast.List)):
            return _Val(kind="tuple",
                        elts=tuple(self._eval(e) for e in node.elts))
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Subscript):
            return self._subscript_load(node)
        if isinstance(node, ast.BinOp):
            a = self._eval(node.left)
            b = self._eval(node.right)
            return self._binop(node, a, b, node.op)
        if isinstance(node, ast.UnaryOp):
            v = self._eval(node.operand)
            if isinstance(node.op, ast.USub) and v.kind == "scalar" \
                    and v.dim is not None:
                return _Val(kind="scalar", dim=_d_neg(v.dim))
            if isinstance(node.op, ast.Not):
                return _Val(kind="scalar", dtype="b1")
            if isinstance(node.op, ast.Invert) and v.kind == "array":
                return replace(v, bound=None, nonneg=False, sorted=None,
                               unique=None)
            return v if v.kind == "array" else _UNKNOWN
        if isinstance(node, ast.Compare):
            vals = [self._eval(node.left)] + [
                self._eval(c) for c in node.comparators]
            arrays = [v for v in vals if v.kind == "array"]
            for i in range(len(arrays) - 1):
                self._conform(node, arrays[i], arrays[i + 1], "comparison")
            if arrays:
                return _Val(kind="array", dtype="b1", shape=arrays[0].shape)
            return _Val(kind="scalar", dtype="b1")
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self._eval(v)
            return _UNKNOWN
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _join(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            for v in node.values:
                if isinstance(v, ast.FormattedValue):
                    self._eval(v.value)
            return _UNKNOWN
        # comprehensions/lambdas/etc: opaque (comp variables are local)
        return _UNKNOWN

    def _binop(self, node: ast.AST, a: _Val, b: _Val, op: ast.operator) -> _Val:
        if a.kind == "scalar" and b.kind == "scalar":
            if a.dim is not None and b.dim is not None:
                if isinstance(op, ast.Add):
                    return _Val(kind="scalar", dim=_d_add(a.dim, b.dim),
                                nonneg=a.nonneg and b.nonneg)
                if isinstance(op, ast.Sub):
                    d = _d_sub(a.dim, b.dim)
                    return _Val(kind="scalar", dim=d, nonneg=_d_nonneg(d))
                if isinstance(op, ast.Mult):
                    return _Val(kind="scalar", dim=_d_mul(a.dim, b.dim),
                                nonneg=a.nonneg and b.nonneg)
            if isinstance(op, ast.Mod) and b.dim is not None:
                return _Val(kind="scalar", bound=b.dim,
                            nonneg=a.nonneg and b.nonneg)
            return _Val(kind="scalar", dtype="f8" if "f8" in (a.dtype, b.dtype)
                        else None)
        if a.kind == "array" or b.kind == "array":
            if a.kind == "array" and b.kind == "array":
                self._conform(node, a, b, "elementwise op")
            arr = a if a.kind == "array" else b
            other = b if a.kind == "array" else a
            dtype = None
            if "f8" in (a.dtype, b.dtype) or isinstance(op, ast.Div):
                dtype = "f8"
            elif _is_int_dtype(arr.dtype) and (
                    other.kind != "array" or _is_int_dtype(other.dtype)):
                dtype = arr.dtype
            shape = arr.shape
            if a.kind == "array" and b.kind == "array" \
                    and _axis0(a) is None and _axis0(b) is not None:
                shape = b.shape
            nonneg = False
            if isinstance(op, (ast.Add, ast.Mult)):
                nonneg = a.nonneg and b.nonneg
            if isinstance(op, ast.Mod) and other.kind == "scalar" \
                    and other.dim is not None and a.kind == "array":
                return _Val(kind="array", dtype=arr.dtype, shape=shape,
                            bound=other.dim, nonneg=a.nonneg and other.nonneg)
            return _Val(kind="array", dtype=dtype, shape=shape, nonneg=nonneg)
        return _UNKNOWN

    def _attribute(self, node: ast.Attribute) -> _Val:
        obj = self._eval(node.value)
        attr = node.attr
        if obj.kind == "csc":
            if attr == "indptr":
                n_cols = obj.cols
                shape = (_d_add(n_cols, _d_const(1)),) if n_cols is not None \
                    else (None,)
                bound = _d_add(obj.nnz, _d_const(1)) if obj.nnz is not None \
                    else None
                return _Val(kind="array", dtype="i8", shape=shape,
                            bound=bound, nonneg=True, sorted=True)
            if attr == "indices":
                return _Val(kind="array", dtype="i8",
                            shape=(obj.nnz,) if obj.nnz is not None else (None,),
                            bound=obj.rows, nonneg=True)
            if attr == "data":
                return _Val(kind="array", dtype="f8",
                            shape=(obj.nnz,) if obj.nnz is not None else (None,))
            if attr == "n_rows":
                return _Val(kind="scalar", dim=obj.rows, nonneg=True)
            if attr == "n_cols":
                return _Val(kind="scalar", dim=obj.cols, nonneg=True)
            if attr == "nnz":
                return _Val(kind="scalar", dim=obj.nnz, nonneg=True)
            if attr == "shape":
                return _Val(kind="tuple", elts=(
                    _Val(kind="scalar", dim=obj.rows, nonneg=True),
                    _Val(kind="scalar", dim=obj.cols, nonneg=True)))
            return _UNKNOWN
        if obj.kind == "array":
            if attr == "size":
                if obj.shape is not None and len(obj.shape) == 1 \
                        and obj.shape[0] is not None:
                    return _Val(kind="scalar", dim=obj.shape[0], nonneg=True)
                return _Val(kind="scalar", dim=self._len_atom(node.value),
                            nonneg=True)
            if attr == "shape":
                if obj.shape is not None:
                    return _Val(kind="tuple", elts=tuple(
                        _Val(kind="scalar", dim=d, nonneg=True)
                        for d in obj.shape))
                return _UNKNOWN
            if attr == "T":
                return _Val(kind="array", dtype=obj.dtype)
        return _UNKNOWN

    # ------------------------------------------------------------------
    # calls

    def _call(self, node: ast.Call) -> _Val:
        func = node.func
        args = [self._eval(a) for a in node.args]
        kwargs = {kw.arg: self._eval(kw.value) for kw in node.keywords
                  if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)
        chain = _attr_chain(func) if isinstance(func, ast.Attribute) else None
        if chain is not None and chain[0] in ("np", "numpy"):
            return self._np_call(node, chain[1:], args, kwargs)
        if chain is not None and chain[0] == "CSC" and len(chain) == 2:
            return self._csc_classmethod(chain[1], args)
        if isinstance(func, ast.Name):
            return self._name_call(node, func.id, args, kwargs)
        if isinstance(func, ast.Attribute):
            recv = self._eval(func.value)
            return self._method_call(node, recv, func.attr, args, kwargs)
        self._eval(func)
        return _UNKNOWN

    def _name_call(self, node: ast.Call, name: str, args: List[_Val],
                   kwargs: Dict[str, _Val]) -> _Val:
        if name == "len" and len(node.args) == 1:
            v = args[0]
            if v.kind == "array" and v.shape and v.shape[0] is not None:
                return _Val(kind="scalar", dim=v.shape[0], nonneg=True)
            if v.kind == "tuple" and v.elts is not None:
                return _Val(kind="scalar", dim=_d_const(len(v.elts)),
                            nonneg=True)
            if v.kind == "array":
                return _Val(kind="scalar", dim=self._len_atom(node.args[0]),
                            nonneg=True)
            return _Val(kind="scalar", nonneg=True)
        if name == "range":
            if len(args) == 1:
                v = args[0]
                return _Val(kind="range",
                            bound=v.dim if v.kind == "scalar" else None,
                            nonneg=True)
            if len(args) >= 2:
                v = args[1]
                return _Val(
                    kind="range",
                    bound=v.dim if v.kind == "scalar" else None,
                    nonneg=args[0].kind == "scalar"
                    and args[0].dim is not None and _d_nonneg(args[0].dim))
            return _Val(kind="range")
        if name == "int" and len(args) == 1:
            v = args[0]
            if v.kind == "scalar":
                return replace(v, dtype=None)
            return _Val(kind="scalar")
        if name == "float" and len(args) == 1:
            return _Val(kind="scalar", dtype="f8")
        if name in ("enumerate", "zip", "sorted", "list", "tuple", "set",
                    "dict", "reversed", "isinstance", "getattr", "hasattr",
                    "print", "repr", "str", "bool", "abs", "sum"):
            return _UNKNOWN
        if name in ("min", "max") and len(args) >= 2:
            return _Val(kind="scalar")
        if name == "CSC":
            return self._csc_ctor(args)
        contract = self.registry.resolve(name)
        if contract is not None and not contract.is_method:
            return self._contract_call(node, contract, args, kwargs)
        summ = self.summaries.get(name)
        if summ is not None:
            return summ
        return _UNKNOWN

    def _csc_ctor(self, args: List[_Val]) -> _Val:
        rows = args[0].dim if len(args) > 0 and args[0].kind == "scalar" else None
        cols = args[1].dim if len(args) > 1 and args[1].kind == "scalar" else None
        nnz = _axis0(args[4]) if len(args) > 4 else None
        return _Val(kind="csc", rows=rows, cols=cols, nnz=nnz)

    def _csc_classmethod(self, name: str, args: List[_Val]) -> _Val:
        if name == "empty" and len(args) >= 2:
            return _Val(kind="csc",
                        rows=args[0].dim if args[0].kind == "scalar" else None,
                        cols=args[1].dim if args[1].kind == "scalar" else None,
                        nnz=_d_const(0))
        if name == "identity" and len(args) >= 1:
            d = args[0].dim if args[0].kind == "scalar" else None
            return _Val(kind="csc", rows=d, cols=d, nnz=d)
        if name == "from_coo":
            return _Val(kind="csc")
        return _UNKNOWN

    def _method_call(self, node: ast.Call, recv: _Val, name: str,
                     args: List[_Val], kwargs: Dict[str, _Val]) -> _Val:
        if recv.kind == "array":
            if name == "astype":
                tgt = None
                if node.args:
                    tgt = _dtype_tag_of_expr(node.args[0])
                if tgt in _NARROW_DTYPES and self.kernel and (
                        recv.dtype is None or _is_int_dtype(recv.dtype)
                        or recv.dtype == "f8"):
                    self._emit(node, "S4",
                               "narrowing cast to %s breaks the package-wide "
                               "int64 index discipline" % tgt)
                return replace(recv, dtype=tgt if tgt else recv.dtype)
            if name == "copy":
                return recv
            if name in ("sum",):
                return _Val(kind="scalar",
                            dtype="f8" if recv.dtype == "f8" else None,
                            nonneg=recv.nonneg)
            if name in ("max", "min"):
                return _Val(kind="scalar", dtype=recv.dtype, bound=recv.bound,
                            nonneg=recv.nonneg)
            if name == "searchsorted" and args:
                return self._searchsorted(recv, args[0])
            if name == "argsort":
                return self._argsort(recv)
            if name in ("cumsum",):
                return _Val(kind="array", dtype=recv.dtype, shape=recv.shape,
                            sorted=True if recv.nonneg else None,
                            nonneg=recv.nonneg)
            if name in ("fill", "sort", "tolist", "item", "any", "all",
                        "nonzero", "reshape", "ravel", "mean", "dot",
                        "view"):
                return _UNKNOWN
        if recv.kind == "csc":
            contract = self.registry.resolve(name)
            if contract is not None and contract.is_method:
                self_spec = contract.specs.get("self")
                if self_spec is not None and self_spec.kind == "csc":
                    return self._contract_call(node, contract, args, kwargs,
                                               recv=recv)
            return _UNKNOWN
        return _UNKNOWN

    # ------------------------------------------------------------------
    # numpy model

    def _searchsorted(self, a: _Val, v: _Val) -> _Val:
        la = _axis0(a)
        bound = _d_add(la, _d_const(1)) if la is not None else None
        if v.kind == "array":
            return _Val(kind="array", dtype="i8", shape=v.shape, bound=bound,
                        nonneg=True, sorted=v.sorted)
        return _Val(kind="scalar", dtype="i8", bound=bound, nonneg=True)

    def _argsort(self, x: _Val) -> _Val:
        lx = _axis0(x)
        return _Val(kind="array", dtype="i8", shape=x.shape, bound=lx,
                    maxval=_d_sub(lx, _d_const(1)) if lx is not None else None,
                    nonneg=True, unique=True)

    def _alloc_shape(self, node: ast.Call, arg: _Val
                     ) -> Optional[Tuple[Optional[Dim], ...]]:
        if arg.kind == "scalar":
            if arg.dim is not None:
                if any(len(m) >= 2 for m in arg.dim) and self.kernel:
                    self._emit(node, "S4",
                               "flat allocation length %s is a product of "
                               "dimensions (int32-overflow hazard; allocate "
                               "2-D or pre-widen)" % _d_str(arg.dim))
                return (arg.dim,)
            return (None,)
        if arg.kind == "tuple" and arg.elts is not None:
            return tuple(e.dim if e.kind == "scalar" else None
                         for e in arg.elts)
        return None

    def _dtype_kwarg(self, node: ast.Call, default: Optional[str]
                     ) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg == "dtype":
                tag = _dtype_tag_of_expr(kw.value)
                if tag in _NARROW_DTYPES and self.kernel:
                    self._emit(node, "S4",
                               "%s index array created in kernel code (the "
                               "tree is int64-only)" % tag)
                return tag if tag is not None else None
        return default

    def _np_call(self, node: ast.Call, chain: List[str], args: List[_Val],
                 kwargs: Dict[str, _Val]) -> _Val:
        if len(chain) == 2 and chain[0] in _REDUCEAT_UFUNCS:
            ufunc, meth = chain
            if meth == "reduceat" and len(args) >= 2:
                v, seg = args[0], args[1]
                lv = _axis0(v)
                if seg.kind == "array":
                    if seg.sorted is False:
                        self._emit(node, "S2",
                                   "reduceat segment starts are provably "
                                   "unsorted")
                    if seg.maxval is not None and lv is not None \
                            and _provably_nonempty(seg) \
                            and _d_lt(seg.maxval, lv) is False:
                        self._emit(node, "S2",
                                   "reduceat segment starts reach %s, "
                                   "provably >= operand length %s"
                                   % (_d_str(seg.maxval), _d_str(lv)))
                return _Val(kind="array", dtype=v.dtype,
                            shape=seg.shape if seg.kind == "array" else None)
            if meth == "at" and len(args) >= 2:
                tgt, idx = args[0], args[1]
                if idx.kind == "array":
                    self._check_gather(node, idx, _axis0(tgt), "ufunc.at")
                return _UNKNOWN
            if meth == "reduce":
                return _Val(kind="scalar")
            return _UNKNOWN
        if len(chain) != 1:
            return _UNKNOWN
        name = chain[0]
        if name in ("zeros", "empty", "ones"):
            shape = self._alloc_shape(node, args[0]) if args else None
            dtype = self._dtype_kwarg(node, "f8")
            return _Val(kind="array", dtype=dtype, shape=shape,
                        nonneg=name != "empty" and dtype != "f8")
        if name == "full":
            shape = self._alloc_shape(node, args[0]) if args else None
            fill = args[1] if len(args) > 1 else _UNKNOWN
            dtype = self._dtype_kwarg(
                node, "f8" if fill.dtype == "f8" else None)
            nonneg = fill.kind == "scalar" and fill.dim is not None \
                and _d_nonneg(fill.dim)
            return _Val(kind="array", dtype=dtype, shape=shape, nonneg=nonneg)
        if name in ("zeros_like", "empty_like", "ones_like"):
            src = args[0] if args else _UNKNOWN
            dtype = self._dtype_kwarg(node, src.dtype)
            return _Val(kind="array", dtype=dtype, shape=src.shape)
        if name == "arange":
            dtype = self._dtype_kwarg(node, "i8")
            dims = [a.dim if a.kind == "scalar" else None for a in args]
            if len(args) == 1 and dims[0] is not None:
                return _Val(kind="array", dtype=dtype, shape=(dims[0],),
                            bound=dims[0],
                            maxval=_d_sub(dims[0], _d_const(1)),
                            nonneg=True, sorted=True, unique=True)
            if len(args) == 2 and dims[0] is not None and dims[1] is not None \
                    and _d_nonneg(dims[0]) \
                    and _d_le(dims[0], dims[1]) is True:
                return _Val(kind="array", dtype=dtype,
                            shape=(_d_sub(dims[1], dims[0]),),
                            bound=dims[1],
                            maxval=_d_sub(dims[1], _d_const(1)),
                            nonneg=True, sorted=True, unique=True)
            return _Val(kind="array", dtype=dtype, sorted=None, unique=True)
        if name in ("asarray", "array", "ascontiguousarray", "asfortranarray"):
            src = args[0] if args else _UNKNOWN
            dtype = self._dtype_kwarg(node, src.dtype)
            if src.kind == "array":
                narrowed = dtype in _NARROW_DTYPES and (
                    src.dtype is None or _is_int_dtype(src.dtype)
                    or src.dtype == "f8")
                if narrowed and self.kernel:
                    pass  # already reported by _dtype_kwarg
                return replace(src, dtype=dtype if dtype else src.dtype)
            if src.kind == "tuple" and src.elts is not None:
                return _Val(kind="array", dtype=dtype,
                            shape=(_d_const(len(src.elts)),))
            return _Val(kind="array", dtype=dtype)
        if name == "flatnonzero":
            src = args[0] if args else _UNKNOWN
            return _Val(kind="array", dtype="i8", shape=(None,),
                        bound=_axis0(src), nonneg=True, sorted=True,
                        unique=True)
        if name == "concatenate":
            parts = args[0].elts if args and args[0].kind == "tuple" else None
            if parts:
                total: Optional[Dim] = _d_const(0)
                dtype = parts[0].dtype
                nonneg = True
                for p in parts:
                    d = _axis0(p)
                    total = _d_add(total, d) if (total is not None
                                                 and d is not None) else None
                    if p.dtype != dtype:
                        dtype = None
                    nonneg = nonneg and p.nonneg
                bounds = [p.bound for p in parts]
                bound = bounds[0] if bounds and all(
                    b is not None and _d_eq(b, bounds[0]) is True
                    for b in bounds) else None
                return _Val(kind="array", dtype=dtype,
                            shape=(total,) if total is not None else (None,),
                            bound=bound, nonneg=nonneg)
            return _Val(kind="array")
        if name == "repeat":
            x = args[0] if args else _UNKNOWN
            reps = args[1] if len(args) > 1 else _UNKNOWN
            out_len: Optional[Dim] = None
            lx = _axis0(x)
            if x.kind == "scalar":
                if reps.kind == "scalar" and reps.dim is not None:
                    out_len = reps.dim
                return _Val(kind="array", dtype=x.dtype,
                            shape=(out_len,) if out_len is not None else (None,),
                            nonneg=x.nonneg, sorted=True,
                            bound=None)
            mv = None
            if reps.kind == "scalar" and reps.dim is not None:
                if lx is not None:
                    out_len = _d_mul(lx, reps.dim)
                if _d_le(_d_const(1), reps.dim) is True:
                    mv = x.maxval
            return _Val(kind="array", dtype=x.dtype,
                        shape=(out_len,) if out_len is not None else (None,),
                        bound=x.bound, maxval=mv, nonneg=x.nonneg,
                        sorted=x.sorted)
        if name == "cumsum":
            x = args[0] if args else _UNKNOWN
            return _Val(kind="array", dtype=x.dtype, shape=x.shape,
                        sorted=True if x.nonneg else None, nonneg=x.nonneg)
        if name == "diff":
            x = args[0] if args else _UNKNOWN
            lx = _axis0(x)
            return _Val(kind="array", dtype=x.dtype,
                        shape=(_d_sub(lx, _d_const(1)),) if lx is not None
                        else (None,),
                        nonneg=x.sorted is True)
        if name == "searchsorted" and args:
            return self._searchsorted(args[0],
                                      args[1] if len(args) > 1 else _UNKNOWN)
        if name == "bincount":
            x = args[0] if args else _UNKNOWN
            minlength = kwargs.get("minlength")
            shape: Optional[Tuple[Optional[Dim], ...]] = (None,)
            if minlength is not None and minlength.kind == "scalar" \
                    and minlength.dim is not None and x.kind == "array" \
                    and x.bound is not None \
                    and _d_le(x.bound, minlength.dim) is True:
                shape = (minlength.dim,)
            return _Val(kind="array", dtype="i8", shape=shape, nonneg=True)
        if name in ("argsort", "lexsort"):
            if name == "lexsort":
                keys = args[0] if args else _UNKNOWN
                first = keys.elts[0] if keys.kind == "tuple" and keys.elts \
                    else _UNKNOWN
                return self._argsort(first)
            return self._argsort(args[0] if args else _UNKNOWN)
        if name == "unique":
            x = args[0] if args else _UNKNOWN
            return _Val(kind="array", dtype=x.dtype, shape=(None,),
                        bound=x.bound, maxval=x.maxval, nonneg=x.nonneg,
                        sorted=True, unique=True)
        if name == "sort":
            x = args[0] if args else _UNKNOWN
            return replace(x, sorted=True) if x.kind == "array" else _UNKNOWN
        if name in ("max", "amax", "min", "amin"):
            x = args[0] if args else _UNKNOWN
            return _Val(kind="scalar", dtype=x.dtype, bound=x.bound,
                        nonneg=x.nonneg)
        if name == "sum":
            x = args[0] if args else _UNKNOWN
            return _Val(kind="scalar",
                        dtype="f8" if x.dtype == "f8" else None,
                        nonneg=x.nonneg)
        if name in ("abs", "absolute"):
            x = args[0] if args else _UNKNOWN
            if x.kind == "array":
                return replace(x, nonneg=True, sorted=None)
            return _Val(kind="scalar", nonneg=True, dtype=x.dtype)
        if name in ("minimum", "maximum"):
            a = args[0] if args else _UNKNOWN
            b = args[1] if len(args) > 1 else _UNKNOWN
            if a.kind == "array" and b.kind == "array":
                self._conform(node, a, b, "elementwise %s" % name)
            arr = a if a.kind == "array" else b
            bound = None
            if name == "minimum":
                bound = a.bound if a.bound is not None else b.bound
            elif a.bound is not None and b.bound is not None:
                bound = a.bound if _d_le(b.bound, a.bound) is True else (
                    b.bound if _d_le(a.bound, b.bound) is True else None)
            return _Val(kind="array" if arr.kind == "array" else "scalar",
                        dtype=arr.dtype, shape=arr.shape, bound=bound,
                        nonneg=a.nonneg and b.nonneg)
        if name == "where" and len(args) == 3:
            c, a, b = args
            if a.kind == "array" and b.kind == "array":
                self._conform(node, a, b, "np.where branches")
            arr = a if a.kind == "array" else (b if b.kind == "array" else c)
            return _Val(kind="array", dtype=a.dtype if a.dtype == b.dtype
                        else None, shape=arr.shape,
                        nonneg=a.nonneg and b.nonneg)
        if name == "clip":
            x = args[0] if args else _UNKNOWN
            return _Val(kind="array", dtype=x.dtype, shape=x.shape) \
                if x.kind == "array" else _UNKNOWN
        if name in ("copy",):
            return args[0] if args else _UNKNOWN
        if name in ("all", "any"):
            return _Val(kind="scalar", dtype="b1")
        if name in ("dot", "outer", "linalg", "errstate", "isnan", "isinf",
                    "isfinite", "count_nonzero", "array_equal", "allclose",
                    "nonzero", "split", "setdiff1d", "intersect1d"):
            return _UNKNOWN
        return _UNKNOWN

    # ------------------------------------------------------------------
    # contract call sites (S5) and return instantiation

    def _contract_call(self, node: ast.Call, contract: _Contract,
                       args: List[_Val], kwargs: Dict[str, _Val],
                       recv: Optional[_Val] = None) -> _Val:
        self._cs += 1
        suffix = "@cs%d-%d" % (id(self) % 100000, self._cs)
        bindings: Dict[str, Dim] = {}

        def rename(d: Dim) -> Dim:
            out: Dim = {}
            for mono, c in d.items():
                nm = tuple(a if "(" in a else a + suffix for a in mono)
                out[nm] = out.get(nm, 0) + c
            return out

        resolver = _contract_dim_resolver(contract)

        def inst(d: Dim) -> Dim:
            return _d_subst(rename(_d_subst(d, resolver)), bindings)

        def unify(d: Dim, actual: Optional[Dim], pname: str,
                  what: str) -> None:
            if actual is None:
                return
            rd = rename(_d_subst(d, resolver))
            atom = _d_single_atom(rd)
            if atom is not None and atom not in bindings:
                bindings[atom] = actual
                return
            want = _d_subst(rd, bindings)
            if _d_eq(want, actual) is False:
                self._emit(node, "S5",
                           "call to %s(): %s of %r is %s, contract "
                           "declares %s" % (contract.name, what, pname,
                                            _d_str(actual), _d_str(want)))

        # positional/keyword parameter mapping
        params = list(contract.params)
        pairs: List[Tuple[str, _Val]] = []
        if recv is not None and contract.is_method:
            if params:
                pairs.append((params[0], recv))
                params = params[1:]
        elif contract.is_method and params:
            params = params[1:]  # plain-name call of a method: skip self
        for i, v in enumerate(args):
            if i < len(params):
                pairs.append((params[i], v))
        for k, v in kwargs.items():
            if k in contract.params:
                pairs.append((k, v))

        # Pass A: bind every named dimension (dim params, csc shapes,
        # array axes) before pass B checks qualifier constraints, so a
        # later positional argument can bind an earlier bound's atom.
        for pname, v in pairs:
            spec = contract.specs.get(pname)
            if spec is None:
                continue
            if spec.kind == "dim":
                if v.kind == "scalar":
                    unify(_d_atom(pname), v.dim, pname, "value")
                continue
            if spec.kind == "csc":
                if v.kind == "array":
                    self._emit(node, "S5",
                               "call to %s(): %r is an array, contract "
                               "declares a CSC matrix"
                               % (contract.name, pname))
                    continue
                if v.kind != "csc":
                    continue
                unify(spec.dims[0], v.rows, pname, "row count")
                unify(spec.dims[1], v.cols, pname, "column count")
                if v.nnz is not None:
                    bindings.setdefault("nnz(%s)" % pname, v.nnz)
                continue
            if spec.kind != "array":
                continue
            if v.kind == "csc":
                self._emit(node, "S5",
                           "call to %s(): %r is a CSC matrix, contract "
                           "declares an array" % (contract.name, pname))
                continue
            if v.kind != "array":
                continue
            if v.shape is not None and spec.dims is not None \
                    and len(v.shape) == len(spec.dims):
                for axis, (d, actual) in enumerate(zip(spec.dims, v.shape)):
                    unify(d, actual, pname, "axis-%d length" % axis)

        # Pass B: qualifier constraints against the full binding set.
        for pname, v in pairs:
            spec = contract.specs.get(pname)
            if spec is None or spec.kind != "array" or v.kind != "array":
                continue
            if spec.dtype is not None and v.dtype is not None \
                    and spec.dtype != v.dtype:
                conflict = (spec.dtype == "f8") != (v.dtype == "f8") \
                    or v.dtype == "b1" or spec.dtype == "b1" \
                    or (spec.dtype == "i8" and v.dtype in _NARROW_DTYPES)
                if conflict:
                    self._emit(node, "S5",
                               "call to %s(): %r has dtype %s, contract "
                               "declares %s" % (contract.name, pname,
                                                v.dtype, spec.dtype))
            if spec.sorted and v.sorted is False:
                self._emit(node, "S5",
                           "call to %s(): %r is provably unsorted, contract "
                           "declares sorted" % (contract.name, pname))
            if spec.unique and v.unique is False:
                self._emit(node, "S5",
                           "call to %s(): %r provably contains duplicates, "
                           "contract declares unique"
                           % (contract.name, pname))
            if spec.bound is not None and v.maxval is not None \
                    and _provably_nonempty(v):
                want = inst(spec.bound)
                if _d_lt(v.maxval, want) is False:
                    self._emit(node, "S5",
                               "call to %s(): %r has values reaching %s, "
                               "contract requires values < %s"
                               % (contract.name, pname, _d_str(v.maxval),
                                  _d_str(want)))

        ret = contract.returns
        if ret is None:
            return _UNKNOWN
        if ret.kind == "csc":
            return _Val(kind="csc", rows=inst(ret.dims[0]),
                        cols=inst(ret.dims[1]))
        if ret.kind == "array":
            return _Val(
                kind="array", dtype=ret.dtype,
                shape=tuple(inst(d) for d in ret.dims),
                bound=inst(ret.bound) if ret.bound is not None else None,
                nonneg=ret.bound is not None,
                sorted=True if ret.sorted else None,
                unique=True if ret.unique else None)
        if ret.kind in ("scalar", "dim"):
            return _Val(kind="scalar",
                        bound=inst(ret.bound) if ret.bound is not None
                        else None,
                        nonneg=ret.bound is not None)
        return _UNKNOWN

    # ------------------------------------------------------------------
    # declared-vs-inferred return checking (S5)

    def check_returns(self) -> None:
        contract = self.contract
        if contract is None or contract.returns is None:
            return
        spec = contract.returns
        if spec.kind == "any":
            return
        for inferred in self.returns:
            if inferred.kind == "any":
                continue
            if spec.kind == "array":
                if inferred.kind == "csc":
                    self._emit(self.fn, "S5",
                               "%s(): returns a CSC matrix, contract "
                               "declares %r" % (contract.name, spec.text))
                    continue
                if inferred.kind != "array":
                    if inferred.kind in ("scalar", "tuple"):
                        self._emit(
                            self.fn, "S5",
                            "%s(): returns a %s, contract declares %r"
                            % (contract.name, inferred.kind, spec.text))
                    continue
                if spec.dtype is not None and inferred.dtype is not None \
                        and ((spec.dtype == "f8") != (inferred.dtype == "f8")):
                    self._emit(
                        self.fn, "S5",
                        "%s(): returns dtype %s, contract declares %s"
                        % (contract.name, inferred.dtype, spec.dtype))
                if inferred.shape is not None and spec.dims is not None \
                        and len(inferred.shape) == len(spec.dims):
                    want = [_d_subst(d, self._resolver) for d in spec.dims]
                    for axis, (w, got) in enumerate(zip(want, inferred.shape)):
                        if _d_eq(w, got) is False:
                            self._emit(
                                self.fn, "S5",
                                "%s(): returned axis-%d length is %s, "
                                "contract declares %s"
                                % (contract.name, axis, _d_str(got),
                                   _d_str(w)))
            elif spec.kind == "csc":
                if inferred.kind == "array":
                    self._emit(self.fn, "S5",
                               "%s(): returns an array, contract "
                               "declares %r" % (contract.name, spec.text))
                elif inferred.kind == "csc":
                    want_r = _d_subst(spec.dims[0], self._resolver)
                    want_c = _d_subst(spec.dims[1], self._resolver)
                    if _d_eq(want_r, inferred.rows) is False \
                            or _d_eq(want_c, inferred.cols) is False:
                        self._emit(
                            self.fn, "S5",
                            "%s(): returns a %s x %s CSC, contract declares "
                            "csc[%s,%s]" % (contract.name,
                                            _d_str(inferred.rows),
                                            _d_str(inferred.cols),
                                            _d_str(want_r), _d_str(want_c)))


# ======================================================================
# The pass and its entry points
# ======================================================================


@dataclass
class _FnInfo:
    relpath: str
    node: ast.FunctionDef
    contract: Optional[_Contract]
    kernel: bool


def _collect_functions(
    index: core.ModuleIndex,
    findings: List[ShapeFinding],
    registry: core.Registry,
) -> List[_FnInfo]:
    infos: List[_FnInfo] = []
    for module in index.parsed:
        _scan_pins(module, findings)
        kernel = module.in_scope(DETERMINISTIC_DIRS)
        # source order: the summary fixed point below is order-sensitive
        for fn in sorted(module.functions,
                         key=lambda f: (f.node.lineno, f.node.col_offset)):
            if not isinstance(fn.node, ast.FunctionDef):
                continue
            contract = _parse_shapes_decorator(
                fn.node, module.relpath, fn.in_class, findings)
            if contract is not None:
                registry.add(contract)
            infos.append(_FnInfo(module.relpath, fn.node, contract, kernel))
    return infos


def _flags_only(v: _Val) -> _Val:
    """Strip dims from a return value so it can travel across functions
    (dimension atoms are function-local)."""
    if v.kind not in ("array", "scalar", "csc"):
        return _UNKNOWN
    return _Val(kind=v.kind, dtype=v.dtype, nonneg=v.nonneg,
                sorted=v.sorted, unique=v.unique)


def _analyze(index: core.ModuleIndex) -> List[ShapeFinding]:
    findings: List[ShapeFinding] = []
    registry = core.Registry()
    infos = _collect_functions(index, findings, registry)

    # Pass 1: infer per-function return summaries (flags only) for
    # unannotated single-definition functions, propagated call-graph
    # style: run to a short fixed point so chains of helpers converge.
    summaries: Dict[str, _Val] = {}
    names: Dict[str, int] = {}
    for info in infos:
        names[info.node.name] = names.get(info.node.name, 0) + 1

    def step() -> bool:
        changed = False
        for info in infos:
            if info.contract is not None or names[info.node.name] != 1:
                continue
            interp = _ShapeInterp(info.relpath, info.node, None, registry,
                                  [], info.kernel, summaries)
            ret = _flags_only(interp.run())
            if summaries.get(info.node.name) != ret:
                summaries[info.node.name] = ret
                changed = True
        return changed

    core.fixed_point(step, 2)

    # Pass 2: emit findings.
    for info in infos:
        if not index.reported(info.relpath):
            continue
        interp = _ShapeInterp(info.relpath, info.node, info.contract, registry,
                              findings, info.kernel, summaries)
        interp.run()
        interp.check_returns()
    return findings


SHAPES = core.Checker("S5", _analyze, ignore_tag="shapes")


def check_shapes_source(
    source: str,
    relpath: str = "<string>",
    extra_sources: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[ShapeFinding]:
    """Check one source string (treated as kernel code so S4 fires)."""
    return core.check_source(SHAPES, source, relpath, extra_sources)


def check_shapes_paths(paths: Sequence[str]) -> List[ShapeFinding]:
    """Check explicit files against the package's contracts.

    The package sources contribute contracts and summaries; findings
    are reported only for the given files, under the path as given,
    and the files are treated as kernel code (so fixtures exercise the
    int64-discipline rules)."""
    return core.check_paths(SHAPES, paths)


def check_shapes_tree(root: Optional[str] = None) -> List[ShapeFinding]:
    """Check every module of the package tree."""
    return core.check_tree(SHAPES, root)


def collect_shape_contracts(
    root: Optional[str] = None,
) -> Dict[str, List[Tuple[str, int]]]:
    """Map of contract name -> [(relpath, line)] across the tree."""
    registry = core.Registry()
    _collect_functions(core.tree_index(root), [], registry)
    return {name: [(c.relpath, c.line) for c in group]
            for name, group in registry.by_name.items()}


# ======================================================================
# Runtime shape-contract checking (differential mode)
# ======================================================================


def _rt_dim_value(d: Dim, bindings: Dict[str, int],
                  values: Dict[str, object]) -> Optional[int]:
    total = 0
    for mono, c in d.items():
        term = c
        for atom in mono:
            if atom in bindings:
                term *= bindings[atom]
            else:
                v = _rt_atom_value(atom, values)
                if v is None:
                    return None
                bindings[atom] = v
                term *= v
        total += term
    return total


def _rt_atom_value(atom: str, values: Dict[str, object]) -> Optional[int]:
    m = re.match(r"(len|nnz|rows|cols)\((\w+)\)$", atom)
    if m is None:
        return None
    func, pname = m.groups()
    if pname not in values:
        return None
    v = values[pname]
    try:
        if func == "len":
            return int(len(v))
        if func == "nnz":
            return int(v.nnz)
        if func == "rows":
            return int(v.n_rows)
        if func == "cols":
            return int(v.n_cols)
    except Exception:
        return None
    return None


_RT_DTYPES = {"f8": "float64", "i8": "int64", "i4": "int32", "i2": "int16",
              "u4": "uint32", "b1": "bool"}


def _rt_check_spec(fname: str, pname: str, spec: _Spec, value: object,
                   bindings: Dict[str, int],
                   values: Dict[str, object]) -> None:
    def bail(msg: str) -> None:
        raise ShapeContractError(
            "%s(): %s violates its shape contract %r: %s"
            % (fname, pname, spec.text, msg))

    if spec.kind == "any":
        return
    if spec.kind in ("dim", "scalar"):
        if value is None:
            return
        try:
            iv = int(value)
        except (TypeError, ValueError):
            bail("not an integer scalar")
            return
        if spec.kind == "dim":
            prev = bindings.setdefault(pname, iv)
            if prev != iv:
                bail("dimension %s bound to %d, got %d" % (pname, prev, iv))
        if spec.bound is not None:
            b = _rt_dim_value(spec.bound, bindings, values)
            if b is not None and not (0 <= iv < b):
                bail("value %d outside [0, %d)" % (iv, b))
        return
    if value is None:
        return
    if spec.kind == "csc":
        if not (hasattr(value, "n_rows") and hasattr(value, "n_cols")):
            bail("not a CSC matrix")
        for d, actual in zip(spec.dims, (value.n_rows, value.n_cols)):
            atom = _d_single_atom(d)
            if atom is not None and atom not in bindings:
                bindings[atom] = int(actual)
                continue
            want = _rt_dim_value(d, bindings, values)
            if want is not None and want != int(actual):
                bail("dimension is %d, contract requires %d"
                     % (int(actual), want))
        return
    arr = np.asarray(value)
    if spec.dtype is not None:
        want_dt = _RT_DTYPES[spec.dtype]
        if arr.dtype != np.dtype(want_dt):
            bail("dtype is %s, contract declares %s" % (arr.dtype, want_dt))
    if spec.dims is not None:
        if arr.ndim != len(spec.dims):
            bail("rank is %d, contract declares %d"
                 % (arr.ndim, len(spec.dims)))
        for axis, (d, actual) in enumerate(zip(spec.dims, arr.shape)):
            atom = _d_single_atom(d)
            if atom is not None and atom not in bindings:
                bindings[atom] = int(actual)
                continue
            want = _rt_dim_value(d, bindings, values)
            if want is not None and want != int(actual):
                bail("axis-%d length is %d, contract requires %d"
                     % (axis, int(actual), want))
    if arr.size:
        if spec.sorted and np.any(np.diff(arr) < 0):
            bail("values are not nondecreasing")
        if spec.unique and np.unique(arr).size != arr.size:
            bail("values are not pairwise distinct")
        if spec.bound is not None:
            b = _rt_dim_value(spec.bound, bindings, values)
            if b is not None:
                mn, mx = arr.min(), arr.max()
                if mn < 0 or mx >= b:
                    bail("value range [%s, %s] outside [0, %d)"
                         % (mn, mx, b))


_MISSING = object()


def check_call_contract(fn, args: tuple, kwargs: dict,
                        result: object = _MISSING) -> None:
    """Validate one concrete call against ``fn``'s ``@shapes`` contract.

    Binds the call like the interpreter would, unifies the named
    dimensions against the concrete values, and raises
    :class:`ShapeContractError` on any violation — the differential
    counterpart of the static S5 checks.  Functions without a contract
    pass trivially.
    """
    decls = getattr(fn, "__shapes__", None)
    if not decls:
        return
    try:
        sig = inspect.signature(fn)
        bound = sig.bind_partial(*args, **kwargs)
        bound.apply_defaults()
    except TypeError:
        return
    values = dict(bound.arguments)
    specs: Dict[str, _Spec] = {}
    for pname, text in decls.items():
        specs[pname] = parse_shape_spec(text)
    bindings: Dict[str, int] = {}
    for pname, spec in specs.items():
        if pname == "returns":
            continue
        if pname in values:
            _rt_check_spec(fn.__name__, pname, spec, values[pname],
                           bindings, values)
    if result is not _MISSING and "returns" in specs:
        _rt_check_spec(fn.__name__, "return value", specs["returns"], result,
                       bindings, values)


def contract_checked(fn):
    """Wrap ``fn`` so every call is validated against its ``@shapes``
    contract (parameters before the call, the return value after)."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        check_call_contract(fn, args, kwargs)
        result = fn(*args, **kwargs)
        check_call_contract(fn, args, kwargs, result=result)
        return result

    return wrapper
