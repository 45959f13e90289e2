"""Shared core of the source-level checkers: one module index, one driver.

``lint``, ``domains``, ``effects`` and ``shapes`` are passes over a
:class:`ModuleIndex`.  The index walks the package once, parses each
module once (a syntax error becomes each checker's R0/D5/E0/S5
finding), tokenizes its comments once (serving the ``# domain:``,
``# effects:`` and ``# shapes:`` pins) and holds the function table
every pass shares.  :func:`run` adds the syntax findings and applies
the one finalize step: report-for filter, ``# <tag>: ignore`` lines,
dedupe, sort.

Every checker exposes the same three entry shapes, all built on
:func:`run`: :func:`check_source` (one source string plus companions),
:func:`check_paths` (explicit files checked against the package; the
files are reported under the path as given and treated as kernel code,
so every scoped rule is live) and :func:`check_tree` (the whole
package — the CI gate).  ``python -m repro analyze all`` builds one
index and hands it to all four passes.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import os
import re
import tokenize
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

# The scope table: package directories each scoped rule family covers.
# The kernels proper (lint R1/R2) ...
KERNEL_DIRS = ("core", "solvers", "sparse")
# ... plus the ordering/graph kernels whose output must be reproducible
# run to run (lint R5, shapes S4).
DETERMINISTIC_DIRS = KERNEL_DIRS + ("ordering", "graph")
# ... plus parallel/, which ships to worker processes with the kernels
# (lint R6, effects E3).
PROCESS_DIRS = DETERMINISTIC_DIRS + ("parallel",)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line CODE message``."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return "%s:%d %s %s" % (self.path, self.line, self.code, self.message)


@dataclass(frozen=True)
class Function:
    """One entry of a module's function table."""

    node: ast.AST            # FunctionDef or AsyncFunctionDef
    in_class: bool           # nearest enclosing def/class is a class


@dataclass(eq=False)
class Module:
    """One parsed module: its tree, comments and function table."""

    relpath: str
    tree: Optional[ast.Module]
    comments: List[Tuple[int, str]] = field(default_factory=list)
    error: Optional[Tuple[int, str]] = None   # (line, msg) on a syntax error
    kernel: bool = False     # an explicit target: every scope applies
    functions: List[Function] = field(default_factory=list)

    def in_scope(self, dirs: Sequence[str]) -> bool:
        if self.kernel:
            return True
        parts = self.relpath.replace(os.sep, "/").split("/")
        return any(p in parts[:-1] for p in dirs)

    def pins(self, tag: str) -> List[Tuple[int, str]]:
        """``(line, payload)`` of every ``# <tag>: payload`` comment;
        *tag* is one of :data:`PIN_TAGS`."""
        rx = _PIN_RES[tag]
        out = []
        for line, text in self.comments:
            m = rx.search(text)
            if m is not None:
                out.append((line, m.group(1)))
        return out


# The pin families the checkers read.  Tokenizing is the costliest part
# of indexing, so only a module whose text holds a candidate pin is
# tokenized; every other module has no pins and an empty comment list.
PIN_TAGS = ("domain", "effects", "shapes")
_PIN_CANDIDATE = re.compile(r"#\s*(?:%s):" % "|".join(PIN_TAGS))
_PIN_RES = {tag: re.compile(r"#\s*%s:\s*(.+?)\s*$" % tag) for tag in PIN_TAGS}
# Statement-level nodes: the only places a def can appear.
_STMT_LIKE = (ast.stmt, ast.excepthandler, ast.match_case)


def parse_module(source: str, relpath: str) -> Module:
    """Parse and tokenize one module — the only place either happens."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Module(relpath, None, error=(exc.lineno or 0, exc.msg))
    # Real COMMENT tokens only: a pin inside a docstring is prose.
    comments: List[Tuple[int, str]] = []
    if _PIN_CANDIDATE.search(source):
        try:
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                if tok.type == tokenize.COMMENT:
                    comments.append((tok.start[0], tok.string))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            comments = []
    module = Module(relpath, tree, comments)
    # Breadth-first over statements (the order of ast.walk), each def
    # tagged with whether it is a method.
    todo = deque([(tree, False)])
    while todo:
        node, in_class = todo.popleft()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions.append(Function(node, in_class))
            in_class = False
        elif isinstance(node, ast.ClassDef):
            in_class = True
        todo.extend((child, in_class) for child in ast.iter_child_nodes(node)
                    if isinstance(child, _STMT_LIKE))
    return module


class ModuleIndex:
    """Every module of one analysis run, plus which paths to report."""

    def __init__(self, modules: List[Module],
                 report_for: Optional[Collection[str]] = None) -> None:
        self.modules = modules
        self.parsed = [m for m in modules if m.tree is not None]
        self.report_for = None if report_for is None else set(report_for)

    def reported(self, path: str) -> bool:
        return self.report_for is None or path in self.report_for


def build_index(
    sources: Sequence[Tuple[str, str]],
    kernel: Collection[str] = (),
    report_for: Optional[Collection[str]] = None,
) -> ModuleIndex:
    """Index ``(text, relpath)`` pairs; *kernel* relpaths get every scope."""
    modules = []
    for text, relpath in sources:
        module = parse_module(text, relpath)
        module.kernel = relpath in kernel
        modules.append(module)
    return ModuleIndex(modules, report_for)


def package_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def package_sources(root: Optional[str] = None) -> List[Tuple[str, str]]:
    """``(text, relpath)`` of every ``.py`` file under *root* (default:
    the installed ``repro`` package), in sorted walk order."""
    root = root or package_root()
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                full = os.path.join(dirpath, fname)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                out.append((read_source(full), rel))
    return out


def tree_index(root: Optional[str] = None) -> ModuleIndex:
    return build_index(package_sources(root))


def paths_index(paths: Sequence[str], root: Optional[str] = None) -> ModuleIndex:
    """The package plus explicit files; only the files are reported, under
    the path as given, and they are treated as kernel code."""
    targets = [(read_source(p), p) for p in paths]
    return build_index(package_sources(root) + targets,
                       kernel=set(paths), report_for=set(paths))


# ---------------------------------------------------------------------------
# the driver


@dataclass(frozen=True)
class Checker:
    """A pass over a :class:`ModuleIndex` and how to finalize its output."""

    syntax_code: str
    run: Callable[[ModuleIndex], List]
    finding: type = Finding
    ignore_tag: Optional[str] = None   # '# <tag>: ignore' drops a line


def run(checker: Checker, index: ModuleIndex) -> List:
    """Run one pass: raw findings + syntax findings, finalized."""
    findings = list(checker.run(index))
    findings += [
        checker.finding(m.relpath, m.error[0], checker.syntax_code,
                        "syntax error: %s" % m.error[1])
        for m in index.modules if m.error is not None
    ]
    ignored = set()
    if checker.ignore_tag is not None:
        ignored = {(m.relpath, line) for m in index.parsed
                   for line, payload in m.pins(checker.ignore_tag)
                   if payload == "ignore"}
    unique = {}
    for f in findings:
        if index.reported(f.path) and (f.path, f.line) not in ignored:
            unique.setdefault(dataclasses.astuple(f), f)
    return [unique[key] for key in sorted(unique)]


def check_source(
    checker: Checker,
    source: str,
    relpath: str = "<string>",
    extra_sources: Optional[Sequence[Tuple[str, str]]] = None,
    *,
    as_kernel: bool = True,
    report_all: bool = False,
) -> List:
    """One source string plus ``(text, relpath)`` companions.  By default
    the primary source is kernel code and the only one reported."""
    index = build_index(
        [(source, relpath)] + list(extra_sources or ()),
        kernel={relpath} if as_kernel else (),
        report_for=None if report_all else {relpath},
    )
    return run(checker, index)


def check_paths(checker: Checker, paths: Sequence[str],
                root: Optional[str] = None) -> List:
    return run(checker, paths_index(paths, root))


def check_tree(checker: Checker, root: Optional[str] = None) -> List:
    return run(checker, tree_index(root))


# ---------------------------------------------------------------------------
# AST helpers shared by the passes


def call_name(node: ast.Call) -> Optional[str]:
    """``f`` for ``f(...)`` and ``obj.f(...)``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def function_params(fn: ast.AST) -> Tuple[str, ...]:
    a = fn.args
    return tuple(x.arg for x in a.posonlyargs + a.args + a.kwonlyargs) \
        + ((a.vararg.arg,) if a.vararg else ()) \
        + ((a.kwarg.arg,) if a.kwarg else ())


def walk_own(node: ast.AST):
    """Walk a subtree without descending into nested function/class
    bodies or lambdas."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                            ast.ClassDef)) and cur is not node:
            continue
        stack.extend(ast.iter_child_nodes(cur))


def decorators(fn: ast.AST, name: str) -> List[ast.Call]:
    """The ``@name(...)`` / ``@mod.name(...)`` decorators of *fn*."""
    return [d for d in fn.decorator_list
            if isinstance(d, ast.Call) and call_name(d) == name]


class Registry:
    """Declarations (contracts, effect summaries) keyed by function name.

    Call sites name a callee only as ``f`` or ``obj.f``, so a name
    resolves only while every declaration under it agrees on *key*; the
    default key, identity, resolves a name declared exactly once.
    """

    def __init__(self, key: Callable = id) -> None:
        self.key = key
        self.by_name: Dict[str, list] = {}

    def add(self, item) -> None:
        self.by_name.setdefault(item.name, []).append(item)

    def resolve(self, name: str):
        group = self.by_name.get(name)
        if not group:
            return None
        first = self.key(group[0])
        return group[0] if all(self.key(o) == first for o in group[1:]) else None


def fixed_point(step: Callable[[], bool], max_rounds: int) -> None:
    """Repeat *step* (which returns whether anything changed) until it
    settles or *max_rounds* have run."""
    for _ in range(max_rounds):
        if not step():
            return


# Constructors whose bare call creates shared mutable state.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque",
    "Counter", "bytearray",
}


def _is_mutable(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    return isinstance(value, ast.Call) and call_name(value) in _MUTABLE_CONSTRUCTORS


def mutable_state(module: Module) -> List[Tuple[str, str, int]]:
    """``(where, name, line)`` of every mutable module- or class-level
    binding (``where`` is ``"module"`` or ``"class 'C'"``), skipping
    dunders and lines pinned ``# effects: global-ok`` — the detector
    behind lint R6 and effects E3."""
    ok_lines = {line for line, payload in module.pins("effects")
                if payload.split()[:1] == ["global-ok"]}
    scopes = [("module", module.tree.body)]
    scopes += [("class '%s'" % node.name, node.body)
               for node in ast.walk(module.tree) if isinstance(node, ast.ClassDef)]
    out = []
    for where, body in scopes:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not _is_mutable(value) or stmt.lineno in ok_lines:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and not (
                        t.id.startswith("__") and t.id.endswith("__")):
                    out.append((where, t.id, stmt.lineno))
    return out
