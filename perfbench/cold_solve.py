"""Workload ``cold_solve``: analyze -> factor -> solve from scratch.

Each operation copies one matrix (fresh ``indptr``/``indices``/``data``
arrays), builds a new :class:`~repro.interface.DirectSolver` and runs
the three phases, so ordering, matching, symbolic analysis, the first
factorization and triangular-schedule compilation do the work and no
cache, replay or serving code runs.  The seven matrices run in the
same order every pass; the seed draws only the right-hand sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.errors import ReproError
from repro.graph.matching import mwcm_row_permutation
from repro.interface import DirectSolver
from repro.matrices import get_matrix
from repro.matrices.circuit import thick_ladder
from repro.matrices.powergrid import meshed_area_grid
from repro.obs import get_tracer
from repro.sparse.csc import CSC
from repro.sparse.verify import componentwise_backward_error

from harness import Pass, bench_span_wall, modeled_speedup, ratio, verified

SUITE = ("scircuit", "Xyce1*", "Power0*+", "hvdc2+", "memplus")
SOLVER_OPTIONS = {"klu": {}, "basker": {"n_threads": 16}}
PASS_SECONDS = 9.0    # one pass (7 matrices, both solvers) on a 2-core x86 box
SPLU_RTOL = 1e-8      # max-norm relative distance to SciPy's SuperLU answer


@dataclass
class Context:
    matrices: Dict[str, CSC]
    ops: List[Tuple[str, np.ndarray]]   # (matrix name, right-hand side)
    unit: int                           # operations per pass


def setup(seed: int, seconds: float) -> Context:
    matrices = {name: get_matrix(name) for name in SUITE}
    matrices["thick_ladder(1000,6)"] = thick_ladder(1000, 6, rng=np.random.default_rng(0))
    matrices["meshed_area_grid(100,60)"] = meshed_area_grid(
        100, 60, ring_degree=4, chord_frac=0.2, rng=np.random.default_rng(0))
    # whole passes, so every matrix weighs the same in the percentiles;
    # at least three, so each matrix's cluster has a middle sample
    passes = max(3, round(seconds / PASS_SECONDS))
    rng = np.random.default_rng(seed)
    ops = [(name, rng.standard_normal(A.n_rows))
           for _ in range(passes) for name, A in matrices.items()]
    return Context(matrices=matrices, ops=ops, unit=len(matrices))


def run_pass(ctx: Context, tracers=None) -> Pass:
    run = Pass(ctx.ops, ctx.unit, tracers)
    for extra in run.extra.values():
        extra["solvers"] = {}     # last DirectSolver per matrix
        extra["x"] = {}           # first answer and its right-hand side per matrix
    for (name, b), solver, res in run:
        tr = get_tracer()
        A = ctx.matrices[name].copy()
        t0 = time.perf_counter()
        try:
            with tr.span("bench.analyze"):
                ds = DirectSolver(solver, **SOLVER_OPTIONS[solver])
                ds.symbolic_factorization(A)
            with tr.span("bench.factor"):
                ds.numeric_factorization(A)
            with tr.span("bench.solve"):
                x = ds.solve(b)
        except ReproError:
            res.record(t0, time.perf_counter() - t0, ok=False)
            continue
        elapsed = time.perf_counter() - t0
        res.record(t0, elapsed, ok=verified(componentwise_backward_error(A, x, b)))
        res.factor_nnz.append(ds.factor_nnz)
        run.extra[solver]["solvers"][name] = ds
        run.extra[solver]["x"].setdefault(name, (x, b))
    return run


def check(ctx: Context, run: Pass) -> int:
    """Compare each matrix's first answer per solver with SciPy's splu."""
    mismatches = 0
    for name, A in ctx.matrices.items():
        lu = scipy.sparse.linalg.splu(scipy.sparse.csc_matrix(
            (A.data, A.indices, A.indptr), shape=(A.n_rows, A.n_cols)))
        for extra in run.extra.values():
            if name not in extra["x"]:
                continue   # every operation on it failed and was counted
            x, b = extra["x"][name]
            ref = lu.solve(b)
            dist = np.max(np.abs(x - ref)) / np.max(np.abs(ref))
            mismatches += int(not dist <= SPLU_RTOL)
    return mismatches


def layers(ctx: Context, run: Pass) -> Dict[str, float]:
    """MWCM timed on every matrix, plus the §V-D modeled speedup."""
    tr = get_tracer()
    for A in ctx.matrices.values():
        with tr.span("bench.mwcm"):
            mwcm_row_permutation(A)
    mwcm_s, calls = bench_span_wall(tr, "bench.mwcm")
    klu, basker = run.extra["klu"]["solvers"], run.extra["basker"]["solvers"]
    pairs = [(klu[name], basker[name]) for name in ctx.matrices
             if name in klu and name in basker]
    return {
        "graph.mwcm_s": ratio(mwcm_s, calls),
        "parallel.modeled_speedup_sb16": modeled_speedup(pairs),
    }


def claims(tracers) -> List[str]:
    """A cold pass compiles every schedule and replays none."""
    problems = []
    for solver, tracer in tracers.items():
        for name, value in tracer.metrics.snapshot()["counters"].items():
            cached = name == "schedule.tri.hit" or (
                ".refactor." in name and name.endswith(".hit"))
            if cached and value:
                problems.append(f"cold_solve/{solver}: counter {name} = {value:g}, want 0")
    return problems
