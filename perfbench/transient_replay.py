"""Workload ``transient_replay``: the paper's §V-F Xyce sequence.

Set-up records one fixed-pattern Jacobian sequence of the
``xyce1_analog`` circuit (n = 762) and gives each solver one warm
:class:`~repro.interface.DirectSolver` that has factored and solved
step 0 and refactored step 1.  Each operation is then
``numeric_factorization(A_k)`` — the values-only ``refactor_fast``
path — followed by ``solve(b_k)``, so schedule replay, value gathers
and triangular solves do the work and ordering and symbolic analysis
do none.  Steps cycle through the
sequence; the seed draws the right-hand sides.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ReproError
from repro.graph.matching import mwcm_row_permutation
from repro.interface import DirectSolver
from repro.obs import get_tracer
from repro.sparse.csc import CSC
from repro.sparse.verify import componentwise_backward_error
from repro.xyce import matrix_sequence, xyce1_analog

from harness import Pass, bench_span_wall, modeled_speedup, ratio, verified

SEQUENCE_LENGTH = 16
SOLVER_OPTIONS = {"klu": {}, "basker": {"n_threads": 16}}
STEP_SECONDS = 0.025   # one KLU step plus one Basker step on a 2-core x86 box
ROUND_STEPS = 100      # steps per round; a traced run traces every other round


@dataclass
class Context:
    sequence: List[CSC]
    warm: Dict[str, DirectSolver]
    ops: List[tuple]            # (step index into sequence, right-hand side)
    unit: int = ROUND_STEPS


def setup(seed: int, seconds: float) -> Context:
    tr = get_tracer()
    with tr.span("bench.matrix_sequence"):
        sequence = matrix_sequence(xyce1_analog(), SEQUENCE_LENGTH)
    rng = np.random.default_rng(seed)
    n = sequence[0].n_rows
    warm = {}
    for solver, options in SOLVER_OPTIONS.items():
        with tr.span("bench.factor"):
            ds = DirectSolver(solver, **options)
            ds.numeric_factorization(sequence[0])
        with tr.span("bench.solve"):
            ds.solve(rng.standard_normal(n))
        # one replay step compiles the value gathers before timing starts
        with tr.span("bench.factor"):
            ds.numeric_factorization(sequence[1])
        warm[solver] = ds
    n_steps = ROUND_STEPS * max(3, round(seconds / (ROUND_STEPS * STEP_SECONDS)))
    ops = [(1 + k % (SEQUENCE_LENGTH - 1), rng.standard_normal(n))
           for k in range(n_steps)]
    return Context(sequence=sequence, warm=warm, ops=ops)


def run_pass(ctx: Context, tracers=None) -> Pass:
    run = Pass(ctx.ops, ctx.unit, tracers)
    for (k, b), solver, res in run:
        tr = get_tracer()
        ds = ctx.warm[solver]
        A = ctx.sequence[k]
        t0 = time.perf_counter()
        try:
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
    return run


def check(ctx: Context, run: Pass) -> int:
    return 0


def layers(ctx: Context, run: Pass) -> Dict[str, float]:
    tr = get_tracer()
    with tr.span("bench.mwcm"):
        mwcm_row_permutation(ctx.sequence[0])
    mwcm_s, calls = bench_span_wall(tr, "bench.mwcm")
    # the warm solvers now hold refactored numerics; model a first factor
    fresh = []
    for solver, options in SOLVER_OPTIONS.items():
        with tr.span("bench.factor"):
            ds = DirectSolver(solver, **options)
            ds.numeric_factorization(ctx.sequence[0])
        fresh.append(ds)
    return {
        "graph.mwcm_s": ratio(mwcm_s, calls),
        "parallel.modeled_speedup_sb16": modeled_speedup([tuple(fresh)]),
    }


def claims(tracers) -> List[str]:
    """After set-up, no step orders or re-analyzes."""
    problems = []
    for solver, tracer in tracers.items():
        for sp in tracer.spans:
            if sp.name.startswith("order.") or sp.name == "symbolic":
                problems.append(f"transient_replay/{solver}: span {sp.name!r} "
                                f"after set-up")
                break
    return problems
