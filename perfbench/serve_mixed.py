"""Workload ``serve_mixed``: one service per solver, three tenants.

One :class:`~repro.serve.SolverService` per solver receives a seeded
three-tenant stream, submitted back to back by one client:

* ``transient`` — the ``xyce1_analog`` Jacobian sequence (one pattern);
* ``sweep`` — N-1 outage variants of ``hvdc2+``: each keeps the
  pattern and zeroes one seeded off-diagonal value;
* ``cold`` — cycles through ten distinct Table I patterns, more than
  the service's eight cache slots, so entries are evicted and rebuilt.

Every block of ten requests holds 2 cold, 6 transient and 2 sweep
requests in a seeded order, so misses stay near a fifth of requests:
the nearest-rank p50 of a block (5th of 10) is a transient hit whether
transient hits are faster or slower than sweep hits, and its p90 (9th
of 10) is the faster of the block's two misses; over the whole pass the
same ranks fall among hits and among misses.  A block is also the round
a traced run alternates on.  Modeled arrivals are
one modeled second apart, so nothing queues or hits a rate limit.  A
seeded :class:`~repro.resilience.faults.FaultPlan` places four faults
on the value paths, as ``repro.serve.run_soak`` does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import ReproError
from repro.graph.matching import mwcm_row_permutation
from repro.matrices import get_matrix
from repro.obs import get_tracer
from repro.obs.hist import StreamingHistogram
from repro.resilience.faults import FaultPlan
from repro.serve import ServeConfig, SolveRequest, SolverService
from repro.sparse.csc import CSC
from repro.sparse.verify import componentwise_backward_error
from repro.xyce import matrix_sequence, xyce1_analog

from harness import Pass, bench_span_wall, ratio, verified

COLD_PATTERNS = ("RS_b39c30+", "Power0*+", "memplus", "circuit_4", "Xyce0*",
                 "asic_680ks", "scircuit", "hcircuit", "rajat21", "bcircuit")
BLOCK = ("cold",) * 2 + ("transient",) * 6 + ("sweep",) * 2
SEQUENCE_LENGTH = 12
ARRIVAL_GAP_S = 1.0          # modeled seconds between arrivals
FAULT_SITES = ("klu.refactor.values", "gp.factor.values")
CYCLE_SECONDS = 6.0          # 50 requests, both solvers, on a 2-core x86 box


@dataclass
class Context:
    seed: int
    distinct: List[CSC]          # one matrix per pattern in the stream
    ops: List[SolveRequest]
    unit: int = len(BLOCK)       # requests per round: 2 misses, 8 hits


def _outage(base: CSC, offdiag: np.ndarray, rng: np.random.Generator) -> CSC:
    A = base.copy()
    A.data[offdiag[int(rng.integers(offdiag.size))]] = 0.0
    return A


def setup(seed: int, seconds: float) -> Context:
    tr = get_tracer()
    with tr.span("bench.matrix_sequence"):
        sequence = matrix_sequence(xyce1_analog(), SEQUENCE_LENGTH)
    grid = get_matrix("hvdc2+")
    col_of = np.repeat(np.arange(grid.n_cols), np.diff(grid.indptr))
    offdiag = np.flatnonzero(grid.indices != col_of)
    cold = [get_matrix(name) for name in COLD_PATTERNS]

    # whole cold cycles of five blocks; at least two, so the traced and
    # the untraced rounds of a traced run each see every cold pattern
    cycles = max(2, round(seconds / CYCLE_SECONDS))
    rng = np.random.default_rng(seed)
    counts = {"cold": 0, "transient": 0, "sweep": 0}
    ops = []
    blocks_per_cycle = len(COLD_PATTERNS) // BLOCK.count("cold")
    for _ in range(cycles * blocks_per_cycle):
        for tenant in rng.permutation(BLOCK):
            k = counts[tenant]
            counts[tenant] += 1
            if tenant == "cold":
                A = cold[k % len(cold)]
            elif tenant == "transient":
                A = sequence[k % SEQUENCE_LENGTH]
            else:
                A = _outage(grid, offdiag, rng)
            ops.append(SolveRequest(
                tenant=str(tenant), A=A, b=rng.standard_normal(A.n_rows),
                arrival_s=len(ops) * ARRIVAL_GAP_S, label=f"{tenant}/{k}"))
    return Context(seed=seed, distinct=[sequence[0], grid] + cold, ops=ops)


def run_pass(ctx: Context, tracers=None) -> Pass:
    """Both services take each request in turn under one fault plan, so
    the plan's occurrence counts run across the two services."""
    run = Pass(ctx.ops, ctx.unit, tracers)
    services = {s: SolverService(ServeConfig(solver=s, seed=ctx.seed)) for s in run.extra}
    plan = FaultPlan.random(seed=ctx.seed, n_faults=4, sites=FAULT_SITES,
                            kinds=("perturb", "nan"), max_occurrence=40)
    with plan:
        for req, solver, res in run:
            tr = get_tracer()
            t0 = time.perf_counter()
            try:
                with tr.span("bench.submit"):
                    resp = services[solver].submit(req)
            except ReproError:
                res.record(t0, time.perf_counter() - t0, ok=False)
                continue
            elapsed = time.perf_counter() - t0
            res.record(t0, elapsed, ok=verified(
                componentwise_backward_error(req.A, resp.x, req.b)))
    for solver, service in services.items():
        run.extra[solver]["service"] = service
    return run


def check(ctx: Context, run: Pass) -> int:
    return 0


def layers(ctx: Context, run: Pass) -> Dict[str, float]:
    """MWCM on every distinct pattern, plus the services' own counters
    (they cover traced and untraced rounds alike)."""
    tr = get_tracer()
    for A in ctx.distinct:
        with tr.span("bench.mwcm"):
            mwcm_row_permutation(A)
    mwcm_s, calls = bench_span_wall(tr, "bench.mwcm")
    services = [extra["service"] for extra in run.extra.values()]
    hits = sum(s.metrics.counter("cache.hit") for s in services)
    misses = sum(s.metrics.counter("cache.miss") for s in services)
    modeled = StreamingHistogram()
    for s in services:
        modeled.merge(s.latency)
    return {
        "graph.mwcm_s": ratio(mwcm_s, calls),
        "serve.cache_hit_ratio": ratio(hits, hits + misses),
        "serve.cache_evictions": float(sum(s.cache.evictions for s in services)),
        "serve.retries": float(sum(s.metrics.counter("serve.retries") for s in services)),
        "serve.escalations": float(sum(s.metrics.counter("serve.escalations")
                                       for s in services)),
        "serve.modeled_latency_p50_s": modeled.quantile(0.5) or 0.0,
    }


def claims(tracers) -> List[str]:
    return []
