"""Shared machinery of the layered wall-clock benchmark.

Every workload module (``cold_solve``, ``transient_replay``,
``serve_mixed``) provides the same functions, which ``run.py``
drives:

* ``setup(seed, seconds) -> ctx`` — build every input from the seed
  and size the operation list from ``seconds``; timed as ``setup_s``.
  ``ctx.ops`` is the operation list, ``ctx.unit`` the operations per
  round (a traced run traces every other round; see :class:`Pass`).
* ``run_pass(ctx, tracers=None) -> Pass`` — one closed-loop pass over
  ``ctx.ops`` (see :class:`Pass`).  Each operation is timed on its own
  and verified after its timer stops.
* ``check(ctx, run) -> int`` — extra output checks after the pass (a
  count of mismatches, added to ``failed``).
* ``layers(ctx, run) -> dict`` and ``claims(tracers) -> list`` —
  workload-specific per-layer metrics and the structural facts the
  traced rounds must show.

Timing spans: the workload wraps each public call it makes
(``DirectSolver.*``, ``SolverService.submit``, ``matrix_sequence``,
``mwcm_row_permutation``) in a ``bench.*`` span of the active tracer.
Untraced runs use the package's no-op tracer, so the same code runs
in both modes.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bench.wallclock import _aggregate_phase_spans
from repro.obs import NULL_TRACER, Tracer, check_ledger_tree, tracing
from repro.parallel.machine import SANDY_BRIDGE

from speed import REF_NOMINAL_S, SpeedProbe

SOLVERS = ("klu", "basker")
BERR_TOL = 1e-10
BENCH_PREFIX = "bench."
RUNGS = ("replay", "refactor", "repivot", "perturb_refine", "dense_fallback")


@dataclass
class PassResult:
    """The timed operations of one solver in one pass."""

    ops: List[Tuple[float, float, bool]] = field(default_factory=list)  # (start, wall s, verified)
    factor_nnz: List[int] = field(default_factory=list)

    def record(self, start: float, seconds: float, ok: bool) -> None:
        self.ops.append((start, seconds, ok))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.ops if not ok)


class Pass:
    """One closed-loop pass over ``ops``, KLU and Basker in turn.

    Iterating yields ``(op, solver, result)``: each operation runs with
    every solver before the next one starts, so both solvers spread over
    the whole run and a slow stretch of the machine hits them alike.
    With ``tracers``, every other round of ``unit`` operations runs
    under that solver's tracer and is recorded in ``traced``; the other
    rounds run untraced into ``plain``, so tracing overhead compares
    like work measured at like times.
    """

    def __init__(self, ops: list, unit: int,
                 tracers: Optional[Dict[str, Tracer]] = None) -> None:
        self.ops, self.unit, self.tracers = ops, unit, tracers
        self.plain = {s: PassResult() for s in SOLVERS}
        self.traced = {s: PassResult() for s in SOLVERS}
        self.extra: Dict[str, dict] = {s: {} for s in SOLVERS}

    def __iter__(self):
        for i, op in enumerate(self.ops):
            on = self.tracers is not None and (i // self.unit) % 2 == 1
            results = self.traced if on else self.plain
            for solver in SOLVERS:
                with tracing(self.tracers[solver] if on else NULL_TRACER):
                    yield op, solver, results[solver]

    @property
    def results(self) -> List[PassResult]:
        return [*self.plain.values(), *self.traced.values()]


def reference_times(probe: SpeedProbe, res: PassResult) -> List[Tuple[float, bool]]:
    """``(reference seconds, verified)`` of each operation in ``res``."""
    return [(probe.reference_seconds(t0, s), ok) for t0, s, ok in res.ops]


def verified(berr: float) -> bool:
    return bool(np.isfinite(berr) and berr <= BERR_TOL)


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the ``ceil(q*n)``-th smallest value.

    With ``k`` equal-sized clusters of operations (one per matrix), the
    rank of p50 and p90 always falls inside one cluster, never between
    two, so the reported value is a measured operation time.
    """
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def end_to_end(run: Pass, probe: SpeedProbe, setup_s: float,
               peak_rss_mb: float) -> Tuple[Dict[str, dict], List[str]]:
    """The untraced metrics plus human-readable lines with sample counts.

    Every time is in reference seconds (``speed.py``): each operation's
    wall time over the machine's slowness during it. Percentiles are
    nearest-rank over all verified operations of the pass; the rate is
    verified operations per reference second spent in operations.
    """
    metrics: Dict[str, dict] = {}
    lines: List[str] = []
    for solver in SOLVERS:
        res = run.plain[solver]
        times = reference_times(probe, res)
        ok = [t for t, good in times if good]
        wall_ok = [s for _, s, good in res.ops if good]
        rate = ratio(len(ok), sum(t for t, _ in times))
        p50, p90 = (nearest_rank(ok, q) if ok else 0.0 for q in (0.5, 0.9))
        metrics[f"{solver}.solves_per_s"] = {"value": rate, "unit": "1/s"}
        metrics[f"{solver}.latency_p50_s"] = {"value": p50, "unit": "s"}
        metrics[f"{solver}.latency_p90_s"] = {"value": p90, "unit": "s"}
        lines.append(f"{solver}.solves_per_s {rate:.6g} 1/s, latency_p50_s {p50:.6g} s, "
                     f"latency_p90_s {p90:.6g} s over {len(ok)} verified of "
                     f"{res.attempted} ops (raw wall p50 "
                     f"{nearest_rank(wall_ok, 0.5) if wall_ok else 0.0:.6g} s)")
    factors = probe.slowness()
    lines.append(f"machine slowness over {len(factors)} probes: median "
                 f"{statistics.median(factors):.4g}, range {min(factors):.4g}-"
                 f"{max(factors):.4g} (1 = reference kernel in {REF_NOMINAL_S:g} s)")
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    lines.append(f"setup_s {setup_s:.6g} s")
    lines.append(f"peak_rss_mb {peak_rss_mb:.6g} MB")
    return metrics, lines


# ----------------------------------------------------------------------
# trace analysis
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_seconds(span) -> float:
    """Span wall duration minus the part of it its child spans cover."""
    wall = span.wall_seconds
    if wall is None:
        return 0.0
    kids = [(c.wall_start, c.wall_end) for c in span.children
            if c.wall_seconds is not None]
    return wall - _covered(kids, span.wall_start, span.wall_end)


def _descendants(span):
    stack = list(span.children)
    while stack:
        sp = stack.pop()
        yield sp
        stack.extend(sp.children)


def trace_problems(tracer: Tracer) -> List[str]:
    """Structural checks every traced pass must pass.

    * ledger conservation (``check_ledger_tree``);
    * every program span runs inside a benchmark span;
    * inside each benchmark span, the self times of the spans below it
      add up to no more than the benchmark span's wall time.
    """
    problems = list(check_ledger_tree(tracer))
    for root in tracer.roots:
        if not root.name.startswith(BENCH_PREFIX):
            problems.append(f"program span {root.name!r} outside any benchmark span")
            continue
        wall = root.wall_seconds or 0.0
        inner = sum(self_seconds(sp) for sp in _descendants(root))
        if inner > wall + 1e-9:
            problems.append(f"{root.name} (span {root.sid}): layer self times "
                            f"{inner:.6g} s exceed its wall {wall:.6g} s")
    return problems


def phase_tables(tracers: Iterable[Tracer]) -> List[Dict[str, dict]]:
    """Each tracer's spans aggregated by name (the ``repro bench`` view)."""
    return [_aggregate_phase_spans(t, SANDY_BRIDGE) for t in tracers]


def span_seconds(tables: List[Dict[str, dict]], name: str) -> float:
    """Inclusive wall seconds of every span called ``name``."""
    total = 0.0
    for table in tables:
        rec = table.get(name)
        if rec is not None and rec["wall_s"] is not None:
            total += rec["wall_s"]
    return total


def counters(tracers: Iterable[Tracer]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for tracer in tracers:
        for name, value in tracer.metrics.snapshot()["counters"].items():
            out[name] = out.get(name, 0.0) + value
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def common_layers(run: Pass, probe: SpeedProbe) -> Dict[str, float]:
    """Per-layer metrics every workload reports, from its traced rounds.

    Times are wall seconds per traced operation (both solvers unless the
    name carries one); counts per operation except where noted in
    ``perfbench/README.md``.
    """
    traced, untraced, tracers = run.traced, run.plain, run.tracers
    all_tr = list(tracers.values())
    tables = dict(zip(tracers, phase_tables(all_tr)))
    all_tables = list(tables.values())
    ops = sum(r.attempted for r in traced.values())
    out: Dict[str, float] = {}
    for solver in SOLVERS:
        tr, n = [tables[solver]], traced[solver].attempted
        for phase in ("analyze", "factor", "solve"):
            out[f"interface.{phase}_s.{solver}"] = ratio(
                span_seconds(tr, f"bench.{phase}"), n)
        out[f"solvers.factor_nnz.{solver}"] = ratio(
            sum(traced[solver].factor_nnz), len(traced[solver].factor_nnz))
    for name, span in (("ordering.btf_s", "order.btf"),
                       ("ordering.amd_s", "order.amd"),
                       ("ordering.nd_s", "order.nd"),
                       ("core.numeric_nd_s", "numeric.gp.nd"),
                       ("solvers.gp_block_s", "numeric.gp.block"),
                       ("solvers.gp_panel_s", "numeric.gp.panel"),
                       ("sparse.refactor_replay_s", "refactor.replay"),
                       ("sparse.solve_tri_s", "solve.tri")):
        out[name] = ratio(span_seconds(all_tables, span), ops)
    symbolic_self = 0.0
    for tracer in all_tr:
        for sp in tracer.spans:
            if sp.name == "symbolic":
                symbolic_self += self_seconds(sp)
    out["core.symbolic_self_s"] = ratio(symbolic_self, ops)

    c = counters(all_tr)
    out["solvers.fill_nnz"] = ratio(c.get("gp.fill_nnz", 0.0), ops)
    out["sparse.tri_schedule_compiles"] = ratio(c.get("schedule.tri.miss", 0.0), ops)
    tri_hit, tri_miss = c.get("schedule.tri.hit", 0.0), c.get("schedule.tri.miss", 0.0)
    out["sparse.tri_schedule_hit_ratio"] = ratio(tri_hit, tri_hit + tri_miss)
    g_hit = c.get("klu.refactor.gather.hit", 0.0) + c.get("basker.refactor.gather.hit", 0.0)
    g_miss = c.get("klu.refactor.gather.miss", 0.0) + c.get("basker.refactor.gather.miss", 0.0)
    out["sparse.refactor_gather_hit_ratio"] = ratio(g_hit, g_hit + g_miss)
    out["resilience.attempts"] = c.get("resilience.attempts", 0.0)
    for rung in RUNGS:
        out[f"resilience.rung_s.{rung}"] = ratio(
            span_seconds(all_tables, f"resilience.rung.{rung}"), ops)

    # medians, not means: the traced and untraced rounds of serve_mixed
    # miss the cache on different requests, which a mean would count
    plain_s, traced_s = (statistics.median(
        [t for r in part.values() for t, ok in reference_times(probe, r) if ok] or [0.0])
        for part in (untraced, traced))
    out["obs.tracing_overhead_frac"] = ratio(traced_s - plain_s, plain_s)
    return out


def modeled_speedup(pairs: List[Tuple[object, object]]) -> float:
    """Geometric mean of KLU serial modeled factor seconds over Basker's
    16-thread modeled makespan on SANDY_BRIDGE (paper §V-D)."""
    logs = []
    for klu, basker in pairs:
        t_klu = klu.factor_seconds(SANDY_BRIDGE)
        t_basker = basker.factor_seconds(SANDY_BRIDGE, n_threads=16)
        logs.append(math.log(t_klu / t_basker))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def bench_span_wall(tracer: Tracer, name: str) -> Tuple[float, int]:
    """Total wall seconds and count of the benchmark spans ``name``."""
    walls = [sp.wall_seconds for sp in tracer.spans
             if sp.name == name and sp.wall_seconds is not None]
    return float(sum(walls)), len(walls)
