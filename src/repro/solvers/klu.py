"""KLU reimplementation: the serial baseline solver.

KLU (Davis & Natarajan, ACM TOMS 907 — ref. [5] of the paper) is the
state-of-the-art *serial* circuit solver and the paper's speedup
baseline: permute to BTF (MWCM + strongly connected components), order
every diagonal block with AMD, factor each block with Gilbert–Peierls,
and never factor the off-diagonal blocks.  Basker was designed to
replace it; reproducing KLU faithfully is therefore as load-bearing as
reproducing Basker itself.

The class follows the analyze / factor / refactor / solve life cycle
that circuit simulators rely on: ``analyze`` is pattern-only and done
once per circuit; ``factor`` is repeated for every Newton iteration
with fresh values (re-pivoting each time, reusing all orderings).

Derived caches ride on the object they are derived from and die with
it: the per-block dense plans on :class:`KLUSymbolic` (one slot per
block from ``analyze`` on), the :class:`~repro.sparse.schedule.ReplayPlan`
on :class:`KLUNumeric`, compiled solve schedules on the factor
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..contracts import domains, shapes
from ..obs.tracer import get_tracer
from ..ordering.amd import amd_order
from ..ordering.btf import BTFResult, btf
from ..errors import SingularMatrixError, StructureError
from ..ordering.perm import invert
from ..parallel.ledger import CostLedger
from ..resilience.faults import fault_values as _fault_values
from ..parallel.machine import MachineModel
from ..sparse.blocking import DensePlan
from ..sparse.csc import CSC
from ..sparse.schedule import ReplayPlan, ScheduleCompileError
from .gp import GP_DEFAULT_PIVOT_TOL, GPResult, gp_factor, gp_refactor
from .triangular import btf_solve

__all__ = ["KLUSymbolic", "KLUNumeric", "KLU"]


@dataclass
class KLUSymbolic:
    """Pattern-only analysis: BTF structure + per-block AMD orderings."""

    n: int
    btf_result: BTFResult
    row_perm_pre: np.ndarray   # BTF + AMD rows (before numerical pivoting)
    col_perm: np.ndarray       # BTF + AMD columns (final)
    # Per-block dense-tail blocking plans for the blocked gp_factor, one
    # slot per block, filled on first factorization (pattern-only, so
    # they survive any number of refactor / pivot-fallback cycles on the
    # fixed pattern).
    dense_plans: List[Optional[DensePlan]]
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def n_blocks(self) -> int:
        return self.btf_result.n_blocks

    @property
    def block_splits(self) -> np.ndarray:
        return self.btf_result.block_splits


@dataclass
class KLUNumeric:
    """Factors of one matrix: per-block LU plus the permuted matrix."""

    symbolic: KLUSymbolic
    block_lu: List[GPResult]
    row_perm: np.ndarray       # final rows, including per-block pivoting
    col_perm: np.ndarray
    M: CSC                     # (scaled) A[row_perm][:, col_perm], block upper triangular
    ledger: CostLedger
    block_ledgers: List[CostLedger]
    block_working_sets: List[float]
    row_scale: Optional[np.ndarray] = None  # equilibration factors, or None
    # Replay plan reused by refactor_fast across a fixed-pattern
    # sequence (None until the first refactor_fast, or after a pivot
    # fallback changed the row permutation).
    refactor_cache: Optional[ReplayPlan] = None

    @property
    def factor_nnz(self) -> int:
        """|L + U| counting each block's factors (diagonal stored once)."""
        total = 0
        for lu in self.block_lu:
            total += lu.L.nnz + lu.U.nnz - lu.L.n_cols  # unit diagonal of L not counted twice
        return total

    @property
    def factor_bytes(self) -> int:
        """Approximate bytes held by the factors (CSC: 8B value + 8B
        index per entry, 8B per column pointer) plus the retained
        permuted matrix used by the solve phase."""
        total = 0
        for lu in self.block_lu:
            total += 16 * (lu.L.nnz + lu.U.nnz) + 16 * (lu.L.n_cols + 1)
        total += 16 * self.M.nnz + 8 * (self.M.n_cols + 1)
        return total

    def factor_seconds(self, machine: MachineModel) -> float:
        """Serial numeric-factorization time on the given machine."""
        t = 0.0
        for led, ws in zip(self.block_ledgers, self.block_working_sets):
            t += machine.seconds(led, ws)
        return t

    def block_factors(self, k: int):
        """(L, U) of diagonal block ``k``."""
        lu = self.block_lu[k]
        return lu.L, lu.U


class KLU:
    """BTF + AMD + Gilbert–Peierls serial sparse LU.

    ``scale`` applies KLU-style row equilibration before factoring:
    ``"max"`` divides each row by its largest magnitude, ``"sum"`` by
    its 1-norm, ``None`` disables scaling.  (The reference KLU defaults
    to max-scaling; here the default is off so that unscaled and scaled
    paths are both first-class.)
    """

    name = "KLU"

    def __init__(
        self,
        pivot_tol: float = GP_DEFAULT_PIVOT_TOL,
        use_btf: bool = True,
        scale: str | None = None,
        static_perturb: float = 0.0,
    ):
        if scale not in (None, "max", "sum"):
            raise StructureError("scale must be None, 'max' or 'sum'")
        self.pivot_tol = float(pivot_tol)
        self.use_btf = use_btf
        self.scale = scale
        self.static_perturb = float(static_perturb)

    def _row_scale(self, A: CSC) -> np.ndarray:
        """Row equilibration factors r with R = diag(r)."""
        n = A.n_rows
        agg = np.zeros(n, dtype=np.float64)
        if self.scale == "max":
            np.maximum.at(agg, A.indices, np.abs(A.data))
        else:
            np.add.at(agg, A.indices, np.abs(A.data))
        agg[agg == 0.0] = 1.0
        return 1.0 / agg

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def analyze(self, A: CSC) -> KLUSymbolic:
        """Pattern analysis: MWCM + BTF + per-block AMD."""
        n = A.n_rows
        if A.n_cols != n:
            raise StructureError("KLU requires a square matrix")
        tr = get_tracer()
        with tr.span("symbolic") as sp:
            led = CostLedger()
            if self.use_btf:
                res = btf(A)
            else:
                ident = np.arange(n, dtype=np.int64)
                res = BTFResult(ident, ident.copy(), np.array([0, n], dtype=np.int64), True)
            led.dfs_steps += A.nnz  # matching + SCC traversals, order nnz

            B = A.permute(res.row_perm, res.col_perm)  # domain: matrix[btf]
            row_pre = res.row_perm.copy()  # domain: perm[global->btf]
            col_perm = res.col_perm.copy()  # domain: perm[global->btf]
            splits = res.block_splits
            for k in range(res.n_blocks):
                lo, hi = int(splits[k]), int(splits[k + 1])
                if hi - lo <= 1:
                    continue
                blk = B.submatrix(lo, hi, lo, hi)
                p = amd_order(blk)
                led.dfs_steps += 4 * blk.nnz
                row_pre[lo:hi] = row_pre[lo:hi][p]
                col_perm[lo:hi] = col_perm[lo:hi][p]
            sp.attach(led)
        return KLUSymbolic(n=n, btf_result=res, row_perm_pre=row_pre, col_perm=col_perm,
                           dense_plans=[None] * res.n_blocks, ledger=led)

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def factor(self, A: CSC, symbolic: Optional[KLUSymbolic] = None) -> KLUNumeric:
        """Numeric factorization (with per-block partial pivoting)."""
        if symbolic is None:
            symbolic = self.analyze(A)
        splits = symbolic.block_splits
        tr = get_tracer()
        sp = tr.span("numeric.gp")
        with sp:
            r = None
            if self.scale is not None:
                r = self._row_scale(A)
                A = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                        A.data * r[A.indices])
            B = A.permute(symbolic.row_perm_pre, symbolic.col_perm)
            total = CostLedger()
            overhead = CostLedger()
            overhead.mem_words += A.nnz  # permutation / block scatter traffic
            if r is not None:
                overhead.mem_words += A.nnz  # scaling pass
            total.add(overhead)
            sp.attach_overhead(overhead)

            block_lu: List[GPResult] = []
            block_ledgers: List[CostLedger] = []
            block_ws: List[float] = []
            row_perm = symbolic.row_perm_pre.copy()  # domain: perm[global->btf]
            for k in range(symbolic.n_blocks):
                lo, hi = int(splits[k]), int(splits[k + 1])
                blk = B.submatrix(lo, hi, lo, hi)
                led = CostLedger()
                with tr.span("numeric.gp.block") as bsp:
                    if tr.enabled:
                        bsp.set(block=k, n=hi - lo)
                    lu = gp_factor(blk, pivot_tol=self.pivot_tol,
                                   static_perturb=self.static_perturb, ledger=led,
                                   dense_plan=symbolic.dense_plans[k])
                symbolic.dense_plans[k] = lu.dense_plan
                bsp.attach(led)
                block_lu.append(lu)
                block_ledgers.append(led)
                block_ws.append((lu.L.nnz + lu.U.nnz) * 12.0 + (hi - lo) * 8.0)
                total.add(led)
                # Fold the block's pivot permutation into the global rows.
                row_perm[lo:hi] = row_perm[lo:hi][lu.row_perm]

            M = A.permute(row_perm, symbolic.col_perm)
            sp.attach(total)
        return KLUNumeric(
            symbolic=symbolic,
            block_lu=block_lu,
            row_perm=row_perm,
            col_perm=symbolic.col_perm,
            M=M,
            ledger=total,
            block_ledgers=block_ledgers,
            block_working_sets=block_ws,
            row_scale=r,
        )

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def refactor(self, A: CSC, numeric: KLUNumeric) -> KLUNumeric:
        """Factor a matrix with the same pattern, reusing the analysis.

        This is the hot path of the Xyce transient experiment (paper
        §V-F): the symbolic analysis is computed once and reused for
        every matrix of the sequence, while pivoting is redone per
        matrix.
        """
        return self.factor(A, symbolic=numeric.symbolic)

    # ------------------------------------------------------------------
    @domains(A="matrix[global]")
    @shapes(A="csc[n,n]")
    def refactor_fast(self, A: CSC, numeric: KLUNumeric) -> KLUNumeric:
        """``klu_refactor``: values-only update on fixed patterns/pivots.

        Reuses the previous numeric object's per-block patterns *and*
        pivot orders — no reach DFS, no pivot search.  Any block whose
        reused pivot degenerates falls back to a full Gilbert–Peierls
        factorization of that block (fresh pivoting), matching the
        recommended klu_refactor/klu_factor usage pattern.

        Across a fixed-pattern sequence, the permute/submatrix maps and
        the all-blocks elimination schedule are compiled on the first
        call into a :class:`~repro.sparse.schedule.ReplayPlan` carried
        along the numeric objects, so every later matrix is pure value
        gathers plus one vectorized level-scheduled replay.
        """
        symbolic = numeric.symbolic
        splits = symbolic.block_splits
        tr = get_tracer()
        metrics = tr.metrics
        sp = tr.span("refactor.replay")
        with sp:
            r = None
            if self.scale is not None:
                r = self._row_scale(A)
                A = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                        A.data * r[A.indices])
            # Reuse the *final* row permutation (pivoting included): the
            # permuted diagonal blocks then refactor pivot-free.
            plan = ReplayPlan.lookup(numeric.refactor_cache, "klu", A,
                                     numeric.row_perm, numeric.col_perm, splits)
            numeric.refactor_cache = plan
            M = plan.permuted(_fault_values("klu.refactor.values", A.data))
            total = CostLedger()
            overhead = CostLedger()
            overhead.mem_words += A.nnz
            total.add(overhead)
            sp.attach_overhead(overhead)

            # Hot path: one replay of every block at once.  The per-block
            # loop runs instead when the patterns resist compilation or a
            # reused pivot degenerates, re-pivoting only where needed.
            replayed = None
            try:
                replayed = plan.replay_blocks(
                    M.data, [(lu.L, lu.U) for lu in numeric.block_lu])
            except ScheduleCompileError:
                pass
            except SingularMatrixError:
                metrics.incr("klu.refactor.singular_fallback")

            block_lu: List[GPResult] = []
            block_ledgers: List[CostLedger] = []
            block_ws: List[float] = []
            row_perm = numeric.row_perm
            for k in range(symbolic.n_blocks):
                lo, hi = int(splits[k]), int(splits[k + 1])
                prior = numeric.block_lu[k]
                # Identity pivot order within the pre-pivoted block.
                ident = np.arange(hi - lo, dtype=np.int64)
                if replayed is not None:
                    Lb, Ub, led = replayed[k]
                    lu = GPResult(Lb, Ub, ident, led, schedule=prior.schedule)
                else:
                    blk = plan.block(k, M.data)
                    led = CostLedger()
                    try:
                        lu = gp_refactor(blk, GPResult(prior.L, prior.U, ident, led,
                                                       schedule=prior.schedule),
                                         ledger=led)
                        # Persist the compiled schedule on the prior numeric
                        # too (covers callers refactoring from one object).
                        prior.schedule = lu.schedule
                    except SingularMatrixError:
                        metrics.incr("klu.refactor.block_fallback")
                        lu = gp_factor(blk, pivot_tol=self.pivot_tol,
                                       static_perturb=self.static_perturb, ledger=led,
                                       dense_plan=symbolic.dense_plans[k])
                        symbolic.dense_plans[k] = lu.dense_plan
                        if row_perm is numeric.row_perm:
                            row_perm = row_perm.copy()
                        row_perm[lo:hi] = row_perm[lo:hi][lu.row_perm]
                block_lu.append(lu)
                block_ledgers.append(led)
                block_ws.append((lu.L.nnz + lu.U.nnz) * 12.0 + (hi - lo) * 8.0)
                total.add(led)

            if row_perm is not numeric.row_perm:
                # A block re-pivoted: gathers keyed to the old row
                # permutation no longer apply to the result.
                M = A.permute(row_perm, symbolic.col_perm)
                plan = None
            sp.attach(total)
        return KLUNumeric(
            symbolic=symbolic,
            block_lu=block_lu,
            row_perm=row_perm,
            col_perm=symbolic.col_perm,
            M=M,
            ledger=total,
            block_ledgers=block_ledgers,
            block_working_sets=block_ws,
            row_scale=r,
            refactor_cache=plan,
        )

    # ------------------------------------------------------------------
    # ``A x = b`` by block back-substitution over the BTF.
    solve = staticmethod(btf_solve)
