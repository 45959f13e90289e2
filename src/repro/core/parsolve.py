"""Parallel sparse triangular solve with level scheduling.

The paper's point-to-point synchronization story (§IV) builds on Park
et al.'s sparsifying-synchronization triangular solve (ref. [18]); the
solve phase also matters to Basker's users because a transient run does
at least one solve per factorization.  This module implements the
classic level-scheduled parallel triangular solve:

* rows are grouped into *levels* — row ``i``'s level is one more than
  the deepest level among the rows its off-diagonal entries reference —
  so all rows in one level are independent;
* numerically the solve sweeps level by level (row-oriented kernels on
  the transposed factor);
* for the performance model, each level is split into per-thread row
  chunks whose dependency edges are *sparsified*: a chunk depends only
  on the previous-level chunks that actually produced one of its
  operands (the ref. [18] point-to-point structure), not on a full
  barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# effects: blocks x=x

from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel
from ..parallel.sim import Schedule, SimTask, simulate
from ..sparse.csc import CSC
from ..sparse.schedule import triangular_schedule

__all__ = ["TriangularLevels", "level_schedule", "parallel_lower_solve", "parallel_upper_solve"]


@dataclass
class TriangularLevels:
    """Level sets of a triangular factor.

    ``levels[k]`` holds the row indices solvable at step ``k``; ``Rp``,
    ``Ri``, ``Rx`` is the factor in row-major (CSR) form used by the
    row-oriented numeric sweep.
    """

    levels: List[np.ndarray]
    Rp: np.ndarray
    Ri: np.ndarray
    Rx: np.ndarray
    lower: bool

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def max_parallelism(self) -> float:
        if not self.levels:
            return 1.0
        return max(lv.size for lv in self.levels)

    @property
    def average_parallelism(self) -> float:
        n = sum(lv.size for lv in self.levels)
        return n / max(self.n_levels, 1)


def level_schedule(T: CSC, lower: bool = True) -> TriangularLevels:
    """Level sets of a (unit) triangular CSC factor.

    Row ``i``'s level is one more than the deepest level among the rows
    its off-diagonal entries reference — exactly the column levels of
    the compiled :class:`~repro.sparse.schedule.TriangularSchedule`
    that the dense-RHS solves replay, so the levels are taken from that
    (cached) schedule and the simulator times the plan the solves run.
    """
    sched = triangular_schedule(T, "lower" if lower else "upper")
    R = T.transpose()  # rows of T as columns of R
    levels = [lv.cols for lv in sched.levels]
    return TriangularLevels(levels=levels, Rp=R.indptr, Ri=R.indices, Rx=R.data, lower=lower)


def _solve_with_levels(
    tl: TriangularLevels,
    b: np.ndarray,
    unit_diag: bool,
    n_threads: int,
    machine: Optional[MachineModel],
) -> Tuple[np.ndarray, Optional[Schedule]]:
    n = b.size
    x = np.array(b, dtype=np.float64, copy=True)
    Rp, Ri, Rx = tl.Rp, tl.Ri, tl.Rx

    tasks: List[SimTask] = []
    prev_chunk_of = np.full(n, -1, dtype=np.int64)  # row -> producing task id
    task_keys: List[Tuple[int, int]] = []  # task id -> (level, chunk)
    make_tasks = machine is not None

    for lv, rows in enumerate(tl.levels):
        # Static chunking of the level across threads.
        chunks = np.array_split(rows, min(n_threads, max(rows.size, 1)))
        for ci, chunk in enumerate(chunks):
            if chunk.size == 0:
                continue
            led = CostLedger()
            dep_tasks = set()
            for i in chunk:
                i = int(i)
                lo, hi = int(Rp[i]), int(Rp[i + 1])
                acc = x[i]
                diag = 1.0
                for p in range(lo, hi):
                    j = int(Ri[p])
                    if j == i:
                        diag = Rx[p]
                        continue
                    off = (j < i) if tl.lower else (j > i)
                    if off:
                        acc -= Rx[p] * x[j]
                        if make_tasks and prev_chunk_of[j] >= 0:
                            dep_tasks.add(int(prev_chunk_of[j]))
                led.sparse_flops += hi - lo
                led.columns += 1
                if unit_diag:
                    x[i] = acc
                else:
                    if diag == 0.0:
                        raise ZeroDivisionError(f"zero diagonal at row {i}")
                    x[i] = acc / diag
            if make_tasks:
                tid = len(tasks)
                deps = sorted(dep_tasks)
                # Declared effect sets: this chunk finalizes its own x
                # rows and reads exactly the chunks it synchronizes
                # with — the hazard checker then proves the sparsified
                # point-to-point edges sufficient.
                tasks.append(
                    SimTask(
                        tid=tid,
                        ledger=led,
                        deps=deps,
                        thread=ci % n_threads,
                        p2p_syncs=len(deps),
                        label=f"lv{lv}/c{ci}",
                        reads=[("x",) + task_keys[t] for t in deps],
                        writes=[("x", lv, ci)],
                    )
                )
                task_keys.append((lv, ci))
                prev_chunk_of[chunk] = tid

    sched = simulate(tasks, machine, n_threads) if make_tasks else None
    return x, sched


def parallel_lower_solve(
    L: CSC,
    b: np.ndarray,
    n_threads: int = 1,
    machine: Optional[MachineModel] = None,
    unit_diag: bool = True,
    levels: Optional[TriangularLevels] = None,
) -> Tuple[np.ndarray, Optional[Schedule]]:
    """Level-scheduled solve of ``L x = b``.

    Returns ``(x, schedule)``; the schedule is None unless a machine
    model is supplied.  ``levels`` may be precomputed (the pattern is
    fixed across a refactorization sequence).
    """
    if L.n_rows != L.n_cols or b.shape != (L.n_cols,):
        raise ValueError("dimension mismatch")
    tl = levels if levels is not None else level_schedule(L, lower=True)
    return _solve_with_levels(tl, b, unit_diag, n_threads, machine)


def parallel_upper_solve(
    U: CSC,
    b: np.ndarray,
    n_threads: int = 1,
    machine: Optional[MachineModel] = None,
    levels: Optional[TriangularLevels] = None,
) -> Tuple[np.ndarray, Optional[Schedule]]:
    """Level-scheduled solve of ``U x = b`` (non-unit diagonal)."""
    if U.n_rows != U.n_cols or b.shape != (U.n_cols,):
        raise ValueError("dimension mismatch")
    tl = levels if levels is not None else level_schedule(U, lower=False)
    return _solve_with_levels(tl, b, unit_diag=False, n_threads=n_threads, machine=machine)
