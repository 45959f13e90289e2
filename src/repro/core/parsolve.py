"""Parallel sparse triangular solve with level scheduling.

The paper's point-to-point synchronization story (§IV) builds on Park
et al.'s sparsifying-synchronization triangular solve (ref. [18]); the
solve phase also matters to Basker's users because a transient run does
at least one solve per factorization.  This module implements the
classic level-scheduled parallel triangular solve:

* rows are grouped into *levels* — row ``i``'s level is one more than
  the deepest level among the rows its off-diagonal entries reference —
  so all rows in one level are independent;
* numerically the solve is the replay of the factor's compiled
  :class:`~repro.sparse.schedule.TriangularSchedule` (the one the serial
  :func:`~repro.sparse.ops.lower_solve` / ``upper_solve`` run), so the
  answer is bit-identical to theirs;
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

from ..errors import StructureError
from ..parallel.ledger import CostLedger
from ..parallel.machine import MachineModel
from ..parallel.sim import Schedule, SimTask, simulate
from ..sparse.csc import CSC
from ..sparse.schedule import TriangularSchedule, triangular_schedule

__all__ = ["TriangularLevels", "level_schedule", "parallel_lower_solve", "parallel_upper_solve"]


@dataclass
class TriangularLevels:
    """Level sets of a triangular factor, a view over its compiled
    :class:`~repro.sparse.schedule.TriangularSchedule`: ``levels[k]``
    holds the row indices solvable at step ``k``."""

    schedule: TriangularSchedule
    lower: bool

    @property
    def levels(self) -> List[np.ndarray]:
        return [lv.cols for lv in self.schedule.levels]

    @property
    def n_levels(self) -> int:
        return self.schedule.n_levels

    @property
    def max_parallelism(self) -> float:
        return max((lv.cols.size for lv in self.schedule.levels), default=1.0)

    @property
    def average_parallelism(self) -> float:
        return self.schedule.n / max(self.n_levels, 1)


def level_schedule(T: CSC, lower: bool = True) -> TriangularLevels:
    """Level sets of a (unit) triangular CSC factor.

    Row ``i``'s level is one more than the deepest level among the rows
    its off-diagonal entries reference — exactly the column levels of
    the compiled :class:`~repro.sparse.schedule.TriangularSchedule`
    that the dense-RHS solves replay, so the levels are that (cached)
    schedule's and the simulator times the plan the solves run.
    """
    return TriangularLevels(triangular_schedule(T, "lower" if lower else "upper"), lower)


def _level_tasks(T: CSC, tl: TriangularLevels, n_threads: int) -> List[SimTask]:
    """The modeled DAG: each level split into per-thread row chunks that
    cost one sparse flop per entry and one column per row, and wait for
    the chunks producing their off-diagonal operands (``T[i, j]`` off
    the diagonal makes row ``i``'s chunk wait for row ``j``'s)."""
    n, levels = T.n_cols, tl.levels
    chunks = [np.array_split(rows, min(n_threads, rows.size)) for rows in levels]
    sizes = np.array([c.size for lv_chunks in chunks for c in lv_chunks], dtype=np.int64)
    n_tasks = sizes.size
    if n_tasks == 0:
        return []
    order = np.concatenate(levels)
    task_of = np.empty(n, dtype=np.int64)
    task_of[order] = np.repeat(np.arange(n_tasks), sizes)
    row_entries = np.bincount(T.indices, minlength=n)[order]
    flops = np.add.reduceat(row_entries, np.cumsum(sizes) - sizes)

    col_of = np.repeat(np.arange(n), np.diff(T.indptr))
    off = T.indices > col_of if tl.lower else T.indices < col_of
    pairs = np.unique(task_of[T.indices[off]] * n_tasks + task_of[col_of[off]])
    consumer, producer = np.divmod(pairs, n_tasks)
    dep_ptr = np.searchsorted(consumer, np.arange(n_tasks + 1))

    tasks: List[SimTask] = []
    task_keys: List[Tuple[int, int]] = []  # task id -> (level, chunk)
    for lv, lv_chunks in enumerate(chunks):
        for ci, chunk in enumerate(lv_chunks):
            tid = len(tasks)
            deps = producer[dep_ptr[tid] : dep_ptr[tid + 1]].tolist()
            # Declared effect sets: this chunk finalizes its own x rows
            # and reads exactly the chunks it synchronizes with — the
            # hazard checker then proves the sparsified point-to-point
            # edges sufficient.
            tasks.append(
                SimTask(
                    tid=tid,
                    ledger=CostLedger(sparse_flops=float(flops[tid]), columns=float(chunk.size)),
                    deps=deps,
                    thread=ci,
                    p2p_syncs=len(deps),
                    label=f"lv{lv}/c{ci}",
                    reads=[("x",) + task_keys[t] for t in deps],
                    writes=[("x", lv, ci)],
                )
            )
            task_keys.append((lv, ci))
    return tasks


def _solve_with_levels(
    T: CSC, b: np.ndarray, lower: bool, unit_diag: bool, n_threads: int,
    machine: Optional[MachineModel], levels: Optional[TriangularLevels],
) -> Tuple[np.ndarray, Optional[Schedule]]:
    if T.n_rows != T.n_cols or b.shape != (T.n_cols,):
        raise StructureError("dimension mismatch")
    tl = levels if levels is not None else level_schedule(T, lower=lower)
    x = tl.schedule.solve(T, b, unit_diag=unit_diag)
    if machine is None:
        return x, None
    return x, simulate(_level_tasks(T, tl, n_threads), machine, n_threads)


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
    fixed across a refactorization sequence).  A missing or zero
    diagonal (``unit_diag=False``) raises the serial solve's
    :class:`~repro.errors.ZeroPivotError`.
    """
    return _solve_with_levels(L, b, True, unit_diag, n_threads, machine, levels)


def parallel_upper_solve(
    U: CSC,
    b: np.ndarray,
    n_threads: int = 1,
    machine: Optional[MachineModel] = None,
    levels: Optional[TriangularLevels] = None,
) -> Tuple[np.ndarray, Optional[Schedule]]:
    """Level-scheduled solve of ``U x = b`` (non-unit diagonal)."""
    return _solve_with_levels(U, b, False, False, n_threads, machine, levels)
