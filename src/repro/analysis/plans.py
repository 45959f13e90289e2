"""Concrete audits of compiled :mod:`repro.sparse.schedule` plans.

One walk per schedule kind feeds two audits:

* **E4** (effects) — same-level write disjointness: every column is
  finalized in exactly one level/stage, the post-grouping scatter
  targets of a level/stage are pairwise distinct and (triangular) land
  in a strictly later level — the precondition for running a level's
  gather/scatter as parallel same-level tasks.  Reported at
  ``label:level``.
* **S1–S3** (shapes) — buffer bounds: every gather/scatter/segment
  array against the plan's actual workspace extents (indices in bounds,
  ``ent_order`` a permutation, ``seg_starts`` strictly increasing from
  0, counts consistent with staged entry totals).  Reported at
  ``<plan:label>``.

:func:`audit_plan` returns both; :func:`audit_triangular_schedule`,
:func:`audit_refactor_schedule` and :func:`audit_schedule_buffers` are
the single-audit views.  An out-of-range index is an S1 finding, never
an exception.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from .core import Finding

__all__ = [
    "audit_plan",
    "audit_triangular_schedule",
    "audit_refactor_schedule",
    "audit_schedule_buffers",
]


class _Audit:
    def __init__(self, label: str) -> None:
        self.label = label
        self.e4: List[Finding] = []
        self.s: List[Finding] = []

    def disjoint(self, line: int, msg: str) -> None:
        self.e4.append(Finding(self.label, line, "E4", msg))

    def bounds(self, code: str, msg: str) -> None:
        self.s.append(Finding("<plan:%s>" % self.label, 0, code, msg))

    def index(self, where: str, arr: np.ndarray, length: int, lo: int = 0) -> None:
        if arr.size == 0:
            return
        mn, mx = int(arr.min()), int(arr.max())
        if mn < lo or mx >= length:
            self.bounds("S1", "%s: index range [%d, %d] outside buffer extent "
                        "[%d, %d)" % (where, mn, mx, lo, length))

    def count(self, where: str, got: int, what: str, want: int, per: str) -> None:
        if got != want:
            self.bounds("S3", "%s: %d %s for %d %s" % (where, got, what, want, per))

    def perm(self, where: str, arr: np.ndarray, n: int) -> None:
        if arr.size != n or (n and (int(arr.min()) < 0 or int(arr.max()) >= n
                                    or np.bincount(arr, minlength=n).max() != 1)):
            self.bounds("S1", "%s: not a permutation of range(%d)" % (where, n))

    def segments(self, where: str, seg_starts: np.ndarray, seg_tgt: np.ndarray,
                 ent_size: int, tgt_extent: int) -> None:
        if seg_starts.size != seg_tgt.size:
            self.bounds("S2", "%s: %d segment starts but %d targets"
                        % (where, seg_starts.size, seg_tgt.size))
        if seg_starts.size:
            if int(seg_starts[0]) != 0:
                self.bounds("S2", "%s: first segment start is %d, not 0"
                            % (where, int(seg_starts[0])))
            if np.any(np.diff(seg_starts) <= 0):
                self.bounds("S2", "%s: segment starts not strictly increasing"
                            % where)
            self.index(where + " seg_starts", seg_starts, max(ent_size, 1))
            if _has_dups(seg_tgt):
                self.bounds("S2", "%s: duplicate scatter targets within one "
                            "level" % where)
            self.index(where + " seg_tgt", seg_tgt, tgt_extent)


def _has_dups(arr: np.ndarray) -> bool:
    return bool(arr.size) and np.unique(arr).size != arr.size


def _in_range(arr: np.ndarray, n: int) -> np.ndarray:
    return arr[(arr >= 0) & (arr < n)]


def _walk_triangular(sched, audit: _Audit) -> None:
    n, nnz = int(sched.n), int(sched.nnz)
    level_of = np.full(n, -1, dtype=np.int64)
    for lv_idx, lv in enumerate(sched.levels):
        for j in _in_range(np.asarray(lv.cols, dtype=np.int64), n).tolist():
            if level_of[j] >= 0:
                audit.disjoint(lv_idx, "column %d finalized in levels %d and %d "
                               "— parallel column tasks would write the same x "
                               "entry" % (j, int(level_of[j]), lv_idx))
            level_of[j] = lv_idx
    uncovered = np.flatnonzero(level_of < 0)
    if uncovered.size:
        audit.disjoint(0, "column %d is never finalized by any level"
                       % int(uncovered[0]))

    def targets(lv_idx: int, tgt, require_unique: bool) -> None:
        tgt = np.asarray(tgt, dtype=np.int64)
        if require_unique and _has_dups(tgt):
            audit.disjoint(lv_idx, "level %d has duplicate post-grouping scatter "
                           "targets — the reduceat segments are not disjoint"
                           % lv_idx)
        tgt = _in_range(tgt, n)
        bad = tgt[level_of[tgt] <= lv_idx]
        if bad.size:
            audit.disjoint(lv_idx, "level %d scatters into row %d of level %d — "
                           "an update targets a row finalized no later than its "
                           "producer" % (lv_idx, int(bad[0]),
                                         int(level_of[int(bad[0])])))

    if sched.diag_idx.shape != (n,):
        audit.bounds("S3", "diag_idx has shape %r, expected (%d,)"
                     % (sched.diag_idx.shape, n))
    audit.index("diag_idx", sched.diag_idx, nnz, lo=-1)
    for s, lv in enumerate(sched.levels):
        where = "level %d" % s
        audit.index(where + " cols", lv.cols, n)
        if _has_dups(lv.cols):
            audit.bounds("S2", "%s: duplicate columns within a level" % where)
        if lv.scalar_cols is not None:
            for j, dj, lo, hi, rows in lv.scalar_cols:
                if not (0 <= j < n):
                    audit.bounds("S1", "%s: scalar column %d outside [0, %d)"
                                 % (where, j, n))
                if dj < -1 or dj >= nnz:
                    audit.bounds("S1", "%s: scalar diag index %d outside "
                                 "[-1, %d)" % (where, dj, nnz))
                if not (0 <= lo <= hi <= nnz):
                    audit.bounds("S1", "%s: scalar data slice [%d, %d) outside "
                                 "[0, %d]" % (where, lo, hi, nnz))
                audit.index(where + " scalar rows", np.asarray(rows), n)
                # scalar levels replay sequentially: only ordering matters
                targets(s, rows, require_unique=False)
            continue
        audit.index(where + " diag_idx", lv.diag_idx, nnz, lo=-1)
        audit.count(where, lv.counts.size, "counts", lv.cols.size, "columns")
        if lv.counts.size and int(lv.counts.min()) < 0:
            audit.bounds("S2", "%s: negative entry count" % where)
        if int(lv.counts.sum()) != lv.ent_val_idx.size:
            audit.bounds("S3", "%s: counts sum to %d but %d entries staged"
                         % (where, int(lv.counts.sum()), lv.ent_val_idx.size))
        audit.index(where + " ent_val_idx", lv.ent_val_idx, nnz)
        audit.perm(where + " ent_order", lv.ent_order, lv.ent_val_idx.size)
        audit.segments(where, lv.seg_starts, lv.seg_tgt, lv.ent_val_idx.size, n)
        targets(s, lv.seg_tgt, require_unique=True)


def _walk_refactor(sched, audit: _Audit) -> None:
    n, wtotal = int(sched.n), int(sched.wtotal)
    l_nnz = sched.l_indices.size
    u_nnz = sched.u_indices.size
    audit.perm("row_perm", sched.row_perm, n)
    for name, ptr, sz in (("l_indptr", sched.l_indptr, l_nnz),
                          ("u_indptr", sched.u_indptr, u_nnz),
                          ("a_indptr", sched.a_indptr, sched.a_indices.size)):
        if ptr.shape != (n + 1,) or int(ptr[0]) != 0 \
                or int(ptr[-1]) != sz or np.any(np.diff(ptr) < 0):
            audit.bounds("S3", "%s is not a monotone pointer array of length %d "
                         "ending at %d" % (name, n + 1, sz))
    if sched.a_scatter.size != sched.a_indices.size:
        audit.bounds("S3", "a_scatter has %d entries for %d input values"
                     % (sched.a_scatter.size, sched.a_indices.size))
    audit.index("a_scatter", sched.a_scatter, wtotal)
    if _has_dups(sched.a_scatter):
        audit.bounds("S2", "a_scatter provably contains duplicate workspace "
                     "positions")
    if sched.ux_src.size != u_nnz:
        audit.bounds("S3", "ux_src has %d entries for %d U values"
                     % (sched.ux_src.size, u_nnz))
    audit.index("ux_src", sched.ux_src, wtotal)
    if sched.l_diag_dst.size != n:
        audit.bounds("S3", "l_diag_dst has %d entries for %d unit diagonals"
                     % (sched.l_diag_dst.size, n))
    audit.index("l_diag_dst", sched.l_diag_dst, l_nnz)
    seen: Set[int] = set()
    stages_of = np.zeros(n, dtype=np.int64)
    for s, stage in enumerate(sched.stages):
        where = "stage %d" % s
        for j in stage.cols.tolist():
            if j in seen:
                audit.disjoint(s, "column %d finalized in more than one stage" % j)
            seen.add(j)
        if _has_dups(stage.cols):
            audit.disjoint(s, "stage %d finalizes a column twice" % s)
        if _has_dups(stage.seg_tgt):
            audit.disjoint(s, "stage %d has duplicate post-grouping scatter "
                           "targets in the update workspace" % s)
        l_dups = _has_dups(stage.l_dst)
        if l_dups:
            audit.disjoint(s, "stage %d writes an Lx slot twice" % s)
        audit.index(where + " cols", stage.cols, n)
        stages_of[np.unique(_in_range(stage.cols, n))] += 1
        audit.count(where, stage.piv_wpos.size, "pivot positions",
                    stage.cols.size, "columns")
        audit.index(where + " piv_wpos", stage.piv_wpos, wtotal)
        if stage.l_counts.size and int(stage.l_counts.min()) < 0:
            audit.bounds("S2", "%s: negative l_counts" % where)
        if int(stage.l_counts.sum()) != stage.l_dst.size:
            audit.bounds("S3", "%s: l_counts sum to %d but %d L slots staged"
                         % (where, int(stage.l_counts.sum()), stage.l_dst.size))
        audit.index(where + " l_dst", stage.l_dst, l_nnz)
        if l_dups:
            audit.bounds("S2", "%s: duplicate L destinations within a stage"
                         % where)
        audit.count(where, stage.l_src.size, "L sources",
                    stage.l_dst.size, "destinations")
        audit.index(where + " l_src", stage.l_src, wtotal)
        audit.index(where + " op_src_wpos", stage.op_src_wpos, wtotal)
        audit.count(where, stage.op_len.size, "op lengths",
                    stage.op_src_wpos.size, "ops")
        if stage.op_len.size and int(stage.op_len.min()) < 0:
            audit.bounds("S2", "%s: negative op_len" % where)
        if int(stage.op_len.sum()) != stage.ent_lval_idx.size:
            audit.bounds("S3", "%s: op_len sums to %d but %d entries staged"
                         % (where, int(stage.op_len.sum()),
                            stage.ent_lval_idx.size))
        audit.index(where + " ent_lval_idx", stage.ent_lval_idx, l_nnz)
        audit.perm(where + " ent_order", stage.ent_order, stage.ent_lval_idx.size)
        audit.segments(where, stage.seg_starts, stage.seg_tgt,
                       stage.ent_lval_idx.size, wtotal)
        if stage.op_group is not None:
            audit.count(where, stage.op_group.size, "op groups",
                        stage.op_len.size, "ops")
            audit.index(where + " op_group", stage.op_group,
                        int(getattr(sched, "n_groups", 1)))
    if np.any(stages_of > 1):
        audit.bounds("S2", "columns finalized more than once across stages: %r"
                     % np.flatnonzero(stages_of > 1)[:8].tolist())
    if np.any(stages_of == 0) and sched.stages:
        audit.bounds("S1", "columns never finalized by any stage: %r"
                     % np.flatnonzero(stages_of == 0)[:8].tolist())


def _walk_blocked(plan, audit: _Audit) -> None:
    sched = plan.schedule
    _walk_refactor(sched, audit)
    if plan.d_gather.size != sched.a_indices.size:
        audit.bounds("S3", "d_gather has %d entries for %d block values"
                     % (plan.d_gather.size, sched.a_indices.size))
    if plan.d_gather.size and int(plan.d_gather.min()) < 0:
        audit.bounds("S1", "d_gather contains negative indices")
    for name, ptr in (("l_ptr", plan.l_ptr), ("u_ptr", plan.u_ptr)):
        if np.any(np.diff(np.asarray(ptr)) < 0):
            audit.bounds("S2", "%s block boundaries not monotone" % name)


def _kind(plan) -> Tuple[str, object]:
    """``(default buffers label, walk)`` for a compiled plan."""
    if hasattr(plan, "levels") and hasattr(plan, "kind"):
        return "tri:%s" % plan.kind, _walk_triangular
    if hasattr(plan, "stages") and hasattr(plan, "wtotal"):
        return "refactor", _walk_refactor
    if hasattr(plan, "schedule") and hasattr(plan, "d_gather"):
        return "blocked", _walk_blocked
    raise TypeError("unsupported plan object %r" % type(plan).__name__)


def audit_plan(plan, label: Optional[str] = None
               ) -> Tuple[List[Finding], List[Finding]]:
    """Both audits of one compiled plan in one walk:
    ``(E4 findings, S findings)``."""
    default, walk = _kind(plan)
    audit = _Audit(label or default)
    walk(plan, audit)
    return audit.e4, audit.s


def audit_triangular_schedule(sched, label: str = "<TriangularSchedule>"):
    """Symbolically verify per-level disjointness of a compiled
    :class:`repro.sparse.schedule.TriangularSchedule`.

    Every column is finalized in exactly one level, the post-grouping
    scatter targets of a vectorized level (``seg_tgt``) are pairwise
    distinct, and every scatter lands in a strictly later level — the
    write-disjointness precondition for executing a level's columns as
    parallel same-level tasks.  Scalar (narrow) levels replay
    sequentially, so only their level-ordering is checked.  Returns a
    list of E4 findings.
    """
    audit = _Audit(label)
    _walk_triangular(sched, audit)
    return audit.e4


def audit_refactor_schedule(sched, label: str = "<RefactorSchedule>"):
    """Per-stage disjointness audit of a compiled
    :class:`repro.sparse.schedule.RefactorSchedule`: every column is
    finalized in exactly one stage and within a stage the grouped
    workspace scatter targets and L-destination slots are pairwise
    distinct.  Returns a list of E4 findings."""
    audit = _Audit(label)
    _walk_refactor(sched, audit)
    return audit.e4


def audit_schedule_buffers(plan, label: Optional[str] = None) -> List[Finding]:
    """Concrete bounds audit of a compiled schedule's index buffers.

    Accepts a :class:`~repro.sparse.schedule.TriangularSchedule`,
    :class:`~repro.sparse.schedule.RefactorSchedule` or
    :class:`~repro.sparse.schedule.BlockedRefactorSchedule` and checks
    every gather/scatter/segment array against the actual workspace
    extents of the plan: indices in bounds, ``ent_order`` a valid
    permutation, ``seg_starts`` strictly increasing from 0, ``seg_tgt``
    duplicate-free per level/stage, counts consistent with staged entry
    totals.  Returns a (possibly empty) list of findings; an empty list
    means every buffer access the replay will perform is in bounds.
    """
    return audit_plan(plan, label)[1]
