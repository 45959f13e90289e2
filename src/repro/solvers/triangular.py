"""Solve phase shared by the LU solvers.

All factorizations in this package expose ``A[row_perm][:, col_perm] =
L U``; this module turns that into ``x`` for ``A x = b`` and counts the
solve-phase work (the paper only times numeric factorization, but the
solve path is exercised by the examples and the Xyce transient loop).
"""

from __future__ import annotations

import numpy as np

from ..contracts import domains, shapes
from ..errors import StructureError
from ..obs.tracer import get_tracer
from ..parallel.ledger import CostLedger
from ..sparse.csc import CSC
from ..sparse.ops import lower_solve, upper_solve

__all__ = ["lu_solve", "lu_solve_factors", "btf_solve", "above_block_entries"]


@domains(L="matrix[S]", U="matrix[S]", b_perm="vec[S]", returns="vec[S]")
@shapes(L="csc[n,n]", U="csc[n,n]", b_perm="f8[n]", returns="f8[n]")
def lu_solve_factors(
    L: CSC,
    U: CSC,
    b_perm: np.ndarray,
    unit_diag_L: bool = True,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Solve ``L U z = b_perm`` (b already row-permuted)."""
    y = lower_solve(L, b_perm, unit_diag=unit_diag_L)
    z = upper_solve(U, y)
    if ledger is not None:
        ledger.sparse_flops += L.nnz + U.nnz
        ledger.columns += 2 * L.n_cols
    return z


@domains(row_perm="perm[A->B]", col_perm="perm[A->C]", b="vec[A]")
@shapes(L="csc[n,n]", U="csc[n,n]", returns="f8[n]")
def lu_solve(
    L: CSC,
    U: CSC,
    row_perm: np.ndarray | None,
    col_perm: np.ndarray | None,
    b: np.ndarray,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Solve ``A x = b`` given ``A[row_perm][:, col_perm] = L U``."""
    b = np.asarray(b, dtype=np.float64)
    c = b[row_perm] if row_perm is not None else b
    z = lu_solve_factors(L, U, c, ledger=ledger)
    if col_perm is None:
        return z
    x = np.empty_like(z)
    x[np.asarray(col_perm, dtype=np.int64)] = z
    return x


@shapes(M="csc[n,n]")
def above_block_entries(M: CSC, splits: np.ndarray) -> tuple:
    """``(rows, cols, vals, bounds)`` of the entries of the block upper
    triangular ``M`` above its diagonal blocks, column-major; block
    ``k``'s columns hold entries ``bounds[k]:bounds[k + 1]``."""
    col_of = np.repeat(np.arange(M.n_cols), np.diff(M.indptr))
    block_lo = splits[np.searchsorted(splits, col_of, side="right") - 1]
    above = np.flatnonzero(M.indices < block_lo)
    cols = col_of[above]
    return M.indices[above], cols, M.data[above], np.searchsorted(cols, splits)


@domains(b="vec[global]", returns="vec[global]")
@shapes(returns="f8[n]")
def btf_solve(numeric, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` by block back-substitution over a BTF numeric.

    ``numeric`` is a KLU or Basker numeric object: ``M = (R A)[row_perm]
    [:, col_perm]`` is block upper triangular with diagonal block ``k``
    equal to ``L_k U_k`` (``R`` the optional ``row_scale``).  The
    entries of ``M`` above the diagonal blocks are selected in one
    vectorized pass; each block then subtracts its contribution from
    the rows above with one ``np.subtract.at``, which applies the
    updates in column-major order exactly as a per-column loop would.
    """
    b = np.asarray(b, dtype=np.float64)
    n = numeric.symbolic.n
    if b.shape != (n,):
        raise StructureError("right-hand side has wrong length")
    with get_tracer().span("solve.tri"):
        splits = numeric.symbolic.block_splits
        scale = getattr(numeric, "row_scale", None)
        if scale is not None:
            b = b * scale  # solve (R A) x = R b
        c = b[numeric.row_perm]
        rows, cols, vals, bounds = above_block_entries(numeric.M, splits)
        z = np.zeros(n, dtype=np.float64)
        for k in range(splits.size - 2, -1, -1):
            lo, hi = int(splits[k]), int(splits[k + 1])
            if hi == lo:
                continue
            L, U = numeric.block_factors(k)
            z[lo:hi] = lu_solve_factors(L, U, c[lo:hi])
            first, last = bounds[k], bounds[k + 1]
            if first < last:
                np.subtract.at(c, rows[first:last], vals[first:last] * z[cols[first:last]])
        x = np.empty(n, dtype=np.float64)
        x[numeric.col_perm] = z
    return x
