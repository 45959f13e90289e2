"""Tests for the parallel triangular solve and the iterative substrate."""

import itertools

import numpy as np
import pytest

from repro.core.parsolve import level_schedule, parallel_lower_solve, parallel_upper_solve
from repro.errors import StructureError, ZeroPivotError
from repro.iterative import ILU0Preconditioner, gmres, ilu0
from repro.parallel import SANDY_BRIDGE
from repro.parallel.ledger import CostLedger
from repro.parallel.sim import SimTask, simulate
from repro.solvers import KLU, gp_factor
from repro.sparse import CSC, solve_residual
from repro.sparse.ops import lower_solve, upper_solve

from .helpers import random_spd_like


def _factors(n, seed, density=0.1):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, density, rng)
    lu = gp_factor(A)
    return A, lu, rng


class TestLevelSchedule:
    def test_levels_partition_rows(self):
        _, lu, _ = _factors(40, 0)
        tl = level_schedule(lu.L, lower=True)
        allrows = np.concatenate(tl.levels)
        assert sorted(allrows.tolist()) == list(range(40))

    def test_level_zero_rows_have_no_deps(self):
        _, lu, _ = _factors(30, 1)
        tl = level_schedule(lu.L, lower=True)
        Lt = lu.L.transpose()
        for i in tl.levels[0]:
            deps, _ = Lt.col(int(i))
            assert np.all(deps >= i)  # only the diagonal

    def test_diagonal_matrix_single_level(self):
        tl = level_schedule(CSC.identity(7), lower=True)
        assert tl.n_levels == 1
        assert tl.max_parallelism == 7

    def test_dense_lower_chain(self):
        d = np.tril(np.ones((5, 5)))
        tl = level_schedule(CSC.from_dense(d), lower=True)
        assert tl.n_levels == 5  # fully sequential

    def test_upper_levels_reversed(self):
        d = np.triu(np.ones((4, 4)))
        tl = level_schedule(CSC.from_dense(d), lower=False)
        # Row 3 first (level 0), then 2, 1, 0.
        assert [int(lv[0]) for lv in tl.levels] == [3, 2, 1, 0]


def _row_levels_reference(T, lower):
    """Row level sets straight from the definition: row ``i`` sits one
    level below the deepest row its off-diagonal entries reference."""
    n = T.n_cols
    R = T.transpose()
    level = np.zeros(n, dtype=np.int64)
    for i in (range(n) if lower else range(n - 1, -1, -1)):
        deps, _ = R.col(i)
        deps = deps[deps < i] if lower else deps[deps > i]
        level[i] = level[deps].max() + 1 if deps.size else 0
    return [np.flatnonzero(level == k) for k in range(int(level.max(initial=-1)) + 1)]


def _row_tasks_reference(T, lower, levels, n_threads):
    """The modeled task DAG straight from the row definition: each level
    split into per-thread row chunks; a chunk costs every entry of its
    rows and waits for the chunks producing its off-diagonal operands."""
    R = T.transpose()
    producer = np.full(T.n_cols, -1, dtype=np.int64)
    tasks, keys = [], []
    for lv, rows in enumerate(levels):
        for ci, chunk in enumerate(np.array_split(rows, min(n_threads, rows.size))):
            led, deps = CostLedger(), set()
            for i in chunk:
                cols, _ = R.col(int(i))
                off = cols[cols < i] if lower else cols[cols > i]
                deps.update(int(producer[j]) for j in off)
                led.sparse_flops += cols.size
                led.columns += 1
            deps = sorted(deps)
            tasks.append(SimTask(
                tid=len(tasks), ledger=led, deps=deps, thread=ci,
                p2p_syncs=len(deps), label=f"lv{lv}/c{ci}",
                reads=[("x",) + keys[t] for t in deps], writes=[("x", lv, ci)],
            ))
            keys.append((lv, ci))
            producer[chunk] = len(tasks) - 1
    return tasks


@pytest.mark.parametrize("name", ["memplus", "Power0*+", "Xyce0*", "circuit_4"])
def test_simulated_levels_are_the_replayed_levels(name):
    """The levels the simulator times are the levels the compiled
    triangular-solve schedule replays, and both match the definition;
    the modeled DAG over them matches the row-definition reference and
    the parallel solve's answer is the serial solve's, bit for bit."""
    from repro.matrices import get_matrix
    from repro.sparse.schedule import compile_triangular_schedule

    lu = gp_factor(get_matrix(name))
    b = np.random.default_rng(0).standard_normal(lu.L.n_rows)
    for T, lower, kind in ((lu.L, True, "lower"), (lu.U, False, "upper")):
        simulated = level_schedule(T, lower=lower).levels
        replayed = [lv.cols for lv in compile_triangular_schedule(T, kind).levels]
        reference = _row_levels_reference(T, lower)
        assert len(simulated) == len(replayed) == len(reference) > 1
        for s, r, d in zip(simulated, replayed, reference):
            assert np.array_equal(s, r)
            assert np.array_equal(s, d)

        solve = parallel_lower_solve if lower else parallel_upper_solve
        serial = lower_solve(T, b) if lower else upper_solve(T, b)
        for p in (1, 4, 16):
            x, sched = solve(T, b, n_threads=p, machine=SANDY_BRIDGE)
            assert np.array_equal(x, serial)
            ref = _row_tasks_reference(T, lower, reference, p)
            assert len(sched.tasks) == len(ref)
            for t, r in zip(sched.tasks, ref):
                assert (t.tid, list(t.deps), t.thread, t.p2p_syncs, t.label) == (
                    r.tid, r.deps, r.thread, r.p2p_syncs, r.label)
                assert list(t.reads) == r.reads and list(t.writes) == r.writes
                assert t.ledger == r.ledger
            assert sched.makespan == simulate(ref, SANDY_BRIDGE, p).makespan


class TestParallelTriangularSolve:
    def test_matches_serial_lower(self):
        _, lu, rng = _factors(60, 2)
        b = rng.standard_normal(60)
        x_ref = lower_solve(lu.L, b)
        x, sched = parallel_lower_solve(lu.L, b, n_threads=4, machine=SANDY_BRIDGE)
        assert np.allclose(x, x_ref)
        assert sched is not None and sched.makespan > 0

    def test_matches_serial_upper(self):
        _, lu, rng = _factors(60, 3)
        b = rng.standard_normal(60)
        x_ref = upper_solve(lu.U, b)
        x, sched = parallel_upper_solve(lu.U, b, n_threads=4, machine=SANDY_BRIDGE)
        assert np.allclose(x, x_ref)

    def test_no_machine_means_no_schedule(self):
        _, lu, rng = _factors(20, 4)
        x, sched = parallel_lower_solve(lu.L, rng.standard_normal(20))
        assert sched is None

    def test_speedup_on_wide_levels(self):
        """A forest-like L (many independent rows) parallelizes well."""
        rng = np.random.default_rng(5)
        n = 400
        # Block-diagonal of many small lower triangles: wide levels.
        rows, cols, vals = [], [], []
        for b in range(100):
            off = 4 * b
            for i in range(4):
                for j in range(i + 1):
                    rows.append(off + i)
                    cols.append(off + j)
                    vals.append(1.0 if i == j else rng.random())
        L = CSC.from_coo(rows, cols, vals, (n, n))
        b_vec = rng.standard_normal(n)
        _, s1 = parallel_lower_solve(L, b_vec, n_threads=1, machine=SANDY_BRIDGE)
        _, s8 = parallel_lower_solve(L, b_vec, n_threads=8, machine=SANDY_BRIDGE)
        assert s1.makespan / s8.makespan > 3.0

    def test_reused_levels(self):
        _, lu, rng = _factors(30, 6)
        tl = level_schedule(lu.L, lower=True)
        b = rng.standard_normal(30)
        x1, _ = parallel_lower_solve(lu.L, b, levels=tl)
        assert np.allclose(x1, lower_solve(lu.L, b))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            parallel_lower_solve(CSC.identity(3), np.zeros(4))

    def test_dimension_check_is_typed(self):
        with pytest.raises(StructureError):
            parallel_upper_solve(CSC.identity(3), np.zeros(4))

    def test_unstored_upper_diagonal_raises(self):
        """U[1, 1] is not stored: the serial solve's ZeroPivotError for
        column 1, not an answer that treats the diagonal as 1."""
        U = CSC.from_coo([0, 0, 1, 2], [0, 1, 2, 2], [2.0, 1.0, 3.0, 4.0], (3, 3))
        with pytest.raises(ZeroPivotError) as serial:
            upper_solve(U, np.ones(3))
        for machine in (None, SANDY_BRIDGE):
            with pytest.raises(ZeroPivotError) as par:
                parallel_upper_solve(U, np.ones(3), n_threads=4, machine=machine)
            assert par.value.column == serial.value.column == 1

    def test_unstored_lower_diagonal_raises(self):
        L = CSC.from_coo([0], [0], [1.0], (2, 2))
        with pytest.raises(ZeroPivotError) as serial:
            lower_solve(L, np.ones(2), unit_diag=False)
        with pytest.raises(ZeroPivotError) as par:
            parallel_lower_solve(L, np.ones(2), unit_diag=False)
        assert par.value.column == serial.value.column == 1
        assert np.array_equal(parallel_lower_solve(L, np.ones(2))[0], [1.0, 1.0])

    def test_zero_diagonal_is_typed(self):
        U = CSC.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroPivotError):
            parallel_upper_solve(U, np.ones(2))


class TestILU0:
    def test_exact_when_no_fill_needed(self):
        """On a tridiagonal matrix ILU(0) equals the exact LU."""
        n = 20
        rng = np.random.default_rng(7)
        d = np.eye(n) * 4 + np.eye(n, k=1) * -1 + np.eye(n, k=-1) * -1
        A = CSC.from_dense(d)
        L, U = ilu0(A)
        from repro.sparse import matmat

        prod = matmat(L, U)
        assert np.allclose(prod.to_dense(), d, atol=1e-12)

    def test_pattern_restricted(self):
        rng = np.random.default_rng(8)
        A = random_spd_like(40, 0.08, rng)
        L, U = ilu0(A)
        pat = set(zip(A.indices.tolist(),
                      np.repeat(np.arange(A.n_cols), np.diff(A.indptr)).tolist()))
        col_of = np.repeat(np.arange(L.n_cols), np.diff(L.indptr))
        for i, j in zip(L.indices.tolist(), col_of.tolist()):
            assert i == j or (i, j) in pat
        col_of = np.repeat(np.arange(U.n_cols), np.diff(U.indptr))
        for i, j in zip(U.indices.tolist(), col_of.tolist()):
            assert (i, j) in pat or i == j

    def test_zero_diagonal_raises(self):
        from repro.errors import SingularMatrixError

        A = CSC.from_coo([1, 0], [0, 1], [1.0, 1.0], (2, 2))
        with pytest.raises(SingularMatrixError):
            ilu0(A)

    def test_preconditioner_applies(self):
        rng = np.random.default_rng(9)
        A = random_spd_like(30, 0.1, rng)
        M = ILU0Preconditioner(A)
        v = rng.standard_normal(30)
        y = M.apply(v)
        assert y.shape == (30,)
        assert np.all(np.isfinite(y))


class TestGMRES:
    def test_converges_on_easy_spd_like(self):
        rng = np.random.default_rng(10)
        A = random_spd_like(50, 0.1, rng)
        b = rng.standard_normal(50)
        res = gmres(A, b, tol=1e-10, restart=25, maxiter=200)
        assert res.converged
        assert solve_residual(A, res.x, b) < 1e-8

    def test_preconditioning_reduces_iterations(self):
        rng = np.random.default_rng(11)
        A = random_spd_like(80, 0.05, rng)
        # Make it less trivially conditioned.
        A = CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                A.data * (1 + 5 * rng.random(A.nnz)))
        b = rng.standard_normal(80)
        plain = gmres(A, b, tol=1e-10, restart=40, maxiter=400)
        M = ILU0Preconditioner(A)
        prec = gmres(A, b, M=M.apply, tol=1e-10, restart=40, maxiter=400)
        assert prec.converged
        assert prec.iterations <= plain.iterations

    def test_zero_rhs(self):
        A = CSC.identity(5)
        res = gmres(A, np.zeros(5))
        assert res.converged and np.allclose(res.x, 0.0)

    def test_maxiter_cap(self):
        rng = np.random.default_rng(12)
        A = random_spd_like(40, 0.2, rng)
        b = rng.standard_normal(40)
        res = gmres(A, b, tol=1e-16, maxiter=3, restart=3)
        assert res.iterations <= 3

    def test_matches_direct_solution(self):
        rng = np.random.default_rng(13)
        A = random_spd_like(40, 0.1, rng)
        b = rng.standard_normal(40)
        klu = KLU()
        x_direct = klu.solve(klu.factor(A), b)
        res = gmres(A, b, tol=1e-12, restart=40, maxiter=400)
        assert np.allclose(res.x, x_direct, atol=1e-6)
