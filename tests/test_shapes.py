"""Tests for repro.analysis.shapes (and the PR's satellites).

Five layers:

* analyzer semantics on synthetic sources — each finding class S1-S5
  fires on its minimal provable trigger and stays quiet when the
  violation is not provable (soundness: an over-approximate bound is
  never treated as a proof);
* the seeded-violation fixtures and the whole-tree gate (the annotated
  tree must be clean while every fixture trips exactly its class);
* concrete plan audits — ``audit_schedule_buffers`` must pass on every
  compiled triangular/refactor/blocked schedule the suite caches and
  catch seeded corruptions of their index buffers;
* differential runtime-vs-static checks — random matrices through
  ``gp_factor``/``gp_refactor`` and the solve kernels under the runtime
  shape-contract checker (observed shapes must satisfy the declared
  summaries);
* the CLI: ``repro analyze shapes`` / ``repro analyze all`` exit codes,
  JSON payloads, and combined baseline round-trips.
"""

import copy
import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ShapeContractError,
    apply_baseline,
    audit_schedule_buffers,
    check_call_contract,
    check_shapes_paths,
    check_shapes_source,
    check_shapes_tree,
    collect_shape_contracts,
    contract_checked,
    load_baseline,
    write_baseline_many,
)
from repro.cli import main
from repro.errors import StructureError
from repro.matrices.suite import get_matrix, suite_names
from repro.solvers.gp import ensure_refactor_schedule, gp_factor, gp_refactor
from repro.solvers.klu import KLU
from repro.solvers.triangular import lu_solve, lu_solve_factors
from repro.sparse.csc import CSC
from repro.sparse.ops import lower_solve, upper_solve
from repro.sparse.schedule import compile_triangular_schedule

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "shapes"


def codes(findings):
    return sorted({f.code for f in findings})


def run(src):
    return check_shapes_source(src, relpath="t.py")


# ---------------------------------------------------------------------------
# Analyzer semantics on synthetic sources
# ---------------------------------------------------------------------------

class TestGatherBounds:
    def test_s1_scalar_index_at_length(self):
        fs = run(
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n]")\n'
            'def f(x):\n'
            '    return x[len(x)]\n'
        )
        assert codes(fs) == ["S1"]

    def test_s1_array_index_reaching_length(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n]")\n'
            'def f(x):\n'
            '    return x[np.arange(len(x) + 1)]\n'
        )
        assert codes(fs) == ["S1"]

    def test_upper_bound_alone_is_not_a_proof(self):
        # indptr values are bounded by nnz+1, which exceeds len(indices)
        # == nnz — but a bound is an over-approximation, not a witness,
        # so this legal idiom must stay silent.
        fs = run(
            'from repro.contracts import shapes\n'
            '@shapes(A="csc[r,c]")\n'
            'def f(A):\n'
            '    return A.indices[A.indptr[:-1]]\n'
        )
        assert fs == []

    def test_bounded_contract_gather_is_clean(self):
        fs = run(
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n]", idx="i8[k] < n", returns="f8[k]")\n'
            'def f(x, idx):\n'
            '    return x[idx]\n'
        )
        assert fs == []


class TestScatterReduceat:
    def test_s2_reduceat_starts_reach_operand_length(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(v="f8[n]")\n'
            'def f(v):\n'
            '    return np.add.reduceat(v, np.arange(len(v) + 1))\n'
        )
        assert codes(fs) == ["S2"]

    def test_s2_reduceat_unsorted_starts(self):
        fs = run(
            'import numpy as np\n'
            'def f(v):\n'
            '    return np.add.reduceat(v, np.arange(4)[::-1])\n'
        )
        assert codes(fs) == ["S2"]

    def test_sorted_starts_clean(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(v="f8[n]")\n'
            'def f(v):\n'
            '    out = np.zeros(len(v))\n'
            '    starts = np.arange(len(v))\n'
            '    out[starts] -= np.add.reduceat(v, starts)\n'
            '    return out\n'
        )
        assert fs == []


class TestConformance:
    def test_s3_declared_distinct_dimensions(self):
        fs = run(
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n]", y="f8[m]")\n'
            'def f(x, y):\n'
            '    return x + y\n'
        )
        assert codes(fs) == ["S3"]

    def test_s3_unequal_constants(self):
        fs = run(
            'import numpy as np\n'
            'def f():\n'
            '    return np.zeros(3) + np.ones(4)\n'
        )
        assert codes(fs) == ["S3"]

    def test_length_one_broadcast_exempt(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n]")\n'
            'def f(x):\n'
            '    return x + np.zeros(1)\n'
        )
        assert fs == []


class TestIndexWidth:
    def test_s4_astype_and_alloc(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(idx="i8[n]")\n'
            'def f(idx):\n'
            '    return idx.astype(np.int32), np.zeros(4, dtype=np.int32)\n'
        )
        assert codes(fs) == ["S4"]
        assert len(fs) == 2

    def test_s4_flat_product_length(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n]")\n'
            'def f(x):\n'
            '    return np.zeros(len(x) * len(x))\n'
        )
        assert codes(fs) == ["S4"]


class TestContracts:
    def test_s5_return_length_mismatch(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(b="f8[n]", returns="f8[n]")\n'
            'def f(b):\n'
            '    return np.zeros(len(b) + 1)\n'
        )
        assert codes(fs) == ["S5"]

    def test_s5_call_site_bound_violation(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(p="i8[k] < n", n="dim")\n'
            'def use(p, n):\n'
            '    return p\n'
            'def caller():\n'
            '    return use(np.arange(9), 8)\n'
        )
        assert codes(fs) == ["S5"]

    def test_call_site_within_bound_clean(self):
        fs = run(
            'import numpy as np\n'
            'from repro.contracts import shapes\n'
            '@shapes(p="i8[k] < n", n="dim")\n'
            'def use(p, n):\n'
            '    return p\n'
            'def caller():\n'
            '    return use(np.arange(8), 8)\n'
        )
        assert fs == []

    def test_s5_malformed_declaration(self):
        fs = run(
            'from repro.contracts import shapes\n'
            '@shapes(x="f8[n")\n'
            'def f(x):\n'
            '    return x\n'
        )
        assert codes(fs) == ["S5"]

    def test_s5_unknown_pin(self):
        fs = run(
            'import numpy as np\n'
            'def f():\n'
            '    y = np.zeros(3) + np.zeros(4)  # shapes: frobnicate\n'
            '    return y\n'
        )
        assert "S5" in codes(fs)

    def test_ignore_pin_suppresses(self):
        fs = run(
            'import numpy as np\n'
            'def f():\n'
            '    return np.zeros(3) + np.zeros(4)  # shapes: ignore\n'
        )
        assert fs == []


# ---------------------------------------------------------------------------
# Fixtures and the whole-tree gate
# ---------------------------------------------------------------------------

class TestFixtures:
    @pytest.mark.parametrize("fixture,code", [
        ("s1_gather_oob.py", "S1"),
        ("s2_reduceat_unsorted.py", "S2"),
        ("s3_shape_mismatch.py", "S3"),
        ("s4_int32_narrowing.py", "S4"),
        ("s5_contract_mismatch.py", "S5"),
    ])
    def test_fixture_trips_exactly_its_class(self, fixture, code):
        findings = check_shapes_paths([str(FIXTURES / fixture)])
        assert findings, f"{fixture} produced no findings"
        assert codes(findings) == [code]

    def test_clean_fixture_is_clean(self):
        assert check_shapes_paths([str(FIXTURES / "clean_kernel.py")]) == []

    def test_paths_report_the_path_as_given(self, tmp_path):
        # Reported under its basename, this target would read as the
        # package's own interface.py.
        target = tmp_path / "interface.py"
        target.write_text((FIXTURES / "s1_gather_oob.py").read_text())
        findings = check_shapes_paths([str(target)])
        assert codes(findings) == ["S1"]
        for f in findings:
            assert f.path == str(target)

    def test_annotated_tree_is_clean(self):
        assert check_shapes_tree() == []

    def test_contracts_cover_the_kernel_modules(self):
        contracts = collect_shape_contracts()
        paths = {path for sites in contracts.values() for path, _ in sites}
        joined = " ".join(sorted(str(p) for p in paths))
        for mod in ("sparse/csc.py", "sparse/schedule.py", "sparse/ops.py",
                    "solvers/triangular.py", "solvers/gp.py",
                    "solvers/klu.py"):
            assert mod in joined, f"no @shapes contracts found in {mod}"


# ---------------------------------------------------------------------------
# CSC.check structural validator
# ---------------------------------------------------------------------------

class TestCSCCheck:
    def test_every_suite_matrix_validates(self):
        for name in suite_names(1) + suite_names(2):
            get_matrix(name).check()

    def test_factors_validate(self):
        A = get_matrix("Power0*+")
        res = gp_factor(A)
        res.L.check()
        res.U.check()

    def _valid(self):
        return CSC.from_dense(np.array([[2.0, 1.0], [1.0, 3.0]]))

    def test_indptr_wrong_length(self):
        A = self._valid()
        A.indptr = np.array([0, 2], dtype=np.int64)
        with pytest.raises(StructureError, match="indptr"):
            A.check()

    def test_indptr_not_starting_at_zero(self):
        A = self._valid()
        A.indptr = A.indptr.copy()
        A.indptr[0] = 1
        with pytest.raises(StructureError, match="indptr"):
            A.check()

    def test_indptr_decreasing(self):
        A = self._valid()
        A.indptr = np.array([0, 3, 2], dtype=np.int64)
        with pytest.raises(StructureError):
            A.check()

    def test_row_index_out_of_range(self):
        A = self._valid()
        A.indices = A.indices.copy()
        A.indices[0] = 7
        with pytest.raises(StructureError, match="row indices"):
            A.check()

    def test_unsorted_column(self):
        A = self._valid()
        A.indices = A.indices.copy()
        A.indices[0], A.indices[1] = A.indices[1], A.indices[0]
        with pytest.raises(StructureError, match="not strictly increasing"):
            A.check()

    def test_wrong_dtype(self):
        A = self._valid()
        A.indices = A.indices.astype(np.int32)
        with pytest.raises(StructureError, match="dtype"):
            A.check()

    def test_loader_path_validates(self, tmp_path):
        from repro.sparse import read_matrix_market, write_matrix_market

        A = get_matrix("circuit_4")
        out = tmp_path / "m.mtx"
        write_matrix_market(A, str(out))
        B = read_matrix_market(str(out))
        B.check()
        assert B.shape == A.shape and B.nnz == A.nnz


# ---------------------------------------------------------------------------
# Concrete plan audits
# ---------------------------------------------------------------------------

class TestPlanAudits:
    def test_suite_cached_plans_pass(self):
        for name in suite_names(1) + suite_names(2):
            A = get_matrix(name)
            res = gp_factor(A)
            for plan, lab in (
                (compile_triangular_schedule(res.L, "lower"), "L"),
                (compile_triangular_schedule(res.U, "upper"), "U"),
                (ensure_refactor_schedule(res, A), "refactor"),
            ):
                findings = audit_schedule_buffers(plan, label=f"{name}:{lab}")
                assert findings == [], f"{name}:{lab}: {findings}"

    def test_klu_blocked_replay_plan_passes(self):
        A = get_matrix("Power0*+")
        klu = KLU()
        num = klu.factor(A)
        num2 = klu.refactor_fast(A, num)
        blocked = num2.refactor_cache.replay
        assert blocked is not None
        assert audit_schedule_buffers(blocked) == []

    def _refactor_plan(self):
        A = get_matrix("circuit_4")
        res = gp_factor(A)
        return copy.deepcopy(ensure_refactor_schedule(res, A))

    def test_duplicate_scatter_target_detected(self):
        plan = self._refactor_plan()
        stage = next(st for st in plan.stages if st.seg_tgt.size >= 2)
        stage.seg_tgt[1] = stage.seg_tgt[0]
        fs = audit_schedule_buffers(plan)
        assert "S2" in codes(fs)

    def test_bad_segment_start_detected(self):
        plan = self._refactor_plan()
        stage = next(st for st in plan.stages if st.seg_starts.size >= 2)
        stage.seg_starts[0] = 1
        fs = audit_schedule_buffers(plan)
        assert "S2" in codes(fs)

    def test_out_of_bounds_gather_detected(self):
        plan = self._refactor_plan()
        plan.a_scatter = plan.a_scatter.copy()
        plan.a_scatter[0] = plan.wtotal + 5
        fs = audit_schedule_buffers(plan)
        assert "S1" in codes(fs)

    def test_triangular_corruption_detected(self):
        A = get_matrix("circuit_4")
        res = gp_factor(A)
        plan = copy.deepcopy(compile_triangular_schedule(res.L, "lower"))
        lv = next(l for l in plan.levels
                  if l.scalar_cols is None and l.ent_order.size >= 2)
        lv.ent_order[0] = lv.ent_order[1]  # no longer a permutation
        fs = audit_schedule_buffers(plan)
        assert fs != []

    def test_rejects_unknown_plan(self):
        with pytest.raises(TypeError):
            audit_schedule_buffers(object())


# ---------------------------------------------------------------------------
# Differential runtime-vs-static checks
# ---------------------------------------------------------------------------

def _random_csc(rng, n, density=0.3):
    """Random diagonally-dominant CSC (always factorable)."""
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) > density] = 0.0
    a[np.arange(n), np.arange(n)] = n + np.abs(a).sum(axis=1)
    return CSC.from_dense(a)


class TestRuntimeContracts:
    def test_correct_call_passes(self):
        A = get_matrix("circuit_4")
        res = gp_factor(A)
        b = np.ones(A.n_rows, dtype=np.float64)
        check_call_contract(lower_solve, (res.L, b), {"unit_diag": True})

    def test_wrong_rhs_length_rejected(self):
        A = get_matrix("circuit_4")
        res = gp_factor(A)
        b = np.ones(A.n_rows + 1, dtype=np.float64)
        with pytest.raises(ShapeContractError):
            check_call_contract(lower_solve, (res.L, b), {})

    def test_wrong_return_dtype_rejected(self):
        from repro.contracts import shapes

        @shapes(x="f8[n]", returns="f8[n]")
        def bad(x):
            return np.zeros(len(x), dtype=np.int64)

        with pytest.raises(ShapeContractError):
            contract_checked(bad)(np.ones(3))

    def test_unsorted_violates_sorted_qualifier(self):
        from repro.contracts import shapes

        @shapes(p="i8[q] sorted")
        def wants_sorted(p):
            return p

        with pytest.raises(ShapeContractError):
            check_call_contract(
                wants_sorted, (np.array([3, 1, 2], dtype=np.int64),), {})

    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_gp_factor_and_solves_satisfy_contracts(self, n, seed):
        rng = np.random.default_rng(seed)
        A = _random_csc(rng, n)
        res = contract_checked(gp_factor)(A)
        b = rng.standard_normal(n)
        y = contract_checked(lower_solve)(res.L, b[res.row_perm])
        x = contract_checked(upper_solve)(res.U, y)
        z = contract_checked(lu_solve)(res.L, res.U, res.row_perm, None, b)
        assert np.allclose(x, z)
        assert np.allclose(A.matvec(x)[res.row_perm], b[res.row_perm])

    @settings(deadline=None, max_examples=10,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(min_value=2, max_value=20),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_refactor_replay_satisfies_contracts(self, n, seed):
        rng = np.random.default_rng(seed)
        A = _random_csc(rng, n)
        res = gp_factor(A)
        # Same pattern, new values: scale the stored entries.
        A2 = CSC(n, n, A.indptr, A.indices, A.data * 1.5)
        res2 = contract_checked(gp_refactor)(A2, res)
        ref = gp_factor(A2)
        b = rng.standard_normal(n)
        x = contract_checked(lu_solve_factors)(res2.L, res2.U, b[res2.row_perm])
        xr = lu_solve_factors(ref.L, ref.U, b[ref.row_perm])
        assert np.allclose(x, xr)
        # The replayed plan's buffers stay in bounds.
        assert audit_schedule_buffers(ensure_refactor_schedule(res, A2)) == []


# ---------------------------------------------------------------------------
# CLI and baselines
# ---------------------------------------------------------------------------

class TestCLI:
    def test_shapes_clean_tree_exits_zero(self, capsys):
        assert main(["analyze", "shapes"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_shapes_fixture_exits_nonzero(self, capsys):
        rc = main(["analyze", "shapes", "--path",
                   str(FIXTURES / "s1_gather_oob.py")])
        assert rc == 1
        assert "S1" in capsys.readouterr().out

    def test_shapes_json(self, capsys):
        rc = main(["analyze", "shapes", "--format", "json", "--path",
                   str(FIXTURES / "s5_contract_mismatch.py")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checker"] == "shapes"
        assert not payload["ok"]
        assert any(f["code"] == "S5" for f in payload["findings"])

    def test_shapes_plans_clean(self, capsys):
        rc = main(["analyze", "shapes", "--plans", "--matrix", "circuit_4"])
        assert rc == 0

    def test_analyze_all_unified_json(self, capsys):
        rc = main(["analyze", "all", "--matrix", "circuit_4",
                   "--threads", "1", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checker"] == "all"
        assert payload["ok"]
        assert set(payload["checkers"]) == {
            "lint", "domains", "effects", "shapes", "hazards", "conservation"}
        for sec in payload["checkers"].values():
            assert sec["ok"] and sec["findings"] == []

    def test_analyze_all_against_committed_baseline(self):
        rc = main(["analyze", "all", "--matrix", "circuit_4",
                   "--threads", "1", "--baseline", "ANALYSIS_baseline.json"])
        assert rc == 0

    def test_combined_baseline_roundtrip(self, tmp_path, capsys):
        fixture = str(FIXTURES / "s3_shape_mismatch.py")
        docs = [dataclasses.asdict(f) for f in check_shapes_paths([fixture])]
        assert docs
        base = tmp_path / "base.json"
        write_baseline_many(str(base), {"shapes": docs, "lint": []})
        fps = load_baseline(str(base))
        new, suppressed = apply_baseline("shapes", docs, fps)
        assert new == [] and len(suppressed) == len(docs)
        # The combined file also gates the single-checker CLI run.
        rc = main(["analyze", "shapes", "--path", fixture,
                   "--baseline", str(base)])
        assert rc == 0
        assert "suppressed" in capsys.readouterr().out
