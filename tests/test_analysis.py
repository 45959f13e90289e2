"""Tests for repro.analysis: race detection, conservation, lint.

Three layers:

* synthetic DAGs exercising the detector semantics (program order,
  chunk refinement, cycles, dangling deps),
* mutation tests — corrupt a *real* factorization DAG (delete a
  dependency edge / forge a read) and require the corruption to be
  caught and named,
* whole-suite sweeps asserting the emitted DAGs are race-free and the
  ledgers conserve work at several thread counts.
"""

import copy

import pytest

from repro.analysis import (
    check_conservation,
    check_hazards,
    check_schedule,
    happens_before,
    lint_source,
    lint_tree,
)
from repro.core import Basker
from repro.matrices.suite import get_matrix, suite_names
from repro.parallel import SANDY_BRIDGE, CostLedger, SimTask

ALL_MATRICES = suite_names(1) + suite_names(2)
FAST_MATRICES = ["Power0*+", "Xyce0*", "hvdc2+", "memplus"]


def _task(tid, deps=(), thread=None, reads=(), writes=(), label=""):
    return SimTask(
        tid=tid, ledger=CostLedger(), deps=list(deps), thread=thread,
        reads=reads, writes=writes, label=label or f"t{tid}",
    )


# ---------------------------------------------------------------------------
# Detector semantics on synthetic DAGs
# ---------------------------------------------------------------------------

class TestHazardSemantics:
    def test_empty_and_trivial(self):
        assert check_hazards([]).ok
        assert check_hazards([_task(0, writes=[("A", 0)])]).ok

    def test_unordered_write_write_is_a_race(self):
        rep = check_hazards([
            _task(0, writes=[("A", 0)], thread=0, label="w0"),
            _task(1, writes=[("A", 0)], thread=1, label="w1"),
        ])
        assert not rep.ok
        (h,) = rep.races
        assert h.block == ("A", 0)
        assert {h.label_a, h.label_b} == {"w0", "w1"}
        assert "w0" in h.message and "w1" in h.message
        assert "('A', 0)" in h.message

    def test_dependency_orders_the_pair(self):
        rep = check_hazards([
            _task(0, writes=[("A", 0)], thread=0),
            _task(1, deps=[0], writes=[("A", 0)], thread=1),
        ])
        assert rep.ok

    def test_transitive_ordering(self):
        rep = check_hazards([
            _task(0, writes=[("A", 0)]),
            _task(1, deps=[0]),
            _task(2, deps=[1], reads=[("A", 0)]),
        ])
        assert rep.ok

    def test_program_order_covers_same_thread(self):
        # No dep edge, but both pinned to thread 3 — the static schedule
        # serializes them, so no race.
        rep = check_hazards([
            _task(0, writes=[("A", 0)], thread=3),
            _task(1, writes=[("A", 0)], thread=3),
        ])
        assert rep.ok

    def test_free_tasks_get_no_program_order(self):
        rep = check_hazards([
            _task(0, writes=[("A", 0)], thread=None),
            _task(1, writes=[("A", 0)], thread=None),
        ])
        assert len(rep.races) == 1

    def test_read_read_is_not_a_race(self):
        rep = check_hazards([
            _task(0, reads=[("A", 0)], thread=0),
            _task(1, reads=[("A", 0)], thread=1),
        ])
        assert rep.ok
        assert rep.n_pairs_checked == 0

    def test_sibling_chunks_do_not_conflict(self):
        rep = check_hazards([
            _task(0, writes=[("U", 0, 1, 2, "c", 0)], thread=0),
            _task(1, writes=[("U", 0, 1, 2, "c", 1)], thread=1),
        ])
        assert rep.ok

    def test_chunk_conflicts_with_whole_block(self):
        rep = check_hazards([
            _task(0, writes=[("U", 0, 1, 2, "c", 0)], thread=0),
            _task(1, writes=[("U", 0, 1, 2)], thread=1),
        ])
        assert len(rep.races) == 1
        assert rep.races[0].block == ("U", 0, 1, 2)

    def test_cycle_reported_with_labels(self):
        rep = check_hazards([
            _task(0, deps=[1], label="alpha"),
            _task(1, deps=[0], label="beta"),
        ])
        assert [h.kind for h in rep.hazards] == ["cycle"]
        assert "alpha" in rep.hazards[0].message
        assert "deadlock" in rep.hazards[0].message

    def test_dangling_dep_reported(self):
        rep = check_hazards([_task(0, deps=[42], label="lonely")])
        assert [h.kind for h in rep.hazards] == ["dangling"]
        assert "42" in rep.hazards[0].message
        assert "lonely" in rep.hazards[0].message

    def test_duplicate_tid_reported(self):
        rep = check_hazards([_task(0), _task(0)])
        assert any(h.kind == "duplicate" for h in rep.hazards)

    def test_describe_mentions_outcome(self):
        rep = check_hazards([_task(0, writes=[("A", 0)])])
        assert "OK" in rep.describe()

    def test_happens_before_bitmasks(self):
        desc = happens_before([_task(0), _task(1, deps=[0]), _task(2, deps=[1])])
        assert desc is not None
        assert (desc[0] >> 2) & 1 and (desc[0] >> 1) & 1
        assert desc[2] == 0

    def test_happens_before_none_on_cycle(self):
        assert happens_before([_task(0, deps=[1]), _task(1, deps=[0])]) is None


# ---------------------------------------------------------------------------
# Conservation / schedule semantics
# ---------------------------------------------------------------------------

class TestConservationSemantics:
    def test_balanced_ledgers_pass(self):
        tasks = [
            SimTask(tid=0, ledger=CostLedger(sparse_flops=3.0)),
            SimTask(tid=1, ledger=CostLedger(dense_flops=2.0), deps=[0]),
        ]
        total = CostLedger(sparse_flops=3.0, dense_flops=2.0, mem_words=7.0)
        over = CostLedger(mem_words=7.0)
        assert check_conservation(tasks, total, over).ok

    def test_dropped_work_flagged(self):
        tasks = [SimTask(tid=0, ledger=CostLedger(sparse_flops=1.0))]
        rep = check_conservation(tasks, CostLedger(sparse_flops=5.0))
        assert not rep.ok
        assert "dropped from" in rep.findings[0]
        assert "sparse_flops" in rep.findings[0]

    def test_double_counting_flagged(self):
        tasks = [SimTask(tid=0, ledger=CostLedger(columns=9.0))]
        rep = check_conservation(tasks, CostLedger(columns=4.0))
        assert not rep.ok
        assert "double counted" in rep.findings[0]

    def test_schedule_replay_consistent(self):
        from repro.parallel import simulate

        tasks = [
            SimTask(tid=0, ledger=CostLedger(sparse_flops=1e5), thread=0),
            SimTask(tid=1, ledger=CostLedger(sparse_flops=1e5), thread=1, deps=[0]),
        ]
        sched = simulate(tasks, SANDY_BRIDGE, 2)
        assert check_schedule(tasks, sched).ok

    def test_schedule_dep_violation_flagged(self):
        from repro.parallel import simulate

        tasks = [
            SimTask(tid=0, ledger=CostLedger(sparse_flops=1e6), thread=0, label="dep"),
            SimTask(tid=1, ledger=CostLedger(sparse_flops=1e6), thread=1, deps=[0], label="late"),
        ]
        sched = simulate(tasks, SANDY_BRIDGE, 2)
        sched.start[1] = 0.0  # forged: starts before its dependency ends
        rep = check_schedule(tasks, sched)
        assert any("before" in f and "dependency" in f for f in rep.findings)

    def test_schedule_overlap_flagged(self):
        from repro.parallel import simulate

        tasks = [
            SimTask(tid=0, ledger=CostLedger(sparse_flops=1e6), thread=0),
            SimTask(tid=1, ledger=CostLedger(sparse_flops=1e6), thread=0),
        ]
        sched = simulate(tasks, SANDY_BRIDGE, 1)
        sched.start[1] = sched.start[0]  # forged overlap on thread 0
        rep = check_schedule(tasks, sched)
        assert any("overlap" in f for f in rep.findings)


# ---------------------------------------------------------------------------
# Mutation tests on a real factorization DAG
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def memplus_numeric():
    A = get_matrix("memplus")
    return Basker(n_threads=4).factor(A)


class TestMutationDetection:
    def test_baseline_is_clean(self, memplus_numeric):
        rep = check_hazards(memplus_numeric.tasks)
        assert rep.ok, rep.describe()
        assert rep.n_pairs_checked > 0

    def test_deleted_edge_is_caught(self, memplus_numeric):
        tasks = copy.deepcopy(memplus_numeric.tasks)
        by_id = {t.tid: t for t in tasks}
        victim = next(
            (t, d) for t in tasks for d in t.deps
            if by_id[d].thread != t.thread
        )
        t, d = victim
        t.deps = [x for x in t.deps if x != d]
        rep = check_hazards(tasks)
        assert not rep.ok
        # The report names the conflicting block and both task labels.
        assert any(
            h.block is not None and h.label_a and h.label_b for h in rep.races
        )
        assert any(
            {h.tid_a, h.tid_b} & {t.tid, d} for h in rep.races
        )

    def test_forged_read_is_caught(self, memplus_numeric):
        tasks = copy.deepcopy(memplus_numeric.tasks)
        w = next(t for t in tasks if t.writes and t.thread == 0)
        other = next(
            t for t in tasks
            if t.thread not in (None, 0) and w.tid not in t.deps
        )
        other.reads = tuple(other.reads) + (tuple(w.writes[0]),)
        rep = check_hazards(tasks)
        assert not rep.ok
        forged = tuple(w.writes[0])
        base = forged[:-2] if len(forged) >= 2 and forged[-2] == "c" else forged
        assert any(h.block == base for h in rep.races)

    def test_tampered_ledger_is_caught(self, memplus_numeric):
        tasks = copy.deepcopy(memplus_numeric.tasks)
        donor = next(t for t in tasks if not t.ledger.is_empty())
        donor.ledger.sparse_flops += 1e9
        rep = check_conservation(
            tasks, memplus_numeric.ledger, memplus_numeric.overhead_ledger
        )
        assert not rep.ok
        assert any("double counted" in f for f in rep.findings)


# ---------------------------------------------------------------------------
# Whole-suite sweeps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_MATRICES)
def test_suite_dag_race_free_and_conservative_p4(name):
    A = get_matrix(name)
    num = Basker(n_threads=4).factor(A)
    hz = check_hazards(num.tasks)
    assert hz.ok, f"{name}: {hz.describe()}"
    cons = check_conservation(num.tasks, num.ledger, num.overhead_ledger)
    assert cons.ok, f"{name}: {cons.describe()}"
    sched = num.schedule(SANDY_BRIDGE)
    sc = check_schedule(num.tasks, sched)
    assert sc.ok, f"{name}: {sc.describe()}"


@pytest.mark.parametrize("name", FAST_MATRICES)
@pytest.mark.parametrize("p", [1, 16])
def test_suite_dag_clean_other_thread_counts(name, p):
    A = get_matrix(name)
    num = Basker(n_threads=p).factor(A)
    hz = check_hazards(num.tasks)
    assert hz.ok, f"{name} p={p}: {hz.describe()}"
    cons = check_conservation(num.tasks, num.ledger, num.overhead_ledger)
    assert cons.ok, f"{name} p={p}: {cons.describe()}"


@pytest.mark.parametrize("p", [4, 16])
def test_pipeline_mode_race_free(p):
    A = get_matrix("memplus")
    num = Basker(n_threads=p, pipeline_columns=8).factor(A)
    hz = check_hazards(num.tasks)
    assert hz.ok, f"pipeline p={p}: {hz.describe()}"
    # Chunked tasks exist and the detector actually exercised the
    # chunk-compatibility rule.
    assert any(
        len(k) >= 2 and k[-2] == "c"
        for t in num.tasks for k in tuple(t.writes) + tuple(t.reads)
    )
    cons = check_conservation(num.tasks, num.ledger, num.overhead_ledger)
    assert cons.ok, f"pipeline p={p}: {cons.describe()}"


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------

class TestLint:
    def test_shipped_tree_is_clean(self):
        assert lint_tree() == []

    def test_r1_wall_clock_in_kernel(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        out = lint_source(src, "core/numeric.py")
        assert [f.rule for f in out] == ["R1"]
        assert "perf_counter" in out[0].message

    def test_r1_from_import(self):
        out = lint_source("from time import monotonic\n", "sparse/csc.py")
        assert [f.rule for f in out] == ["R1"]

    def test_r1_not_applied_outside_kernels(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, "bench/harness.py") == []

    def test_r2_dropped_ledger(self):
        src = (
            "def f(n):\n"
            "    led = CostLedger()\n"
            "    led.sparse_flops += n\n"
            "    return n\n"
        )
        out = lint_source(src, "solvers/gp.py")
        assert [f.rule for f in out] == ["R2"]
        assert "'led'" in out[0].message

    def test_r2_parameter_ledger_ok(self):
        src = "def f(n, ledger):\n    ledger.sparse_flops += n\n"
        assert lint_source(src, "solvers/gp.py") == []

    def test_r2_escaping_ledger_ok(self):
        src = (
            "def f(n):\n"
            "    led = CostLedger()\n"
            "    led.sparse_flops += n\n"
            "    return led\n"
        )
        assert lint_source(src, "solvers/gp.py") == []

    def test_r2_counter_read_counts_as_escape(self):
        src = (
            "def f(n, out):\n"
            "    led = CostLedger()\n"
            "    led.sparse_flops += n\n"
            "    out.append(led.sparse_flops)\n"
        )
        assert lint_source(src, "solvers/gp.py") == []

    def test_r3_bare_except(self):
        src = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        out = lint_source(src, "util/x.py")
        assert [f.rule for f in out] == ["R3"]

    def test_r4_mutable_default(self):
        out = lint_source("def f(a, b=[]):\n    pass\n", "util/x.py")
        assert [f.rule for f in out] == ["R4"]
        out = lint_source("def f(a, *, b={}):\n    pass\n", "util/x.py")
        assert [f.rule for f in out] == ["R4"]
        out = lint_source("def f(a, b=dict()):\n    pass\n", "util/x.py")
        assert [f.rule for f in out] == ["R4"]

    def test_r4_none_default_ok(self):
        assert lint_source("def f(a, b=None):\n    pass\n", "util/x.py") == []

    def test_syntax_error_reported_not_raised(self):
        out = lint_source("def f(:\n", "util/x.py")
        assert [f.rule for f in out] == ["R0"]

    def test_finding_str_format(self):
        out = lint_source("def f(a=[]):\n    pass\n", "util/x.py")
        assert str(out[0]).startswith("util/x.py:1 R4 ")

    def test_r5_module_level_rng_in_kernel(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        out = lint_source(src, "core/numeric.py")
        assert [f.rule for f in out] == ["R5"]

    def test_r5_applies_to_ordering_and_graph(self):
        src = "import numpy as np\np = np.random.permutation(8)\n"
        assert [f.rule for f in lint_source(src, "ordering/perm.py")] == ["R5"]
        assert [f.rule for f in lint_source(src, "graph/dfs.py")] == ["R5"]

    def test_r5_from_import_numpy_random(self):
        out = lint_source("from numpy.random import default_rng\n", "sparse/ops.py")
        assert [f.rule for f in out] == ["R5"]

    def test_r5_stdlib_random_import(self):
        out = lint_source("import random\n", "solvers/gp.py")
        assert [f.rule for f in out] == ["R5"]

    def test_r5_time_derived_seed(self):
        src = (
            "def f(default_rng, datetime):\n"
            "    return default_rng(int(datetime.now().timestamp()))\n"
        )
        out = lint_source(src, "core/basker.py")
        assert [f.rule for f in out] == ["R5"]
        assert "time-derived seed" in out[0].message

    def test_r5_time_seed_also_trips_wall_clock_rule(self):
        src = (
            "def f(default_rng, time):\n"
            "    return default_rng(int(time.time()))\n"
        )
        out = lint_source(src, "core/basker.py")
        assert [f.rule for f in out] == ["R1", "R5"]

    def test_r5_generator_annotation_ok(self):
        src = (
            "import numpy as np\n"
            "def f(n, rng: np.random.Generator):\n"
            "    return rng.permutation(n)\n"
        )
        assert lint_source(src, "ordering/perm.py") == []

    def test_r5_not_applied_outside_kernels(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(src, "matrices/mesh.py") == []
        assert lint_source(src, "cli.py") == []

    def test_r6_mutable_module_state(self):
        out = lint_source("_CACHE = {}\n", "core/numeric.py")
        assert [f.rule for f in out] == ["R6"]
        assert "_CACHE" in out[0].message

    def test_r6_constructor_calls_and_class_state(self):
        assert [f.rule for f in lint_source("SEEN = set()\n", "sparse/csc.py")] == ["R6"]
        src = "class K:\n    registry = []\n"
        out = lint_source(src, "parallel/sim.py")
        assert [f.rule for f in out] == ["R6"]
        assert "class" in out[0].message

    def test_r6_global_ok_pin_suppresses(self):
        src = "_CACHE = {}  # effects: global-ok\n"
        assert lint_source(src, "core/numeric.py") == []

    def test_r6_immutable_and_dunder_ok(self):
        src = (
            "LIMIT = 64\n"
            "NAMES = ('a', 'b')\n"
            "__all__ = ['f']\n"
        )
        assert lint_source(src, "solvers/gp.py") == []

    def test_r6_not_applied_outside_kernels(self):
        assert lint_source("_CACHE = {}\n", "matrices/mesh.py") == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestAnalyzeCLI:
    def test_analyze_lint_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["analyze", "lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_analyze_all_parses_and_tokenizes_each_module_once(
            self, monkeypatch, capsys):
        import pathlib
        import tokenize

        from repro.analysis import core
        from repro.cli import main

        parsed, tokenized = [], []
        parse, generate_tokens = core.parse_module, tokenize.generate_tokens
        monkeypatch.setattr(core, "parse_module", lambda source, relpath: (
            parsed.append(relpath) or parse(source, relpath)))
        monkeypatch.setattr(tokenize, "generate_tokens", lambda readline: (
            tokenized.append(readline) or generate_tokens(readline)))
        rc = main(["analyze", "all", "--matrix", "circuit_4", "--threads", "1"])
        assert rc == 0
        root = pathlib.Path(core.package_root())
        modules = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
        assert sorted(parsed) == modules
        assert len(tokenized) <= len(modules)

    def test_analyze_hazards_single_matrix(self, capsys):
        from repro.cli import main

        rc = main(["analyze", "hazards", "--matrix", "Power0*+", "--threads", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out and "0 failing" in out

    def test_analyze_conservation_single_matrix(self, capsys):
        from repro.cli import main

        rc = main(["analyze", "conservation", "--matrix", "Xyce0*", "--threads", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_analyze_lint_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(["analyze", "lint", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload == {
            "checker": "lint", "ok": True, "findings": [], "suppressed": [],
        }

    def test_analyze_hazards_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(["analyze", "hazards", "--matrix", "Power0*+",
                   "--threads", "2", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["checker"] == "hazards" and payload["ok"] is True
        (cfg,) = payload["configs"]
        assert cfg["matrix"] == "Power0*+" and cfg["threads"] == 2
        assert cfg["ok"] is True and cfg["findings"] == []
        assert cfg["tasks"] > 0

    def test_analyze_conservation_json(self, capsys):
        import json

        from repro.cli import main

        rc = main(["analyze", "conservation", "--matrix", "Xyce0*",
                   "--threads", "4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["checker"] == "conservation" and payload["ok"] is True
        assert all(c["ok"] and not c["findings"] for c in payload["configs"])
