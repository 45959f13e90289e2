"""Static verification layer for the Basker reproduction.

Basker's headline claim — point-to-point synchronization over the ND
dependency tree is *sufficient*, no barriers needed — is a correctness
claim about the task DAG: every pair of conflicting block accesses must
be ordered by the declared dependencies (plus each thread's static
program order).  This package turns that claim into checkable
machinery:

* :mod:`repro.analysis.hazards` — happens-before race detector over
  the declared read/write sets of every :class:`~repro.parallel.sim.SimTask`,
  plus dependency-cycle (deadlock) and dangling-dependency detection;
* :mod:`repro.analysis.conservation` — verifies no work is dropped or
  double counted (sum of per-task ledgers + declared overhead equals
  the whole-factorization ledger) and that a simulated
  :class:`~repro.parallel.sim.Schedule` is self-consistent;
* :mod:`repro.analysis.core` — the index the four source-level
  checkers below share: each module parsed and its pins tokenized once,
  one scope table, function table, registry, fixed-point helper and
  finalize step.  Each checker is a pass over it (:data:`CHECKERS`)
  with ``*_source`` / ``*_paths`` / ``*_tree`` entry points, and
  ``python -m repro analyze all`` hands one index to all four passes;
* :mod:`repro.analysis.lint` — AST lint enforcing the repo's
  cost-model discipline (no wall clocks in kernels, ledgers flow
  through parameters, no bare ``except``, no mutable defaults, no
  nondeterminism in kernels, no mutable module state);
* :mod:`repro.analysis.domains` — interprocedural index-domain checker
  that tracks which index space (``global``, ``btf``, ``nd``,
  ``local:block``) each permutation and index array lives in, using the
  :func:`repro.contracts.domains` annotations on the solver's public
  functions, and flags cross-space mixups (block-local indices applied
  to global arrays, double permutation application, mismatched
  ``compose`` chains);
* :mod:`repro.analysis.effects` — interprocedural effect-and-aliasing
  analyzer that infers each kernel function's real side effects
  (in-place parameter mutation, module-global state, task emission) and
  checks them against the declared contracts: ``SimTask`` read/write
  sets (E1), :func:`repro.contracts.effects` purity declarations (E2),
  process-safety for a real worker-pool backend (E3), same-level
  write-set disjointness (E4), and numpy in-place misuse (E5);
* :mod:`repro.analysis.shapes` — symbolic shape/bounds/dtype abstract
  interpreter assigning every array a symbolic shape in a lattice of
  named dimensions plus an index-range interval, checked against
  :func:`repro.contracts.shapes` declarations: gather out-of-bounds
  (S1), scatter/``reduceat`` precondition violations (S2), shape
  conformance across elementwise ops (S3), index-width hazards (S4)
  and declared-vs-inferred contract mismatches (S5), plus a runtime
  differential contract checker;
* :mod:`repro.analysis.plans` — concrete audits of compiled
  :mod:`repro.sparse.schedule` plans, one walk per schedule kind
  feeding both the E4 write-disjointness audit and the S1–S3
  buffer-bounds audit (``repro analyze {effects,shapes,all} --plans``);
* :mod:`repro.analysis.baseline` — fingerprinted finding baselines so
  ``repro analyze <checker> --baseline FILE`` fails only on *new*
  findings (the CI regression gate).

All checkers are exposed as ``python -m repro analyze
{hazards,conservation,lint,domains,effects,shapes}`` (``--format
json`` for machine consumption), combined under ``python -m repro
analyze all``, and run in CI.
"""

from .baseline import (
    apply_baseline,
    finding_fingerprint,
    load_baseline,
    write_baseline,
    write_baseline_many,
)
from .conservation import ConservationReport, check_conservation, check_schedule
from .domains import (
    DOMAINS,
    Domain,
    DomainFinding,
    check_domains_paths,
    check_domains_source,
    check_domains_tree,
    parse_domain,
)
from .effects import (
    EFFECTS,
    EffectFinding,
    FunctionEffects,
    audit_refactor_schedule,
    audit_triangular_schedule,
    check_effects_paths,
    check_effects_source,
    check_effects_tree,
    collect_effect_summaries,
    summary_for,
)
from .hazards import Hazard, HazardReport, check_hazards, happens_before
from .lint import LINT, LintFinding, lint_paths, lint_source, lint_tree
from .plans import audit_plan
from .shapes import (
    SHAPES,
    ShapeContractError,
    ShapeFinding,
    audit_schedule_buffers,
    check_call_contract,
    check_shapes_paths,
    check_shapes_source,
    check_shapes_tree,
    collect_shape_contracts,
    contract_checked,
)

__all__ = [
    "Hazard",
    "HazardReport",
    "check_hazards",
    "happens_before",
    "ConservationReport",
    "check_conservation",
    "check_schedule",
    "LintFinding",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "Domain",
    "DomainFinding",
    "parse_domain",
    "check_domains_source",
    "check_domains_paths",
    "check_domains_tree",
    "EffectFinding",
    "FunctionEffects",
    "check_effects_source",
    "check_effects_paths",
    "check_effects_tree",
    "collect_effect_summaries",
    "summary_for",
    "audit_triangular_schedule",
    "audit_refactor_schedule",
    "ShapeContractError",
    "ShapeFinding",
    "check_shapes_source",
    "check_shapes_paths",
    "check_shapes_tree",
    "collect_shape_contracts",
    "audit_schedule_buffers",
    "check_call_contract",
    "contract_checked",
    "finding_fingerprint",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
    "write_baseline_many",
    "CHECKERS",
    "audit_plan",
]

# The file-tree checkers, each a pass over one shared core.ModuleIndex.
CHECKERS = {"lint": LINT, "domains": DOMAINS, "effects": EFFECTS, "shapes": SHAPES}
