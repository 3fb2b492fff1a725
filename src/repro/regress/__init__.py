"""Fleet-scale regression gates (ROADMAP item 5).

Two observability layers that used to be dashboards become enforced
gates, run by CI on every push via ``repro regress``:

* :mod:`repro.regress.surfaces` — the **golden surface manifest**:
  committed content hashes (payload fingerprint + cache disk key) of a
  declared set of pre-characterised surfaces, so a 1e-16 numerical drift
  or a cache-key recipe change fails loudly and regen is an explicit,
  reviewed ``--update``;
* :mod:`repro.regress.spans` — the **span-budget gate**: a canonical
  quick verify-matrix replay under tracing whose recorded
  ``hb.iterations`` / ``df.evaluations`` / ``ladder.*`` / ``cache.*``
  telemetry must stay inside declared budgets, plus the **serve span
  gate** (``repro regress spans --serve``): a traced replay through a
  live service whose stitched cross-process trace must validate, carry
  grafted worker spans under ``serve.attempt``, stream live progress
  events, and stay inside the serve-layer budgets.

This is the guardrail that lets the hot paths keep being refactored
aggressively: any work blow-up or bitwise surface drift is caught by the
gate rather than by a user.  Wall-time regressions are the benchmark's
job (``perfbench/``, parent-vs-change runs), and the fixed speed-up
floors live in the harness tests under ``benchmarks/``.
"""

from repro.regress.budgets import (
    BUDGET_SCENARIOS,
    SERVE_SPAN_BUDGETS,
    SPAN_BUDGETS,
    SpanBudget,
)
from repro.regress.spans import (
    BudgetVerdict,
    SpanGateResult,
    evaluate_budgets,
    run_serve_span_gate,
    run_span_gate,
)
from repro.regress.surfaces import (
    DEFAULT_MANIFEST_PATH,
    MANIFEST_CASES,
    SurfaceCase,
    check_surfaces,
    compute_manifest,
    diff_manifest,
    load_manifest,
    write_manifest,
)

__all__ = [
    "SpanBudget",
    "SPAN_BUDGETS",
    "BUDGET_SCENARIOS",
    "DEFAULT_MANIFEST_PATH",
    "MANIFEST_CASES",
    "SurfaceCase",
    "check_surfaces",
    "compute_manifest",
    "diff_manifest",
    "load_manifest",
    "write_manifest",
    "BudgetVerdict",
    "SERVE_SPAN_BUDGETS",
    "SpanGateResult",
    "evaluate_budgets",
    "run_serve_span_gate",
    "run_span_gate",
]
