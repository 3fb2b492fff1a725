"""Batch-first sweep engine over the graphical lock-range procedure.

The paper's technique is a per-operating-point procedure, but every real
use of it — table regeneration, the verify matrix, and Arnol'd-tongue maps
over the ``(V_i, w_i)`` plane — is a *sweep*.  This package makes the
batch axis first-class:

* :mod:`repro.sweep.spec` — declarative sweep descriptions
  (:class:`SweepSpec` / :class:`SweepPoint`), loadable from JSON/YAML or
  derived from the verify-matrix scenarios and tongue-map shortcuts;
* :mod:`repro.sweep.plan` — grouping of grid points by
  ``(family, n, q_scale)`` so each group shares one natural-oscillation
  solve and one stacked FFT pre-characterisation
  (:class:`SweepPlan` / :class:`SweepGroup`);
* :mod:`repro.sweep.engine` — the batched evaluator: per-group
  pre-characterisation through the one surface store
  (:class:`~repro.perf.sharded_cache.ShardedSurfaceCache`),
  one lockstep :func:`~repro.core.lockrange.predict_lock_ranges` solve per
  group whose per-``V_i`` results are **bitwise identical** to the scalar
  :func:`~repro.core.lockrange.predict_lock_range` path, per-point fault
  masking through the escalation ladder, and ``sweep.*`` spans/counters;
* :mod:`repro.sweep.report` — tidy results tables, the ASCII
  Arnol'd-tongue map, and the ``SWEEP_REPORT.json`` artifact.
"""

from repro.sweep.engine import SweepOutcome, SweepResult, run_sweep, run_sweep_pointwise
from repro.sweep.plan import SweepGroup, SweepPlan, build_plan
from repro.sweep.report import render_table, render_tongue, write_report
from repro.sweep.spec import SweepPoint, SweepSpec, load_spec

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "load_spec",
    "SweepGroup",
    "SweepPlan",
    "build_plan",
    "SweepOutcome",
    "SweepResult",
    "run_sweep",
    "run_sweep_pointwise",
    "render_table",
    "render_tongue",
    "write_report",
]
