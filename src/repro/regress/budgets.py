"""Declared span budgets for the regression gates.

Every number a gate enforces lives in this module, so loosening or
tightening a gate is a one-line reviewed diff rather than an edit buried
in harness code.  Three families:

* :data:`SPAN_BUDGETS` — work-count budgets on the telemetry a quick
  verify-matrix replay records (:mod:`repro.regress.spans`);
* :data:`BUDGET_SCENARIOS` — the canonical replay the span budgets are
  calibrated against (one scenario per oscillator-family tier, cheap
  enough for every push);
* :data:`SERVE_SPAN_BUDGETS` — the shape of the stitched trace a traced
  replay through a live service records.

Calibration note: the span budgets carry ~1.4x headroom over the values
measured at declaration time, so ordinary numerical jitter never fires
them while a 2x blow-up in Newton iterations or DF evaluations — the
regression class ROADMAP item 5 names — always does.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SpanBudget",
    "SERVE_SPAN_BUDGETS",
    "SPAN_BUDGETS",
    "BUDGET_SCENARIOS",
]


@dataclass(frozen=True)
class SpanBudget:
    """One enforced bound on the replay's recorded telemetry.

    ``kind`` selects how ``selector`` is evaluated over the replay:

    * ``"counter"`` — sum of every counter delta whose key starts with
      ``selector`` (labelled variants included, e.g. both
      ``df.evaluations{method=fft}`` and ``{method=dense}``);
    * ``"histogram_sum"`` — sum of the matching histograms' value sums
      (e.g. total Newton iterations across all ``hb.iterations{kind=*}``);
    * ``"hit_rate"`` — ``<selector>.hits / (hits + misses)``, skipped when
      the replay performed no lookups;
    * ``"span_count"`` — number of trace spans named exactly ``selector``.
    """

    name: str
    kind: str
    selector: str
    max: float | None = None
    min: float | None = None


#: The canonical replay: one cheap scenario per family tier of the quick
#: verify matrix.  Kept small enough (~7 s cold) to gate every push.
BUDGET_SCENARIOS: tuple[str, ...] = (
    "tanh-n3-vi030m",
    "skewed-n2-vi030m",
    "tunnel-n3-vi030m",
)

#: Budgets for the :data:`BUDGET_SCENARIOS` replay on a cold, isolated
#: surface cache.  Measured at declaration: df.evaluations 387 477,
#: hb.iterations 19 over 5 solves, 6 cache misses / 5 hits (0.45 hit
#: rate), zero ladder activity, 17 characterize spans.
SPAN_BUDGETS: tuple[SpanBudget, ...] = (
    SpanBudget("df.evaluations", "counter", "df.evaluations", max=550_000),
    SpanBudget("hb.iterations", "histogram_sum", "hb.iterations", max=40),
    SpanBudget("hb.solves", "counter", "hb.solves", max=10),
    # The replay's scenarios all solve on the plain path; any ladder
    # activity means the fast path started failing and silently
    # escalating — a regression even when the answers stay right.
    SpanBudget("ladder.escalations", "counter", "ladder.", max=0),
    SpanBudget("cache.hit_rate", "hit_rate", "cache", min=0.30),
    SpanBudget("cache.misses", "counter", "cache.misses", max=10),
    SpanBudget("spans.characterize", "span_count", "characterize", max=26),
    SpanBudget("spans.lockrange", "span_count", "lockrange", max=9),
    SpanBudget("spans.hb.natural", "span_count", "hb.natural", max=5),
    SpanBudget("spans.surface-build", "span_count", "surface-build", max=9),
)

#: Budgets for the **serve-layer** span gate: a live service replays one
#: quick lock-range job plus one 2x3 tongue sweep (cold cache), with
#: tracing on both sides of the worker boundary stitched into one trace.
#: The span counts bound the shape of that stitched trace — exactly the
#: jobs submitted, at most one attempt of headroom each, the worker's
#: solver spans actually grafted in — while the counters pin the health
#: contract: live progress must flow, and a clean replay must not burn
#: worker restarts or dead-letter anything.
SERVE_SPAN_BUDGETS: tuple[SpanBudget, ...] = (
    SpanBudget("spans.serve.job", "span_count", "serve.job", min=2, max=4),
    SpanBudget("spans.serve.attempt", "span_count", "serve.attempt", min=2, max=8),
    SpanBudget("spans.worker.lockrange", "span_count", "lockrange", min=1, max=24),
    SpanBudget("spans.worker.sweep", "span_count", "sweep", min=1, max=3),
    SpanBudget("serve.progress_events", "counter", "serve.progress_events", min=1),
    SpanBudget("serve.worker_restarts", "counter", "serve.worker_restarts", max=0),
    SpanBudget("serve.dead_lettered", "counter", "serve.dead_lettered", max=0),
)
