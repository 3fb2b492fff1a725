"""Span-budget gate: the PR 4 telemetry turned into an enforced bound.

The observability layer records how much work every solve does —
``hb.iterations`` per Newton solve, ``df.evaluations`` per method,
ladder escalations, cache hits and misses — but until now nothing *read*
those numbers in CI: a change that doubled the Newton iteration count
while still converging would land silently.  This gate replays a small,
canonical slice of the quick verify matrix
(:data:`~repro.regress.budgets.BUDGET_SCENARIOS`) with tracing enabled
and asserts the recorded telemetry against the declared
:data:`~repro.regress.budgets.SPAN_BUDGETS`.

Determinism: the replay runs against a **fresh temporary surface cache**
with ``REPRO_NO_CACHE`` cleared, so the cache hit/miss telemetry is the
cold-run profile every time — budgets never depend on what a previous
command happened to leave on disk.  Work counters (DF evaluations, HB
iterations) are grid-driven and identical run to run; the ~1.4x headroom
in the budgets absorbs legitimate drift from tolerance retuning while
still catching the 2x blow-ups the gate exists for.
"""

from __future__ import annotations

import pathlib
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.obs import metrics, tracer
from repro.perf import cache_sandbox
from repro.regress.budgets import (
    BUDGET_SCENARIOS,
    SERVE_SPAN_BUDGETS,
    SPAN_BUDGETS,
    SpanBudget,
)
from repro.verify.harness import counter_deltas

__all__ = [
    "BudgetVerdict",
    "SpanGateResult",
    "evaluate_budgets",
    "run_serve_span_gate",
    "run_span_gate",
]


@dataclass(frozen=True)
class BudgetVerdict:
    """One budget's measured value and pass/fail verdict."""

    name: str
    value: float | None
    ok: bool
    detail: str


@dataclass
class SpanGateResult:
    """The whole gate run: replay context plus per-budget verdicts."""

    scenario_ids: tuple[str, ...]
    verdicts: list[BudgetVerdict] = field(default_factory=list)
    replay_ok: bool = True
    trace_spans: int = 0
    wall_s: float = 0.0
    trace_path: str | None = None

    @property
    def ok(self) -> bool:
        return self.replay_ok and all(v.ok for v in self.verdicts)

    def format(self) -> str:
        lines = [
            f"span-budget replay: {len(self.scenario_ids)} scenario(s), "
            f"{self.trace_spans} spans, {self.wall_s:.1f} s "
            f"({'clean' if self.replay_ok else 'REPLAY FAILED'})"
        ]
        for verdict in self.verdicts:
            flag = "ok " if verdict.ok else "XX "
            shown = "n/a" if verdict.value is None else f"{verdict.value:g}"
            lines.append(f"{flag}{verdict.name:<22} {shown:>12}  {verdict.detail}")
        return "\n".join(lines)


def _prefix_total(deltas: dict, prefix: str) -> float:
    """Sum of every delta whose key starts with ``prefix``.

    Covers labelled variants (``df.evaluations{method=fft}``) and whole
    families (``ladder.`` matches attempts/recoveries/exhausted alike).
    """
    return sum(value for key, value in deltas.items() if key.startswith(prefix))


def _histogram_sum_deltas(before: dict, after: dict) -> dict:
    """Per-histogram delta of the value sums (keys that moved only)."""
    out = {}
    for key, entry in after.items():
        prior = before.get(key, {"sum": 0})
        delta = entry["sum"] - prior.get("sum", 0)
        if delta:
            out[key] = delta
    return out


def evaluate_budgets(
    counters: dict,
    histogram_sums: dict,
    span_counts: dict,
    budgets: tuple[SpanBudget, ...] = SPAN_BUDGETS,
) -> list[BudgetVerdict]:
    """Check one replay's telemetry deltas against the declared budgets.

    Pure over its inputs so tests can feed synthetic deltas — the gate's
    verdict logic is exercised without a 7-second replay.
    """
    verdicts: list[BudgetVerdict] = []
    for budget in budgets:
        if budget.kind == "counter":
            value = float(_prefix_total(counters, budget.selector))
        elif budget.kind == "histogram_sum":
            value = float(_prefix_total(histogram_sums, budget.selector))
        elif budget.kind == "hit_rate":
            hits = _prefix_total(counters, f"{budget.selector}.hits")
            misses = _prefix_total(counters, f"{budget.selector}.misses")
            lookups = hits + misses
            if lookups <= 0:
                verdicts.append(
                    BudgetVerdict(
                        budget.name, None, True, "no lookups in replay (skipped)"
                    )
                )
                continue
            value = hits / lookups
        elif budget.kind == "span_count":
            value = float(span_counts.get(budget.selector, 0))
        else:
            verdicts.append(
                BudgetVerdict(
                    budget.name, None, False, f"unknown budget kind {budget.kind!r}"
                )
            )
            continue
        problems = []
        if budget.max is not None and value > budget.max:
            problems.append(f"exceeds budget max {budget.max:g}")
        if budget.min is not None and value < budget.min:
            problems.append(f"below budget min {budget.min:g}")
        bounds = []
        if budget.max is not None:
            bounds.append(f"<= {budget.max:g}")
        if budget.min is not None:
            bounds.append(f">= {budget.min:g}")
        verdicts.append(
            BudgetVerdict(
                budget.name,
                value,
                not problems,
                "; ".join(problems) if problems else f"within {' and '.join(bounds)}",
            )
        )
    return verdicts


def _replay(
    body,
    scenario_ids: tuple[str, ...],
    budgets: tuple[SpanBudget, ...],
    trace_out: str | pathlib.Path | None,
) -> tuple[SpanGateResult, list[dict]]:
    """Run ``body()`` (truthy when the replay itself went clean) as one
    traced replay and evaluate ``budgets`` on its telemetry deltas.

    When the process-wide tracer is already recording (the CLI's global
    ``--trace``), its buffer is left alone and the replay's spans are
    identified by position; otherwise tracing is enabled for the replay
    and disabled afterwards.  Returns the result and the replay's spans.
    """
    owned_tracer = not tracer.recording
    if owned_tracer:
        tracer.enable()
    spans_before = len(tracer.records())
    snap_before = metrics.snapshot()
    started = time.perf_counter()

    # A fresh cache root makes the cache.* telemetry the deterministic
    # cold-run profile regardless of ambient state.
    with tempfile.TemporaryDirectory(prefix="repro-span-gate-") as tmp:
        # Detach from any ambient CLI span so the replay's spans form
        # self-contained trees (the written trace must validate on its
        # own, without the caller's unfinished parents).
        with cache_sandbox(tmp), tracer.detached():
            replay_ok = bool(body())

    wall = time.perf_counter() - started
    snap_after = metrics.snapshot()
    replay_spans = tracer.records()[spans_before:]
    result = SpanGateResult(
        scenario_ids=scenario_ids,
        replay_ok=replay_ok,
        trace_spans=len(replay_spans),
        wall_s=wall,
    )
    if trace_out is not None:
        result.trace_path = str(tracer.write(trace_out))
    if owned_tracer:
        tracer.disable()

    counters = counter_deltas(snap_before["counters"], snap_after["counters"])
    histogram_sums = _histogram_sum_deltas(
        snap_before["histograms"], snap_after["histograms"]
    )
    span_counts = dict(Counter(span["name"] for span in replay_spans))
    result.verdicts = evaluate_budgets(counters, histogram_sums, span_counts, budgets)
    return result, replay_spans


def run_span_gate(
    scenario_ids: tuple[str, ...] | None = None,
    budgets: tuple[SpanBudget, ...] | None = None,
    trace_out: str | pathlib.Path | None = None,
) -> SpanGateResult:
    """Replay the budget scenarios under tracing and evaluate the budgets."""
    from repro.verify.harness import run_matrix

    ids = tuple(scenario_ids) if scenario_ids else BUDGET_SCENARIOS
    result, _ = _replay(
        lambda: run_matrix("quick", scenario_ids=ids).ok,
        ids,
        budgets or SPAN_BUDGETS,
        trace_out,
    )
    return result


def _stitching_verdicts(replay_spans: list[dict]) -> list[BudgetVerdict]:
    """Structural checks on a stitched serve trace.

    Beyond the generic :func:`~repro.obs.report.validate_trace`
    invariants, the serve gate asserts the *stitching-specific* shape:
    worker-process spans exist, every one of them hangs off a
    ``serve.attempt`` ancestor, and its ``trace_id`` matches that
    ancestor's — one trace per job, no orphaned worker telemetry.
    """
    by_id = {span["span_id"]: span for span in replay_spans}
    worker_spans = [s for s in replay_spans if s.get("process") == "worker"]
    verdicts = [
        BudgetVerdict(
            "stitch.worker-spans",
            float(len(worker_spans)),
            bool(worker_spans),
            "worker-side spans grafted into the parent trace"
            if worker_spans
            else "no worker-process spans were stitched in",
        )
    ]
    orphans = 0
    mismatched = 0
    for span in worker_spans:
        node = span
        while node is not None and node["name"] != "serve.attempt":
            node = by_id.get(node.get("parent_id"))
        if node is None:
            orphans += 1
        elif span.get("trace_id") != node.get("trace_id"):
            mismatched += 1
    verdicts.append(
        BudgetVerdict(
            "stitch.rooted",
            float(orphans),
            orphans == 0,
            "every worker span reaches a serve.attempt ancestor"
            if orphans == 0
            else f"{orphans} worker span(s) not under any serve.attempt",
        )
    )
    verdicts.append(
        BudgetVerdict(
            "stitch.trace-id",
            float(mismatched),
            mismatched == 0,
            "worker trace_ids agree with their attempt"
            if mismatched == 0
            else f"{mismatched} worker span(s) carry a foreign trace_id",
        )
    )
    return verdicts


def run_serve_span_gate(
    trace_out: str | pathlib.Path | None = None,
    budgets: tuple[SpanBudget, ...] | None = None,
) -> SpanGateResult:
    """The serve-layer span gate: a traced replay through a live service.

    Boots a real :class:`~repro.serve.service.ServiceThread` (worker
    subprocess, HTTP front) in an isolated cache sandbox, submits one
    quick lock-range job and one small tongue sweep, and live-polls the
    tongue job's ``/events`` ring while it runs.  The resulting stitched
    trace — parent ``serve.*`` spans plus grafted worker solver spans
    under one ``trace_id`` per job — is checked three ways: the generic
    trace invariants, the stitching structure (:func:`_stitching_verdicts`),
    and the declared :data:`~repro.regress.budgets.SERVE_SPAN_BUDGETS`.
    """
    from repro.obs.report import validate_trace
    from repro.serve.admission import TenantPolicy
    from repro.serve.client import ServeClient
    from repro.serve.service import ServeConfig, ServiceThread

    lock_job = {
        "kind": "lockrange",
        "family": "tanh",
        "n": 3,
        "v_i": 0.03,
        "n_a": 61,
        "n_phi": 121,
        "n_samples": 256,
        "deadline_s": 120.0,
    }
    tongue_job = {
        "kind": "tongue",
        "family": "tanh",
        "n": 3,
        "v_i": 0.03,
        "vi_count": 2,
        "freq_count": 3,
        "n_a": 41,
        "n_phi": 81,
        "n_samples": 256,
        "deadline_s": 120.0,
    }
    config = ServeConfig(
        workers=1,
        queue_limit=8,
        tenants={
            "default": TenantPolicy(rate_per_s=100.0, burst=50, max_in_flight=16)
        },
    )

    replay_problems: list[str] = []
    progress_seen = 0

    def replay() -> bool:
        nonlocal progress_seen
        with ServiceThread(config) as host:
            client = ServeClient(port=host.port, timeout_s=180.0)
            status, lock = client.submit(lock_job, wait=True)
            if status != 200 or lock.get("status") != "completed":
                replay_problems.append(
                    f"lockrange job did not complete: {status} {lock}"
                )
            status, admitted = client.submit(tongue_job)
            if status != 202:
                replay_problems.append(f"tongue job not admitted: {status} {admitted}")
                return False
            job_id = admitted["job_id"]
            cursor = 0
            deadline = time.monotonic() + 150.0
            while time.monotonic() < deadline:
                status, batch = client.job_events(
                    job_id, since=cursor, wait=True, timeout_s=5.0
                )
                if status != 200:
                    replay_problems.append(f"events poll failed: {status} {batch}")
                    break
                cursor = batch.get("next_since", cursor)
                progress_seen += sum(
                    1
                    for event in batch.get("events", [])
                    if event.get("type") in ("point", "rung-start", "rung-done")
                )
                if batch.get("terminal"):
                    break
            else:
                replay_problems.append("tongue job never went terminal")
            _, final = client.status(job_id)
            if final.get("status") != "completed":
                replay_problems.append(f"tongue job ended {final.get('status')!r}")
        return not replay_problems

    result, replay_spans = _replay(
        replay,
        ("serve-lockrange", "serve-tongue-2x3"),
        budgets or SERVE_SPAN_BUDGETS,
        trace_out,
    )
    result.verdicts.append(
        BudgetVerdict(
            "events.progress",
            float(progress_seen),
            progress_seen >= 1,
            "live progress events observed over /events"
            if progress_seen
            else "no progress events arrived before the job finished",
        )
    )
    result.verdicts.extend(_stitching_verdicts(replay_spans))
    if result.trace_path is not None:
        trace_problems = validate_trace(result.trace_path)
        result.verdicts.append(
            BudgetVerdict(
                "trace.validates",
                float(len(trace_problems)),
                not trace_problems,
                "stitched trace passes validate_trace"
                if not trace_problems
                else "; ".join(trace_problems[:3]),
            )
        )
    for problem in replay_problems:
        result.verdicts.append(BudgetVerdict("replay", None, False, problem))
    return result
