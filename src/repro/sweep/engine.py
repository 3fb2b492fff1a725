"""The batched sweep evaluator.

Execution model (one pass per :class:`~repro.sweep.plan.SweepGroup`):

1. materialise the oscillator once and solve its natural oscillation —
   every member point shares the amplitude window;
2. build the group's DFs with :meth:`~repro.core.two_tone.TwoToneDF.batch`,
   which pre-characterises the whole ``V_i`` grid through
   :func:`~repro.core.two_tone.precharacterize` — the path a scalar
   prediction takes too — so warm records come back from the surface
   store and the misses are built in **one** stacked FFT pass under
   single-flight locks;
3. solve every ``V_i`` of the group in **one**
   :func:`~repro.core.lockrange.predict_lock_ranges` call — the lock
   range does not depend on the injection frequency, so an entire
   tongue-map frequency row classifies by interval containment against
   its ``V_i``'s lock range; the call refines the edges of all ``V_i`` in
   lockstep, one stacked surface evaluation per iteration;
4. mask faults per point: a ``V_i`` whose solve failed degrades to the
   escalation ladder (:mod:`repro.robust.ladder`) for its points alone
   (``spec.escalate``) and, if it still fails, is reported as a
   ``no-lock`` / ``fault`` outcome — a batch is never aborted by one bad
   operating point.

The group's solve gets the shared window
(:func:`~repro.core.natural.lock_grid`, the rule a scalar call applies)
and the DFs of ``TwoToneDF.batch``; every lane's arithmetic is
elementwise and :func:`~repro.core.lockrange.predict_lock_range` is the
same call on one ``V_i``, so batched results are **bitwise identical**
to the scalar path.

:func:`run_sweep_pointwise` is the honest scalar baseline: the naive
point loop that re-enters ``predict_lock_range`` from scratch — natural
solve, pre-characterisation and all — for every grid point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.lockrange import (
    LockRange,
    NoLockError,
    predict_lock_range,
    predict_lock_ranges,
)
from repro.core.natural import lock_grid
from repro.core.two_tone import TwoToneDF
from repro.obs import metrics, trace
from repro.perf.sharded_cache import ShardedSurfaceCache, default_store, using_store
from repro.robust.ladder import _recoverable_exceptions, robust_predict_lock_range
from repro.sweep.plan import build_plan
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.verify.scenarios import build_oscillator

__all__ = ["SweepOutcome", "SweepResult", "run_sweep", "run_sweep_pointwise"]


@dataclass(frozen=True)
class SweepOutcome:
    """The result of one sweep point.

    ``status`` is ``"ok"`` (lock range solved), ``"no-lock"`` (the solver
    proved no stable lock exists — that is data, not an error) or
    ``"fault"`` (the point failed even after escalation; ``detail`` holds
    the typed fault).  ``locked`` classifies tongue points (``None`` for
    lock-range-only points and faults).
    """

    index: int
    point: SweepPoint
    status: str
    lock: LockRange | None = None
    locked: bool | None = None
    recovered_via: str | None = None
    detail: str = ""
    referee_width_hz: float | None = None


@dataclass
class SweepResult:
    """All outcomes of one sweep run plus its execution telemetry."""

    spec_name: str
    outcomes: list[SweepOutcome]
    wall_s: float
    n_groups: int = 0
    lock_solves: int = 0
    surface_builds: int = 0
    mode: str = "batched"
    trailer: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.outcomes)

    def counts(self) -> dict[str, int]:
        """Outcome tally by status."""
        tally = {"ok": 0, "no-lock": 0, "fault": 0}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally


def _solve_point(
    nonlinearity,
    tank,
    point: SweepPoint,
    spec: SweepSpec,
    first: LockRange | Exception | None = None,
) -> tuple[LockRange | None, str, str | None, str]:
    """One fault-masked lock-range solve.

    Returns ``(lock, status, recovered_via, detail)``.  ``first`` is the
    plain solver's answer for this point when the caller already has it
    (the batched engine's :func:`predict_lock_ranges` entry — a lock range
    or the recoverable exception it raised); otherwise the plain scalar
    :func:`predict_lock_range` runs here.  Recoverable failures degrade to
    the escalation ladder for this point alone when ``spec.escalate`` —
    without any injected window or DF, so the ladder's rungs (refined
    grid, widened window, dense referee) behave exactly as they do for a
    scalar caller.
    """
    recoverable = _recoverable_exceptions()
    kwargs = dict(
        v_i=point.v_i,
        n=point.n,
        n_a=spec.n_a,
        n_phi=spec.n_phi,
        n_samples=spec.n_samples,
        method=spec.method,
    )
    if first is None:
        try:
            first = predict_lock_range(nonlinearity, tank, **kwargs)
        except recoverable as exc:
            first = exc
    if not isinstance(first, Exception):
        return first, "ok", None, ""
    first_fault = first
    if spec.escalate:
        metrics.inc("sweep.escalations")
        try:
            robust = robust_predict_lock_range(nonlinearity, tank, **kwargs)
            return (
                robust.value,
                "ok",
                robust.diagnostics.recovered_via,
                "",
            )
        except recoverable as exc:
            first_fault = exc
    metrics.inc("sweep.faults")
    if isinstance(first_fault, NoLockError):
        return None, "no-lock", None, str(first_fault)
    return None, "fault", None, f"{type(first_fault).__name__}: {first_fault}"


def _classify(point: SweepPoint, lock: LockRange | None, status: str):
    """The tongue-map verdict of one outcome (None when not applicable)."""
    if point.w_injection is None:
        return None
    if status == "ok" and lock is not None:
        return bool(lock.contains(point.w_injection))
    if status == "no-lock":
        return False
    return None


def run_sweep(
    spec: SweepSpec,
    *,
    cache: ShardedSurfaceCache | None = None,
    progress=None,
) -> SweepResult:
    """Execute a sweep through the batched engine.

    Parameters
    ----------
    spec:
        The sweep description.
    cache:
        The surface store every record of this sweep goes through —
        surfaces, dense fallback grids and escalation rungs alike; the
        process-wide :func:`~repro.perf.sharded_cache.default_store` when
        omitted.
    progress:
        Optional callable ``(done_points, total_points)`` invoked after
        every finished point, so long sweeps can stream live progress
        (the serve layer relays these to ``GET /v1/jobs/<id>/events``).
        Exceptions from the callback are swallowed: a broken progress
        channel must not fail the sweep.
    """
    plan = build_plan(spec)
    store = default_store() if cache is None else cache
    outcomes: dict[int, SweepOutcome] = {}
    started = time.perf_counter()
    surface_builds_before = metrics.counter("sweep.surface_builds")
    with using_store(store), trace(
        "sweep",
        attrs={
            "spec": spec.name,
            "points": plan.n_points,
            "groups": len(plan.groups),
            "method": spec.method,
        },
    ) as sweep_sp:
        done = 0
        for group in plan.groups:
            with trace(
                "sweep.group",
                attrs={
                    "family": group.family,
                    "n": group.n,
                    "q_scale": group.q_scale,
                    "v_is": len(group.v_is),
                    "points": len(group.points),
                },
            ) as group_sp:
                nonlinearity, tank = build_oscillator(group.family, group.q_scale)
                window, amplitudes, _ = lock_grid(
                    nonlinearity,
                    tank,
                    n_a=spec.n_a,
                    n_phi=spec.n_phi,
                    n_samples=spec.n_samples,
                )
                dfs = TwoToneDF.batch(
                    nonlinearity,
                    group.v_is,
                    group.n,
                    amplitudes,
                    n_samples=spec.n_samples,
                    method=spec.method,
                )

                firsts = predict_lock_ranges(
                    nonlinearity,
                    tank,
                    v_is=group.v_is,
                    n=group.n,
                    amplitude_window=window,
                    n_a=spec.n_a,
                    n_phi=spec.n_phi,
                    n_samples=spec.n_samples,
                    method=spec.method,
                    dfs=dfs,
                )
                solves: dict[float, tuple] = {}
                for v_i, first in zip(group.v_is, firsts):
                    probe = SweepPoint(
                        family=group.family,
                        n=group.n,
                        v_i=v_i,
                        q_scale=group.q_scale,
                    )
                    solves[v_i] = _solve_point(nonlinearity, tank, probe, spec, first)
                    metrics.inc("sweep.lock_solves")

                # Frequency-axis points share their V_i's solve.
                shared = len(group.points) - len(group.v_is)
                if shared > 0:
                    metrics.inc("sweep.surface_shared", shared)
                referee_budget = spec.check_transient
                for index in group.points:
                    point = spec.points[index]
                    lock, status, recovered_via, detail = solves[point.v_i]
                    referee_width = None
                    if status == "ok" and referee_budget > 0:
                        referee_budget -= 1
                        referee_width = _transient_referee(
                            nonlinearity, tank, point, spec
                        )
                    outcomes[index] = SweepOutcome(
                        index=index,
                        point=point,
                        status=status,
                        lock=lock,
                        locked=_classify(point, lock, status),
                        recovered_via=recovered_via,
                        detail=detail,
                        referee_width_hz=referee_width,
                    )
                    metrics.inc("sweep.points", status=status)
                    done += 1
                    if progress is not None:
                        try:
                            progress(done, plan.n_points)
                        except Exception:
                            pass
                group_sp.set(
                    solves=len(group.v_is),
                    faults=sum(
                        1
                        for i in group.points
                        if outcomes[i].status != "ok"
                    ),
                )
        wall = time.perf_counter() - started
        result = SweepResult(
            spec_name=spec.name,
            outcomes=[outcomes[i] for i in sorted(outcomes)],
            wall_s=wall,
            n_groups=len(plan.groups),
            lock_solves=plan.n_lock_solves,
            surface_builds=int(
                metrics.counter("sweep.surface_builds") - surface_builds_before
            ),
            mode="batched",
        )
        tally = result.counts()
        sweep_sp.set(wall_s=wall, **{f"points_{k}": v for k, v in tally.items()})
    return result


def _transient_referee(
    nonlinearity, tank, point: SweepPoint, spec: SweepSpec
) -> float | None:
    """Quick simulation spot check of one solved point's lock width (Hz).

    Honors the sweep's ``engine`` selection end to end — the global CLI
    ``--engine`` flag lands here via ``spec.engine``, so
    ``repro sweep --engine reference`` referees with the pure-python
    integrator exactly as the direct odesim drivers would.
    """
    from repro.measure.lockrange_sim import LockScanError, simulate_lock_range

    try:
        measured = simulate_lock_range(
            nonlinearity,
            tank,
            v_i=point.v_i,
            n=point.n,
            rounds=2,
            batch=8,
            engine=spec.engine,
        )
    except LockScanError:
        return None
    metrics.inc("sweep.referee_checks")
    return float(measured.width_hz)


def run_sweep_pointwise(spec: SweepSpec) -> SweepResult:
    """The naive scalar baseline: one full solve per grid point.

    Every point re-enters :func:`predict_lock_range` from scratch —
    fresh oscillator, fresh natural solve (via the default window), fresh
    pre-characterisation — exactly the cost profile the batched engine
    amortises away.  Kept honest and simple for the ablation benchmark
    and the equivalence tests.
    """
    outcomes: list[SweepOutcome] = []
    started = time.perf_counter()
    with trace(
        "sweep", attrs={"spec": spec.name, "points": len(spec.points), "mode": "pointwise"}
    ):
        for index, point in enumerate(spec.points):
            nonlinearity, tank = build_oscillator(point.family, point.q_scale)
            lock, status, recovered_via, detail = _solve_point(
                nonlinearity, tank, point, spec
            )
            outcomes.append(
                SweepOutcome(
                    index=index,
                    point=point,
                    status=status,
                    lock=lock,
                    locked=_classify(point, lock, status),
                    recovered_via=recovered_via,
                    detail=detail,
                )
            )
            metrics.inc("sweep.points", status=status)
    return SweepResult(
        spec_name=spec.name,
        outcomes=outcomes,
        wall_s=time.perf_counter() - started,
        n_groups=0,
        lock_solves=len(spec.points),
        mode="pointwise",
    )
