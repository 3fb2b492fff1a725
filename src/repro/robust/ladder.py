"""Escalation policy engine: declarative retry ladders per solve stage.

The graphical technique only yields answers when several numerical stages
all succeed; a transient failure in any one of them should degrade to a
slower-but-correct path, not surface as a hard exception.  This module
implements that degradation as *escalation ladders*: an ordered tuple of
:class:`Rung` records, each naming a strategy and the keyword overrides
that realise it, executed by :func:`run_ladder` under an explicit attempt
budget.

Stage ladders (in the spirit of robust harmonic-balance continuation
practice — Kundert's steady-state methodology):

* **natural oscillation** — baseline scan, then a refined ``T_f(A)`` grid,
  then a higher-resolution quadrature;
* **lock states / lock range** — baseline FFT grid, then a refined DF
  grid, then a widened amplitude window, then the dense-quadrature
  referee method;
* **harmonic balance** — damped Newton, then a heavily damped retry at
  higher resolution, then source-stepping continuation from the
  ``V_i -> 0`` single-tone solution.

Every wrapper returns a :class:`RobustResult` — the underlying result
object plus the :class:`~repro.robust.diagnostics.SolveDiagnostics`
telling the full escalation story.  When the ladder exhausts (or hits a
non-recoverable fault) the *typed* final exception is re-raised with the
diagnostics attached as ``exc.diagnostics``, so even failures carry their
history to the CLI.
"""

from __future__ import annotations

import contextlib
import contextvars
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.obs import convergence_event, events_active, metrics, trace
from repro.robust.diagnostics import RungAttempt, SolveDiagnostics, collecting
from repro.robust.faults import NumericalFaultError, SolveFault, fault_from_exception

__all__ = [
    "Rung",
    "EscalationPolicy",
    "RobustResult",
    "run_ladder",
    "ladder_progress",
    "natural_policy",
    "lock_state_policy",
    "lock_range_policy",
    "hb_natural_policy",
    "hb_lock_policy",
    "robust_natural",
    "robust_solve_lock_states",
    "robust_predict_lock_range",
    "robust_hb_natural",
    "robust_hb_lock_state",
]


@dataclass(frozen=True)
class Rung:
    """One strategy of an escalation ladder.

    ``overrides`` are keyword arguments merged *over* the caller's own
    when the rung runs; keys starting with ``_`` are ladder directives
    interpreted by the stage wrapper (e.g. ``_widen_window``,
    ``_continuation``) rather than passed to the solver.
    """

    name: str
    description: str
    overrides: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class EscalationPolicy:
    """A stage's declarative retry ladder with an explicit attempt budget."""

    stage: str
    rungs: tuple[Rung, ...]
    max_attempts: int | None = None

    def budget(self) -> int:
        if self.max_attempts is None:
            return len(self.rungs)
        return max(1, min(self.max_attempts, len(self.rungs)))

    def describe(self) -> str:
        steps = " -> ".join(r.name for r in self.rungs[: self.budget()])
        return f"{self.stage}: {steps}"


class RobustResult:
    """A solver result bundled with its escalation diagnostics.

    Attribute access falls through to the wrapped value, so
    ``robust_predict_lock_range(...).width_hz`` works exactly like the
    plain result; use ``.value`` for the bare object and ``.diagnostics``
    for the escalation record.
    """

    __slots__ = ("value", "diagnostics")

    def __init__(self, value, diagnostics: SolveDiagnostics):
        self.value = value
        self.diagnostics = diagnostics

    def __getattr__(self, name):
        return getattr(self.value, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RobustResult({self.value!r}, {self.diagnostics.summary()!r})"


#: Ambient per-job progress callback (see :func:`ladder_progress`).  A
#: contextvar rather than a parameter so the serve worker can observe rung
#: transitions without threading a callback through every stage wrapper's
#: signature — and without perturbing any in-process caller.
_progress_cb: contextvars.ContextVar[Callable[[dict], None] | None] = (
    contextvars.ContextVar("repro_ladder_progress", default=None)
)


@contextlib.contextmanager
def ladder_progress(callback: Callable[[dict], None] | None):
    """Subscribe ``callback`` to rung transitions inside the block.

    The callback receives one dict per event — ``{"event": "rung-start" |
    "rung-done", "stage": ..., "rung": ...}`` plus ``outcome`` on done
    events — and must never raise (exceptions are swallowed so a broken
    progress channel cannot fail a solve).  The serve worker uses this to
    stream live escalation progress back to the parent process.
    """
    token = _progress_cb.set(callback)
    try:
        yield
    finally:
        _progress_cb.reset(token)


def _emit_progress(event: str, stage: str, rung: str, **fields) -> None:
    callback = _progress_cb.get()
    if callback is None:
        return
    record = {"event": event, "stage": stage, "rung": rung}
    record.update(fields)
    try:
        callback(record)
    except Exception:
        pass


def _recoverable_exceptions() -> tuple:
    """The exception types a ladder converts to faults (lazy core imports)."""
    from repro.core.harmonic_balance import HbConvergenceError
    from repro.core.lockrange import NoLockError
    from repro.core.natural import NoOscillationError

    return (
        NoLockError,
        HbConvergenceError,
        NoOscillationError,
        NumericalFaultError,
        np.linalg.LinAlgError,
    )


def run_ladder(
    policy: EscalationPolicy,
    attempt: Callable[[dict], Any],
    *,
    retry_on_result: Callable[[Any], bool] | None = None,
    deadline: float | None = None,
) -> RobustResult:
    """Execute an escalation ladder.

    Parameters
    ----------
    policy:
        The ladder to walk; at most ``policy.budget()`` rungs run.
    attempt:
        Callable receiving the rung's override dict and performing one
        solve.  Recoverable exceptions become faults and escalate;
        anything else propagates immediately (a bug is not a fault).
    retry_on_result:
        Optional predicate marking a *successful* result as structurally
        suspicious (e.g. zero lock states at the tank centre); the ladder
        then escalates, keeping the suspicious result as the fallback
        answer should every later rung fail too.
    deadline:
        Optional wall-clock deadline as a ``time.monotonic()`` timestamp.
        Every rung checks the remaining budget *before* starting: once the
        deadline has passed, the ladder stops climbing and records a
        ``budget-exhausted`` fault instead of overrunning — a slow
        dense-referee rung can no longer run arbitrarily long past the
        caller's budget.  A fallback result (or the typed exception of the
        last attempted rung) still carries the full diagnostics.

    Raises
    ------
    The final rung's typed exception, with ``.diagnostics`` attached, when
    every attempted rung faulted (or a non-recoverable fault stopped the
    climb early).  When the deadline expires before any rung produced a
    result or typed failure, a :class:`NumericalFaultError` carrying the
    ``budget-exhausted`` fault is raised instead.
    """
    diagnostics = SolveDiagnostics(stage=policy.stage)
    recoverable = _recoverable_exceptions()
    budget = policy.budget()
    last_exc: BaseException | None = None
    fallback: Any = None
    have_fallback = False
    with trace(
        "ladder", attrs={"stage": policy.stage, "budget": budget}
    ) as ladder_sp:
        for index, rung in enumerate(policy.rungs[:budget]):
            if deadline is not None and time.monotonic() >= deadline:
                diagnostics.record_fault(
                    SolveFault(
                        "budget-exhausted",
                        policy.stage,
                        f"wall-clock deadline reached before rung "
                        f"'{rung.name}' ({index}/{budget} attempted)",
                        recoverable=False,
                    )
                )
                metrics.inc("ladder.budget_exhausted", stage=policy.stage)
                ladder_sp.set(budget_exhausted=True)
                break
            params = dict(rung.overrides)
            start = time.perf_counter()
            _emit_progress("rung-start", policy.stage, rung.name)
            with trace(
                "rung", attrs={"stage": policy.stage, "rung": rung.name}
            ) as rung_sp:
                try:
                    with collecting(diagnostics):
                        result = attempt(dict(params))
                except recoverable as exc:
                    wall = time.perf_counter() - start
                    fault = diagnostics.record_fault(
                        fault_from_exception(exc, stage=policy.stage)
                    )
                    diagnostics.attempts.append(
                        RungAttempt(rung.name, params, "fault", fault, wall)
                    )
                    last_exc = exc
                    _emit_progress(
                        "rung-done",
                        policy.stage,
                        rung.name,
                        outcome="fault",
                        fault=fault.kind,
                    )
                    rung_sp.set(outcome="fault", fault=fault.kind)
                    metrics.inc(
                        "ladder.attempts",
                        stage=policy.stage,
                        rung=rung.name,
                        outcome="fault",
                    )
                    if not fault.recoverable:
                        break
                    if events_active():
                        convergence_event(
                            "ladder-escalate",
                            stage=policy.stage,
                            rung=rung.name,
                            fault=fault.kind,
                        )
                    continue
                wall = time.perf_counter() - start
                is_last = index == budget - 1
                if (
                    retry_on_result is not None
                    and not is_last
                    and retry_on_result(result)
                ):
                    fault = diagnostics.record_fault(
                        SolveFault(
                            "suspicious-result",
                            policy.stage,
                            f"rung '{rung.name}' produced a structurally "
                            "suspicious result; escalating",
                        )
                    )
                    diagnostics.attempts.append(
                        RungAttempt(rung.name, params, "retry", fault, wall)
                    )
                    _emit_progress(
                        "rung-done", policy.stage, rung.name, outcome="retry"
                    )
                    rung_sp.set(outcome="retry")
                    metrics.inc(
                        "ladder.attempts",
                        stage=policy.stage,
                        rung=rung.name,
                        outcome="retry",
                    )
                    fallback, have_fallback = result, True
                    continue
                diagnostics.attempts.append(
                    RungAttempt(rung.name, params, "ok", None, wall)
                )
                _emit_progress("rung-done", policy.stage, rung.name, outcome="ok")
                rung_sp.set(outcome="ok")
                metrics.inc(
                    "ladder.attempts",
                    stage=policy.stage,
                    rung=rung.name,
                    outcome="ok",
                )
                if index > 0:
                    diagnostics.recovered_via = rung.name
                    metrics.inc(
                        "ladder.recoveries", stage=policy.stage, rung=rung.name
                    )
                ladder_sp.set(outcome="ok", rung=rung.name)
                return RobustResult(result, diagnostics)
        diagnostics.exhausted = True
        if have_fallback:
            # Every escalation of a suspicious result failed outright; the
            # suspicious answer is still the best (and a correct) one we have.
            ladder_sp.set(outcome="fallback")
            return RobustResult(fallback, diagnostics)
        if last_exc is None:
            # The deadline expired before the first rung could even start:
            # there is no typed solver exception to re-raise, so surface
            # the budget fault itself as the typed failure.
            budget_fault = diagnostics.faults[-1]
            last_exc = NumericalFaultError(budget_fault)
        ladder_sp.set(outcome="exhausted")
        metrics.inc("ladder.exhausted", stage=policy.stage)
        last_exc.diagnostics = diagnostics
        raise last_exc


# -- stage policies -----------------------------------------------------------


def natural_policy() -> EscalationPolicy:
    """Free-running oscillation: refine the ``T_f(A)`` scan, then quadrature."""
    return EscalationPolicy(
        "natural",
        (
            Rung("baseline", "default T_f(A) scan", {}),
            Rung("refined-scan", "4x finer amplitude scan", {"n_grid": 1600}),
            Rung(
                "high-resolution",
                "finer scan plus doubled Fourier quadrature",
                {"n_grid": 3200, "n_samples": 1024},
            ),
        ),
    )


def lock_state_policy() -> EscalationPolicy:
    """Lock states: refine the DF grid, widen the window, go dense."""
    return EscalationPolicy(
        "lock-states",
        (
            Rung("baseline", "default FFT pre-characterisation grid", {}),
            Rung(
                "refined-grid",
                "finer (A, phi) candidate grid",
                {"n_a": 201, "n_phi": 281},
            ),
            Rung(
                "widened-window",
                "1.6x wider amplitude search window",
                {"_widen_window": 1.6, "n_a": 201, "n_phi": 281},
            ),
            Rung(
                "dense-referee",
                "direct-quadrature referee method",
                {"method": "dense", "n_a": 201, "n_phi": 281},
            ),
        ),
    )


def lock_range_policy() -> EscalationPolicy:
    """Lock range: same ladder shape as the lock-state solver."""
    return EscalationPolicy(
        "lock-range",
        (
            Rung("baseline", "default FFT pre-characterisation grid", {}),
            Rung(
                "refined-grid",
                "finer invariant-curve grid",
                {"n_a": 181, "n_phi": 361},
            ),
            Rung(
                "widened-window",
                "1.6x wider amplitude search window",
                {"_widen_window": 1.6, "n_a": 181, "n_phi": 361},
            ),
            Rung(
                "dense-referee",
                "direct-quadrature referee method",
                {"method": "dense", "n_a": 181, "n_phi": 361},
            ),
        ),
    )


def hb_natural_policy() -> EscalationPolicy:
    """Free-running harmonic balance: damp, then refine."""
    return EscalationPolicy(
        "harmonic-balance",
        (
            Rung("baseline", "full Newton from the DF seed", {}),
            Rung(
                "damped-newton",
                "step-capped Newton at doubled resolution",
                {"max_step_rel": 0.25, "n_samples": 1024, "max_iter": 120},
            ),
        ),
    )


def hb_lock_policy() -> EscalationPolicy:
    """Locked harmonic balance: damp, then V_i source-stepping continuation."""
    return EscalationPolicy(
        "harmonic-balance",
        (
            Rung("baseline", "damped Newton from the DF lock seed", {}),
            Rung(
                "damped-newton",
                "tighter step cap, doubled iteration budget",
                {"max_step_rel": 0.1, "max_iter": 120},
            ),
            Rung(
                "continuation",
                "source-step V_i up from the single-tone solution",
                {"_continuation": True},
            ),
        ),
    )


# -- stage wrappers -----------------------------------------------------------


def _widened(nonlinearity, tank, kwargs: dict, overrides: dict) -> dict:
    """``kwargs`` under one rung's ``overrides``, its ``_widen_window``
    factor replaced by the default window widened by that factor
    (:func:`~repro.core.natural.lock_grid`) unless the caller fixed the
    window.  Widening rungs also set ``n_a`` and ``n_phi``."""
    from repro.core.natural import lock_grid

    merged = {**kwargs, **overrides}
    scale = merged.pop("_widen_window", None)
    if scale is not None and "amplitude_window" not in kwargs:
        merged["amplitude_window"], _, _ = lock_grid(
            nonlinearity,
            tank,
            n_a=merged["n_a"],
            n_phi=merged["n_phi"],
            n_samples=int(kwargs.get("n_samples", 0)) or 256,
            widen=scale,
        )
    return merged


def robust_natural(
    nonlinearity, tank, *, policy=None, deadline=None, **kwargs
) -> RobustResult:
    """Fault-tolerant :func:`repro.core.natural.predict_natural_oscillation`."""
    from repro.core.natural import predict_natural_oscillation
    from repro.robust.guards import guard_tank

    guard_tank(tank, stage="natural")
    policy = policy or natural_policy()

    def attempt(overrides: dict):
        return predict_natural_oscillation(nonlinearity, tank, **{**kwargs, **overrides})

    return run_ladder(policy, attempt, deadline=deadline)


def robust_solve_lock_states(
    nonlinearity, tank, *, v_i, w_injection, n, policy=None, deadline=None, **kwargs
) -> RobustResult:
    """Fault-tolerant :func:`repro.core.shil.solve_lock_states`.

    Besides converting exceptions into ladder climbs, a structurally
    suspicious outcome — *zero* lock states while the tank phase is
    essentially centred, where theory guarantees a lock whenever the
    oscillator runs at all — triggers escalation too, falling back to the
    suspicious (empty) answer only if every refinement agrees with it.
    """
    from repro.core.shil import solve_lock_states
    from repro.robust.guards import guard_tank

    guard_tank(tank, stage="lock-states")
    policy = policy or lock_state_policy()

    def attempt(overrides: dict):
        merged = _widened(nonlinearity, tank, kwargs, overrides)
        return solve_lock_states(
            nonlinearity, tank, v_i=v_i, w_injection=w_injection, n=n, **merged
        )

    def suspicious(solution) -> bool:
        return not solution.locks and abs(solution.phi_d) < 0.02

    return run_ladder(
        policy, attempt, retry_on_result=suspicious, deadline=deadline
    )


def robust_predict_lock_range(
    nonlinearity, tank, *, v_i, n, policy=None, deadline=None, **kwargs
) -> RobustResult:
    """Fault-tolerant :func:`repro.core.lockrange.predict_lock_range`."""
    from repro.core.lockrange import predict_lock_range
    from repro.robust.guards import guard_tank

    guard_tank(tank, stage="lock-range")
    policy = policy or lock_range_policy()

    def attempt(overrides: dict):
        merged = _widened(nonlinearity, tank, kwargs, overrides)
        return predict_lock_range(nonlinearity, tank, v_i=v_i, n=n, **merged)

    return run_ladder(policy, attempt, deadline=deadline)


def robust_hb_natural(
    nonlinearity, tank, *, policy=None, deadline=None, **kwargs
) -> RobustResult:
    """Fault-tolerant :func:`repro.core.harmonic_balance.hb_natural_oscillation`."""
    from repro.core.harmonic_balance import hb_natural_oscillation
    from repro.robust.guards import guard_tank

    guard_tank(tank, stage="harmonic-balance")
    policy = policy or hb_natural_policy()

    def attempt(overrides: dict):
        return hb_natural_oscillation(nonlinearity, tank, **{**kwargs, **overrides})

    return run_ladder(policy, attempt, deadline=deadline)


#: V_i fractions walked by the harmonic-balance continuation rung.  The
#: ramp starts at a quarter of the injection, not lower: the phase
#: stiffness of the locked Newton scales with ``V_i``, so very small
#: fractions leave a near-null phase direction where finite-difference
#: Jacobian noise makes Newton limit-cycle instead of converge.
_CONTINUATION_STEPS = (0.25, 0.5, 1.0)


def _hb_lock_continuation(nonlinearity, tank, *, v_i, w_injection, n, **kwargs):
    """Source-stepping homotopy: ramp ``V_i`` from the single-tone solution.

    The ``V_i -> 0`` limit of the locked problem is the free-running
    oscillation, whose harmonic-balance solution is easy (the DF seed is
    excellent there).  Walking ``V_i`` up in steps, seeding each Newton
    with the previous converged harmonics, tracks the lock branch into
    regions where a cold Newton from the DF seed walks away.  Every step
    runs damped, with at least a 120-iteration budget.
    """
    from repro.core.harmonic_balance import hb_lock_state, hb_natural_oscillation

    k_max = int(kwargs.get("k_max", 7))
    n_samples = int(kwargs.get("n_samples", 512))
    kwargs.setdefault("max_step_rel", 0.25)
    kwargs["max_iter"] = max(int(kwargs.get("max_iter", 60)), 120)
    free = hb_natural_oscillation(
        nonlinearity, tank, k_max=k_max, n_samples=n_samples
    )
    harmonics = free.harmonics
    solution = None
    for fraction in _CONTINUATION_STEPS:
        solution = hb_lock_state(
            nonlinearity,
            tank,
            v_i=fraction * v_i,
            w_injection=w_injection,
            n=n,
            initial=harmonics,
            **kwargs,
        )
        harmonics = solution.harmonics
    return solution


def robust_hb_lock_state(
    nonlinearity, tank, *, v_i, w_injection, n, policy=None, deadline=None, **kwargs
) -> RobustResult:
    """Fault-tolerant :func:`repro.core.harmonic_balance.hb_lock_state`."""
    from repro.core.harmonic_balance import hb_lock_state
    from repro.robust.guards import guard_tank

    guard_tank(tank, stage="harmonic-balance")
    policy = policy or hb_lock_policy()

    def attempt(overrides: dict):
        merged = {**kwargs, **overrides}
        if merged.pop("_continuation", False):
            return _hb_lock_continuation(
                nonlinearity, tank, v_i=v_i, w_injection=w_injection, n=n, **merged
            )
        return hb_lock_state(
            nonlinearity, tank, v_i=v_i, w_injection=w_injection, n=n, **merged
        )

    return run_ladder(policy, attempt, deadline=deadline)
