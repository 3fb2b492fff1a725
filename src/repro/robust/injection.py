"""Deterministic fault-injection harness for the robust solve pipeline.

Each :class:`FaultScenario` plants one specific failure — a singular
harmonic-balance Jacobian, a device law that goes NaN above the operating
swing, a truncated surface-cache record, a tank whose phase map cannot be
inverted anywhere — and then runs the *production* robust wrappers against
it.  The scenario declares what must happen:

* ``"recover"`` — the escalation ladder absorbs the fault and produces a
  finite result, with the recovery rung recorded on the diagnostics; or
* ``"typed-failure"`` — the pipeline stops with the declared typed fault
  kind (never a raw traceback), diagnostics attached to the exception.

Everything is deterministic: injections use call counters, not clocks or
randomness, so every run of ``repro faults`` reproduces bit-identical
verdicts.  The harness runs inside an isolated temporary cache directory
and restores every patched seam on exit, so it can run mid-session (and
inside the verify matrix) without contaminating state.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.perf import cache_sandbox
from repro.robust.diagnostics import SolveDiagnostics
from repro.robust.faults import NumericalFaultError

__all__ = [
    "FAULTS_SCHEMA_VERSION",
    "patched",
    "failing_first",
    "FaultScenario",
    "FaultOutcome",
    "FaultReport",
    "fault_scenarios",
    "run_fault_matrix",
]

#: FAULTS_REPORT.json schema.  v2 adds the per-outcome ``layer`` field
#: ("solver" for this module's scenarios, "service" for the serve-layer
#: chaos suite) and the top-level ``layers`` tally; every v1 field is
#: unchanged, so v1 consumers keep working.
FAULTS_SCHEMA_VERSION = 2


@contextlib.contextmanager
def patched(obj, name: str, replacement):
    """Temporarily replace ``obj.name`` (module attribute or class method)."""
    original = getattr(obj, name)
    setattr(obj, name, replacement)
    try:
        yield original
    finally:
        setattr(obj, name, original)


def failing_first(fn: Callable, n_failures: int, make_exc: Callable[[], BaseException]):
    """Wrap ``fn`` so its first ``n_failures`` calls raise deterministically.

    The counter lives in the wrapper, so the fault persists across ladder
    rungs exactly ``n_failures`` times and then clears — modelling a
    transient numerical failure the escalation is designed to ride out.
    """
    calls = {"n": 0}

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] <= n_failures:
            raise make_exc()
        return fn(*args, **kwargs)

    wrapper.calls = calls
    return wrapper


# -- the standard rig ---------------------------------------------------------
#
# The paper's running example, scaled down to grids that keep the whole
# matrix interactive: a saturating tanh negative resistance across a
# Q ~ 31 parallel RLC.  Natural amplitude ~ 1.2 V.


def _rig():
    from repro.nonlin.analytic import NegativeTanh
    from repro.tank.rlc import ParallelRLC

    nonlinearity = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
    tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
    return nonlinearity, tank


_SMALL = {"n_a": 61, "n_phi": 121, "n_samples": 256}


@dataclass(frozen=True)
class FaultScenario:
    """One injected fault plus its declared contract."""

    scenario_id: str
    description: str
    expectation: str  # "recover" | "typed-failure"
    expected_fault: str  # the SolveFault kind that must be observed
    run: Callable[[], "FaultOutcome"] = field(compare=False)


@dataclass
class FaultOutcome:
    """What actually happened when a scenario ran."""

    scenario: str
    expectation: str
    expected_fault: str
    ok: bool
    detail: str
    fault_kinds: list[str] = field(default_factory=list)
    recovered_via: str | None = None
    diagnostics: dict | None = None
    layer: str = "solver"

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "expectation": self.expectation,
            "expected_fault": self.expected_fault,
            "ok": self.ok,
            "detail": self.detail,
            "fault_kinds": list(self.fault_kinds),
            "recovered_via": self.recovered_via,
            "diagnostics": self.diagnostics,
            "layer": self.layer,
        }


def _diag_of(source) -> SolveDiagnostics | None:
    return getattr(source, "diagnostics", None)


def _outcome_from_recovery(
    scenario: "FaultScenario", value_ok: bool, detail: str, diagnostics
) -> FaultOutcome:
    """Grade a scenario that expected the ladder to recover."""
    kinds = [f.kind for f in diagnostics.faults] if diagnostics else []
    ok = (
        value_ok
        and diagnostics is not None
        and diagnostics.ok
        and scenario.expected_fault in kinds
    )
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=ok,
        detail=detail,
        fault_kinds=kinds,
        recovered_via=diagnostics.recovered_via if diagnostics else None,
        diagnostics=diagnostics.to_dict() if diagnostics else None,
    )


def _outcome_from_typed_failure(
    scenario: "FaultScenario", exc: BaseException, fault_kind: str | None
) -> FaultOutcome:
    """Grade a scenario that expected a typed failure (no raw traceback)."""
    diagnostics = _diag_of(exc)
    kinds = [f.kind for f in diagnostics.faults] if diagnostics else []
    if fault_kind is not None and fault_kind not in kinds:
        kinds.append(fault_kind)
    ok = scenario.expected_fault in kinds
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=ok,
        detail=f"raised {type(exc).__name__}: {exc}",
        fault_kinds=kinds,
        recovered_via=None,
        diagnostics=diagnostics.to_dict() if diagnostics else None,
    )


def _unexpected(scenario: "FaultScenario", exc: BaseException) -> FaultOutcome:
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=False,
        detail=f"unexpected {type(exc).__name__}: {exc}",
    )


# -- scenarios ----------------------------------------------------------------


def _run_hb_singular_jacobian(scenario: FaultScenario) -> FaultOutcome:
    """First HB linear solve raises LinAlgError -> damped rung recovers."""
    from repro.core import harmonic_balance as hb
    from repro.robust.ladder import robust_hb_natural

    nonlinearity, tank = _rig()
    injected = failing_first(
        np.linalg.solve, 1, lambda: np.linalg.LinAlgError("injected singular matrix")
    )
    try:
        with patched(hb, "_solve_linear", injected):
            result = robust_hb_natural(
                nonlinearity, tank, k_max=5, n_samples=256, tol=1e-10
            )
    except Exception as exc:  # noqa: BLE001 - graded, not swallowed
        return _unexpected(scenario, exc)
    value_ok = bool(np.isfinite(result.value.amplitude)) and result.value.amplitude > 0
    return _outcome_from_recovery(
        scenario,
        value_ok,
        f"recovered A={result.value.amplitude:.4g} V after injected "
        f"LinAlgError ({injected.calls['n']} solver calls)",
        result.diagnostics,
    )


def _run_hb_nonfinite_residual(scenario: FaultScenario) -> FaultOutcome:
    """First device-harmonics evaluation returns NaN -> guard + recovery."""
    from repro.core import harmonic_balance as hb
    from repro.robust.ladder import robust_hb_natural

    nonlinearity, tank = _rig()
    original = hb._device_harmonics
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        out = original(*args, **kwargs)
        if calls["n"] == 1:
            out = np.full_like(out, np.nan)
        return out

    try:
        with patched(hb, "_device_harmonics", poisoned):
            result = robust_hb_natural(
                nonlinearity, tank, k_max=5, n_samples=256, tol=1e-10
            )
    except Exception as exc:  # noqa: BLE001
        return _unexpected(scenario, exc)
    value_ok = bool(np.isfinite(result.value.amplitude)) and result.value.amplitude > 0
    return _outcome_from_recovery(
        scenario,
        value_ok,
        f"recovered A={result.value.amplitude:.4g} V after injected NaN residual",
        result.diagnostics,
    )


def _run_nonfinite_nonlinearity(scenario: FaultScenario) -> FaultOutcome:
    """Device law NaN above 1 V (< natural swing) -> typed non-recoverable."""
    from repro.nonlin.base import FunctionNonlinearity
    from repro.robust.ladder import robust_natural

    base, tank = _rig()

    def law(v):
        v = np.asarray(v, dtype=float)
        return np.where(np.abs(v) > 1.0, np.nan, base(v))

    broken = FunctionNonlinearity(
        law, dfunc=lambda v: base.derivative(v), name="nan-above-1V"
    )
    try:
        robust_natural(broken, tank, n_samples=256)
    except NumericalFaultError as exc:
        return _outcome_from_typed_failure(scenario, exc, exc.fault.kind)
    except Exception as exc:  # noqa: BLE001
        return _unexpected(scenario, exc)
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=False,
        detail="solve succeeded despite a NaN device law inside the swing",
    )


def _run_corrupt_surface_cache(scenario: FaultScenario) -> FaultOutcome:
    """Truncate a warm cache record mid-file -> quarantine + recompute."""
    from repro.core.two_tone import TwoToneDF
    from repro.obs import metrics
    from repro.perf import ShardedSurfaceCache, default_store, using_store

    nonlinearity, _ = _rig()
    amplitudes = np.linspace(0.4, 1.6, 41)
    store = default_store()
    existing = set(store.records())
    warm = TwoToneDF(nonlinearity, 0.03, 3, n_samples=256)
    warm.surface(amplitudes)  # populate the (isolated) store
    records = sorted(set(store.records()) - existing)
    if not records:
        return FaultOutcome(
            scenario=scenario.scenario_id,
            expectation=scenario.expectation,
            expected_fault=scenario.expected_fault,
            ok=False,
            detail="warm-up produced no cache record to corrupt",
        )
    target = records[0]
    payload = target.read_bytes()
    target.write_bytes(payload[: max(16, len(payload) // 3)])  # mid-record cut

    before = metrics.counter("cache.corrupt")
    # A new store over the same root, like a fresh process: disk tier only.
    with using_store(ShardedSurfaceCache(store.root)):
        fresh = TwoToneDF(nonlinearity, 0.03, 3, n_samples=256)  # empty memo
        surface = fresh.surface(amplitudes)
    quarantined = list(target.parent.glob("*.npz.corrupt"))
    corrupt = metrics.counter("cache.corrupt") - before
    ok = (
        corrupt == 1
        and len(quarantined) == 1
        and bool(np.all(np.isfinite(surface.coefficients)))
    )
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=ok,
        detail=(
            f"truncated {target.name}: quarantined={len(quarantined)}, "
            f"corrupt-count={corrupt}, surface recomputed"
        ),
        fault_kinds=["cache-corruption"] if ok else [],
        recovered_via="recompute",
    )


def _run_unreachable_phi_d(scenario: FaultScenario) -> FaultOutcome:
    """Every phase inversion fails -> typed NoLockError, faults recorded."""
    from repro.core.lockrange import NoLockError
    from repro.robust.ladder import robust_predict_lock_range
    from repro.tank.base import PhaseInversionError
    from repro.tank.rlc import ParallelRLC

    nonlinearity, tank = _rig()

    def refuse(self, phi_d):
        raise PhaseInversionError(
            f"phi_d={float(phi_d):g} injected as uninvertible"
        )

    try:
        with patched(ParallelRLC, "frequency_for_phase", refuse):
            robust_predict_lock_range(nonlinearity, tank, v_i=0.03, n=3, **_SMALL)
    except NoLockError as exc:
        outcome = _outcome_from_typed_failure(scenario, exc, "no-lock")
        # The *cause* must be on the record too: every dropped point left a
        # phase-inversion fault on the diagnostics.
        outcome.ok = outcome.ok and "phase-inversion-out-of-range" in outcome.fault_kinds
        return outcome
    except Exception as exc:  # noqa: BLE001
        return _unexpected(scenario, exc)
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=False,
        detail="lock range solved despite an uninvertible phase map",
    )


def _run_dead_nonlinearity(scenario: FaultScenario) -> FaultOutcome:
    """All-zero device law -> guard_nonlinearity raises the typed fault."""
    from repro.nonlin.base import FunctionNonlinearity
    from repro.robust.guards import guard_nonlinearity

    dead = FunctionNonlinearity(lambda v: np.zeros_like(np.asarray(v, float)), name="dead")
    try:
        guard_nonlinearity(dead, 2.0, stage="setup")
    except NumericalFaultError as exc:
        return _outcome_from_typed_failure(scenario, exc, exc.fault.kind)
    except Exception as exc:  # noqa: BLE001
        return _unexpected(scenario, exc)
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=False,
        detail="guard accepted an identically-zero nonlinearity",
    )


def _run_degenerate_tank(scenario: FaultScenario) -> FaultOutcome:
    """NaN centre frequency -> guard_tank rejects before any solve."""
    from repro.robust.ladder import robust_natural

    class BrokenTank:
        center_frequency = float("nan")
        peak_resistance = 1000.0

    nonlinearity, _ = _rig()
    try:
        robust_natural(nonlinearity, BrokenTank())
    except NumericalFaultError as exc:
        return _outcome_from_typed_failure(scenario, exc, exc.fault.kind)
    except Exception as exc:  # noqa: BLE001
        return _unexpected(scenario, exc)
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=False,
        detail="solve ran against a NaN-centre-frequency tank",
    )


def _run_hb_lock_continuation(scenario: FaultScenario) -> FaultOutcome:
    """Cold HB lock Newton fails twice -> continuation rung carries it."""
    from repro.core import harmonic_balance as hb
    from repro.core.harmonic_balance import HbConvergenceError
    from repro.robust.ladder import Rung, hb_lock_policy, robust_hb_lock_state

    nonlinearity, tank = _rig()
    w_injection = 3.0 * tank.center_frequency
    original = hb.hb_lock_state
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        # The first two *direct* (non-continuation) attempts diverge; the
        # continuation rung's ramped calls pass `initial` and always run.
        if kwargs.get("initial") is None:
            calls["n"] += 1
            if calls["n"] <= 2:
                raise HbConvergenceError("injected divergence of the cold Newton")
        return original(*args, **kwargs)

    try:
        with patched(hb, "hb_lock_state", flaky):
            result = robust_hb_lock_state(
                nonlinearity,
                tank,
                v_i=0.03,
                w_injection=w_injection,
                n=3,
                k_max=5,
                n_samples=256,
                tol=1e-10,
            )
    except Exception as exc:  # noqa: BLE001
        return _unexpected(scenario, exc)
    value_ok = (
        bool(np.isfinite(result.value.amplitude))
        and result.value.amplitude > 0
        and result.diagnostics.recovered_via == "continuation"
    )
    return _outcome_from_recovery(
        scenario,
        value_ok,
        f"continuation recovered A={result.value.amplitude:.4g} V after two "
        "injected cold-Newton divergences",
        result.diagnostics,
    )


def fault_scenarios(quick: bool = True) -> list[FaultScenario]:
    """The scenario matrix.  ``quick=False`` adds the slower HB lock case."""
    scenarios = [
        FaultScenario(
            "hb-singular-jacobian",
            "first harmonic-balance linear solve raises LinAlgError",
            "recover",
            "singular-jacobian",
            _run_hb_singular_jacobian,
        ),
        FaultScenario(
            "hb-nonfinite-residual",
            "first device-harmonics evaluation returns NaN",
            "recover",
            "non-finite-samples",
            _run_hb_nonfinite_residual,
        ),
        FaultScenario(
            "nonfinite-nonlinearity",
            "device law returns NaN inside the oscillation swing",
            "typed-failure",
            "non-finite-samples",
            _run_nonfinite_nonlinearity,
        ),
        FaultScenario(
            "corrupt-surface-cache",
            "persistent surface-cache record truncated mid-file",
            "recover",
            "cache-corruption",
            _run_corrupt_surface_cache,
        ),
        FaultScenario(
            "unreachable-phi-d",
            "tank phase inversion fails at every lock-range point",
            "typed-failure",
            "no-lock",
            _run_unreachable_phi_d,
        ),
        FaultScenario(
            "dead-nonlinearity",
            "identically-zero device law rejected by the setup guard",
            "typed-failure",
            "dead-nonlinearity",
            _run_dead_nonlinearity,
        ),
        FaultScenario(
            "degenerate-tank",
            "NaN centre frequency rejected before any solve",
            "typed-failure",
            "degenerate-tank",
            _run_degenerate_tank,
        ),
    ]
    if not quick:
        scenarios.append(
            FaultScenario(
                "hb-lock-continuation",
                "cold locked-HB Newton diverges; V_i continuation recovers",
                "recover",
                "hb-divergence",
                _run_hb_lock_continuation,
            )
        )
    return scenarios


# -- the matrix runner --------------------------------------------------------


@dataclass
class FaultReport:
    """Machine- and human-readable verdict of one fault matrix run."""

    mode: str
    outcomes: list[FaultOutcome]

    @property
    def passed(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_dict(self) -> dict:
        layers: dict[str, dict[str, int]] = {}
        for o in self.outcomes:
            tally = layers.setdefault(o.layer, {"total": 0, "ok": 0})
            tally["total"] += 1
            tally["ok"] += int(o.ok)
        return {
            "mode": self.mode,
            "schema": FAULTS_SCHEMA_VERSION,
            "passed": self.passed,
            "layers": layers,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def format(self) -> str:
        lines = [f"fault-injection matrix ({self.mode}): "
                 f"{sum(o.ok for o in self.outcomes)}/{len(self.outcomes)} ok"]
        for o in self.outcomes:
            mark = "ok  " if o.ok else "FAIL"
            via = f" via {o.recovered_via}" if o.recovered_via else ""
            layer = f" [{o.layer}]" if o.layer != "solver" else ""
            lines.append(
                f"  [{mark}] {o.scenario}{layer} ({o.expectation}{via}): {o.detail}"
            )
        return "\n".join(lines)

    def write(self, path: str | os.PathLike) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


def run_fault_matrix(quick: bool = True, progress=None) -> FaultReport:
    """Run every scenario inside an isolated temporary cache directory.

    The isolation matters twice over: the corruption scenario mutates
    cache files on disk, and recovery scenarios must not be short-circuited
    by warm records from the user's real cache.
    """
    outcomes: list[FaultOutcome] = []
    scenarios = fault_scenarios(quick=quick)
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp, cache_sandbox(tmp):
        for scenario in scenarios:
            if progress is not None:
                progress(scenario.scenario_id)
            try:
                outcomes.append(scenario.run(scenario))
            except Exception as exc:  # noqa: BLE001 - harness must not die
                outcomes.append(_unexpected(scenario, exc))
    return FaultReport(mode="quick" if quick else "full", outcomes=outcomes)
