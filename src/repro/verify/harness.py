"""Scenario-matrix driver: run every applicable path, cross-check, report.

This is the oracle the ROADMAP asks for: instead of hand-picked spot
checks, :func:`run_matrix` sweeps the scenario matrix
(:mod:`repro.verify.scenarios`), runs the per-scenario check battery
(:mod:`repro.verify.checks`) and a small set of *matrix-level* invariants
that only make sense across scenarios (lock-range width growing with
``V_i`` within a family, width shrinking with sub-harmonic order), and
assembles everything into a :class:`~repro.verify.report.VerifyReport`.

Modes
-----
``quick``
    The 14-scenario CI matrix with the describing-function-side checks
    (seconds per scenario; everything is grid/quadrature work).
``full``
    Adds 5 harder scenarios and the transient/PPV ground-truth checks
    (tens of seconds per scenario — the transient lock-range scan
    integrates thousands of tank cycles).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Sequence

from repro.obs import Clock, metrics, trace
from repro.verify.checks import (
    FULL_ONLY_CHECKS,
    QUICK_CHECKS,
    CheckResult,
    build_artifacts,
)
from repro.verify.report import ScenarioVerdict, VerifyReport
from repro.verify.scenarios import Scenario, get_scenario, scenario_matrix

__all__ = ["counter_deltas", "run_scenario", "run_matrix"]


def counter_deltas(before: dict, after: dict) -> dict:
    """Counters that moved during a block — the block's solve footprint.

    Shared with the span-budget regression gate
    (:mod:`repro.regress.spans`), which diffs the registry around its
    verify-matrix replay with exactly these semantics.
    """
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }


def run_scenario(scenario: Scenario, mode: str = "quick") -> ScenarioVerdict:
    """Run the full check battery on one scenario.

    Besides the check outcomes, the verdict's ``metrics["obs"]`` records
    the scenario's observability footprint: every process-wide counter
    (HB solves, DF evaluations, cache hits/misses, faults) that moved
    while the scenario ran.  The golden regression diff compares check
    statuses only, so this context rides along without pinning timings.
    """
    watch = Clock()
    verdict = ScenarioVerdict(
        scenario_id=scenario.scenario_id, description=scenario.describe()
    )
    counters_before = metrics.snapshot()["counters"]
    with trace(
        "verify.scenario", attrs={"scenario": scenario.scenario_id, "mode": mode}
    ) as sp:
        with trace(f"verify.{scenario.scenario_id}"):
            artifacts = build_artifacts(scenario)
            battery = QUICK_CHECKS + (FULL_ONLY_CHECKS if mode == "full" else ())
            for check in battery:
                try:
                    verdict.checks.append(check(artifacts))
                except Exception as exc:  # a crashing check is itself a finding
                    verdict.checks.append(
                        CheckResult(
                            name=getattr(check, "__name__", "check"),
                            status="ERROR",
                            detail=f"{type(exc).__name__}: {exc}",
                        )
                    )
        sp.set(
            checks=len(verdict.checks),
            failed=sum(1 for c in verdict.checks if not c.ok),
        )
    lockrange = artifacts.lockrange.get("fft")
    if lockrange is not None:
        verdict.metrics["lockrange_width_hz"] = lockrange.width_hz
    if artifacts.natural is not None:
        verdict.metrics["natural_amplitude_v"] = artifacts.natural.amplitude
    center = artifacts.locks_center.get("fft")
    if center is not None:
        verdict.metrics["locks_at_center"] = len(center.locks)
        verdict.metrics["stable_locks_at_center"] = len(center.stable_locks)
    verdict.metrics["obs"] = {
        "counters": counter_deltas(counters_before, metrics.snapshot()["counters"])
    }
    verdict.wall_s = watch.elapsed
    return verdict


def _check_vi_monotonic(verdicts: Sequence[ScenarioVerdict],
                        scenarios: Sequence[Scenario]) -> CheckResult:
    """Within a family/n/Q group, lock-range width grows with ``V_i``.

    First-order SHIL theory has width proportional to the injection
    magnitude (the paper's Eq. for the Adler generalisation); the exact
    graphical width need not be linear, but it must be monotone over the
    matrix's modest ``V_i`` spans.
    """
    widths = {v.scenario_id: v.metrics.get("lockrange_width_hz") for v in verdicts}
    groups: dict[tuple, list[Scenario]] = defaultdict(list)
    for scenario in scenarios:
        groups[(scenario.family, scenario.n, scenario.q_scale)].append(scenario)
    violations = []
    compared = 0
    for group in groups.values():
        group = [s for s in group if widths.get(s.scenario_id) is not None]
        group.sort(key=lambda s: s.v_i)
        for weak, strong in zip(group, group[1:]):
            compared += 1
            if widths[strong.scenario_id] <= widths[weak.scenario_id]:
                violations.append(
                    f"width({strong.scenario_id})={widths[strong.scenario_id]:.4g} Hz "
                    f"<= width({weak.scenario_id})={widths[weak.scenario_id]:.4g} Hz"
                )
    if not compared:
        return CheckResult(
            "lock-range-grows-with-vi", "SKIP", detail="no V_i pairs in the run"
        )
    if violations:
        return CheckResult(
            "lock-range-grows-with-vi",
            "FAIL",
            deviation=float(len(violations)),
            tolerance=0.0,
            detail="; ".join(violations),
        )
    return CheckResult(
        "lock-range-grows-with-vi",
        "PASS",
        deviation=0.0,
        tolerance=0.0,
        detail=f"monotone over {compared} adjacent V_i pairs",
    )


def _fault_recovery_checks() -> list[CheckResult]:
    """The fault-injection matrix as a matrix-level check family.

    Each deterministic injection (singular HB Jacobian, non-finite device
    samples, truncated cache record, unreachable phase inversion, ...)
    must either recover via a documented escalation rung or fail with its
    declared typed fault — never an unhandled traceback.  One check per
    scenario so golden diffs pin every behaviour individually.
    """
    from repro.robust.injection import run_fault_matrix

    try:
        fault_report = run_fault_matrix(quick=True)
    except Exception as exc:  # a crashing harness is itself a finding
        return [
            CheckResult(
                name="fault-recovery/harness",
                status="ERROR",
                detail=f"{type(exc).__name__}: {exc}",
            )
        ]
    checks = []
    for outcome in fault_report.outcomes:
        via = f" via {outcome.recovered_via}" if outcome.recovered_via else ""
        checks.append(
            CheckResult(
                name=f"fault-recovery/{outcome.scenario}",
                status="PASS" if outcome.ok else "FAIL",
                detail=f"{outcome.expectation}{via}: {outcome.detail}",
            )
        )
    return checks


def _surface_fingerprint_checks() -> list[CheckResult]:
    """Output-fingerprint round-trips as a matrix-level check family.

    First slice of the ROADMAP's golden-surface gate: for each oscillator
    family, pre-characterise a small two-tone surface into a *temporary*
    store (so the check is deterministic regardless of the ambient cache
    state or ``REPRO_NO_CACHE``), read it back from disk, and require that

    * the stored record carries an output ``fingerprint``, and
    * re-hashing the loaded arrays reproduces it bit for bit.

    A mismatch means the (de)serialisation pipeline altered the surface
    bytes — exactly the drift the fingerprint exists to catch.
    """
    import pathlib
    import tempfile

    import numpy as np

    from repro.core.two_tone import precharacterize
    from repro.perf import (
        ShardedSurfaceCache,
        cache_sandbox,
        payload_fingerprint,
        using_store,
    )
    from repro.verify.scenarios import FAMILIES

    checks = []
    with cache_sandbox(), tempfile.TemporaryDirectory(prefix="repro-fp-check-") as tmp:
        for family in ("tanh", "skewed", "diffpair", "tunnel"):
            name = f"surface-fingerprint/{family}"
            try:
                nonlinearity, _tank = FAMILIES[family]()
                root = pathlib.Path(tmp) / family
                with using_store(ShardedSurfaceCache(root)):
                    precharacterize(
                        nonlinearity, np.linspace(0.1, 1.0, 31), [0.03], 3
                    )
                # A new store reads the record back from disk.
                store = ShardedSurfaceCache(root)
                (path,) = store.records()
                record = store.get(path.parent.parent.name, path.stem)
                if record is None:
                    checks.append(
                        CheckResult(
                            name,
                            "FAIL",
                            detail="stored record unreadable on re-get",
                        )
                    )
                    continue
                loaded_arrays, loaded_meta = record
                stored = loaded_meta.get("fingerprint")
                recomputed = payload_fingerprint(loaded_arrays)
                if not stored:
                    checks.append(
                        CheckResult(
                            name, "FAIL", detail="record carries no fingerprint"
                        )
                    )
                elif stored != recomputed:
                    checks.append(
                        CheckResult(
                            name,
                            "FAIL",
                            detail=(
                                f"stored {stored[:12]}... != recomputed "
                                f"{recomputed[:12]}..."
                            ),
                        )
                    )
                else:
                    checks.append(
                        CheckResult(
                            name,
                            "PASS",
                            deviation=0.0,
                            tolerance=0.0,
                            detail=f"round-trip fingerprint {stored[:12]}...",
                        )
                    )
            except Exception as exc:  # a crashing check is itself a finding
                checks.append(
                    CheckResult(
                        name,
                        "ERROR",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
    return checks


def run_matrix(
    mode: str = "quick",
    scenario_ids: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> VerifyReport:
    """Run the matrix (or a named sub-matrix) and assemble the report.

    Parameters
    ----------
    mode:
        ``"quick"`` or ``"full"`` — selects both the scenario set and the
        check battery (see module docstring).
    scenario_ids:
        Restrict to these ids (any mode's scenarios are addressable).
    progress:
        Optional per-scenario callback (the CLI's live ticker).
    """
    if scenario_ids is not None:
        scenarios = tuple(get_scenario(sid) for sid in scenario_ids)
        # Tag sub-matrix runs so golden diffs don't treat the scenarios
        # that were deliberately not requested as missing.
        effective_mode = f"{mode}-subset"
    else:
        scenarios = scenario_matrix(mode)
        effective_mode = mode
    watch = Clock()
    report = VerifyReport(mode=effective_mode)
    for scenario in scenarios:
        if progress is not None:
            progress(scenario.describe())
        report.scenarios.append(run_scenario(scenario, mode=mode))
    report.matrix_checks.append(_check_vi_monotonic(report.scenarios, scenarios))
    if scenario_ids is None:
        # Sub-matrix runs skip the fault family: it is scenario-independent
        # and would make `--scenario <id>` cost the whole injection matrix.
        report.matrix_checks.extend(_fault_recovery_checks())
        report.matrix_checks.extend(_surface_fingerprint_checks())
    report.timing = {
        "wall_s": round(watch.elapsed, 3),
        "per_scenario_s": {
            v.scenario_id: round(v.wall_s, 3) for v in report.scenarios
        },
    }
    return report
