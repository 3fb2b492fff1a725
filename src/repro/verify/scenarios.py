"""Scenario matrix for the cross-method verification harness.

A *scenario* pins one concrete injection-locking setup — oscillator
family, sub-harmonic order ``n``, injection magnitude ``V_i`` and a tank-Q
scale factor — on which every applicable prediction/measurement path is
run and cross-checked (:mod:`repro.verify.checks`).

The matrix enumerates four oscillator families:

* ``tanh``     — the Section III demo (odd saturating law, Q = 10);
* ``skewed``   — tanh plus an even (quadratic-in-tanh) component.  Odd
  laws couple only weakly to even sub-harmonics (the first phi-dependent
  term in ``I_1`` is 5th order), so this family is what makes ``n = 2``
  scenarios meaningful;
* ``diffpair`` — the paper's Section IV-A BJT cross-coupled pair with the
  DC-sweep-extracted ``f(v)`` (Q = 78);
* ``tunnel``   — the paper's Section IV-B tunnel-diode oscillator
  (asymmetric law, Q = 316).

``q_scale`` multiplies the tank resistance, scaling Q and the small-signal
loop gain together while keeping the centre frequency — the cheap way to
probe the low-Q end where the filtering assumption is under the most
stress.

Tolerance bands are declared *per scenario* as overrides over the
defaults in :mod:`repro.verify.checks`; see DESIGN.md section 7 for the
rationale behind each band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nonlin import FunctionNonlinearity, NegativeTanh
from repro.nonlin.base import Nonlinearity
from repro.tank import ParallelRLC

__all__ = [
    "Scenario",
    "build_oscillator",
    "QUICK_SCENARIOS",
    "FULL_EXTRA_SCENARIOS",
    "scenario_matrix",
    "get_scenario",
]


def _tanh_family() -> tuple[Nonlinearity, ParallelRLC]:
    return (
        NegativeTanh(gm=2.5e-3, i_sat=1e-3),
        ParallelRLC(r=1000.0, l=100e-6, c=10e-9),
    )


def _skewed_family() -> tuple[Nonlinearity, ParallelRLC]:
    """Tanh law with an even component (enables even-n sub-harmonics).

    ``f(v) = -i_sat tanh(g v) + 0.3 i_sat tanh(g v)^2`` keeps the small-
    signal negative resistance and the saturation limit of the tanh demo
    while breaking odd symmetry, so ``I_1`` picks up a first-order
    ``e^{j phi}`` dependence at even ``n``.
    """
    gm, i_sat = 2.5e-3, 1e-3
    g = gm / i_sat

    def law(v):
        t = np.tanh(g * np.asarray(v, dtype=float))
        return -i_sat * t + 0.3 * i_sat * t * t

    return (
        FunctionNonlinearity(law, name="skewed-tanh(0.3)"),
        ParallelRLC(r=1000.0, l=100e-6, c=10e-9),
    )


def _diffpair_family() -> tuple[Nonlinearity, ParallelRLC]:
    from repro.experiments.circuits import diffpair_oscillator

    setup = diffpair_oscillator()
    return setup.nonlinearity, setup.tank


def _tunnel_family() -> tuple[Nonlinearity, ParallelRLC]:
    from repro.experiments.circuits import tunnel_oscillator

    setup = tunnel_oscillator()
    return setup.nonlinearity, setup.tank


#: Family name -> builder; extend here to add an oscillator family.
FAMILIES = {
    "tanh": _tanh_family,
    "skewed": _skewed_family,
    "diffpair": _diffpair_family,
    "tunnel": _tunnel_family,
}


def build_oscillator(
    family: str, q_scale: float = 1.0
) -> tuple[Nonlinearity, ParallelRLC]:
    """The ``family`` oscillator (nonlinearity, tank), tank R scaled by
    ``q_scale``; an unknown family raises :class:`KeyError`."""
    if family not in FAMILIES:
        raise KeyError(
            f"unknown oscillator family {family!r}; "
            f"known: {', '.join(sorted(FAMILIES))}"
        )
    nonlinearity, tank = FAMILIES[family]()
    if q_scale != 1.0:
        tank = ParallelRLC(r=tank.r * q_scale, l=tank.l, c=tank.c)
    return nonlinearity, tank


@dataclass(frozen=True)
class Scenario:
    """One point of the verification matrix.

    Attributes
    ----------
    scenario_id:
        Stable identifier (report key, ``--scenario`` argument).
    family:
        Oscillator family key in :data:`FAMILIES`.
    n:
        Sub-harmonic order.
    v_i:
        Injection phasor magnitude, volts.
    q_scale:
        Tank-R multiplier (scales Q at a fixed centre frequency).
    tolerances:
        Per-scenario overrides over ``checks.DEFAULT_TOLERANCES``.
    tags:
        Free-form labels (``"paper"``, ``"low-q"`` ...) for filtering.
    """

    scenario_id: str
    family: str
    n: int
    v_i: float
    q_scale: float = 1.0
    tolerances: dict = field(default_factory=dict)
    tags: tuple = ()

    def build(self) -> tuple[Nonlinearity, ParallelRLC]:
        """Materialise the oscillator (nonlinearity, tank) pair."""
        return build_oscillator(self.family, self.q_scale)

    def describe(self) -> str:
        """One-line human-readable summary."""
        extra = f", Qx{self.q_scale:g}" if self.q_scale != 1.0 else ""
        return (
            f"{self.scenario_id}: {self.family}, n={self.n}, "
            f"V_i={self.v_i:g} V{extra}"
        )


def _s(family, n, v_i, q_scale=1.0, tags=(), **tolerances) -> Scenario:
    parts = [family, f"n{n}", f"vi{round(v_i * 1000):03d}m"]
    if q_scale != 1.0:
        parts.append(f"q{q_scale:g}".replace(".", "p"))
    return Scenario(
        scenario_id="-".join(parts),
        family=family,
        n=n,
        v_i=v_i,
        q_scale=q_scale,
        tolerances=dict(tolerances),
        tags=tuple(tags),
    )


#: The quick matrix: every CI run executes all of these (~a minute).
#: Coverage contract (asserted by the tests): >= 12 scenarios, both paper
#: oscillators present, n in {1, 2, 3} all present.
QUICK_SCENARIOS: tuple[Scenario, ...] = (
    # tanh family — V_i sweep at the paper's n = 3 ...
    _s("tanh", 3, 0.01),
    _s("tanh", 3, 0.03, tags=("vi-sweep",)),
    _s("tanh", 3, 0.06),
    # ... FHIL end of the order axis ...
    _s("tanh", 1, 0.03, tags=("fhil",)),
    # ... and the Q axis (loop gain scales with Q here).
    _s("tanh", 3, 0.03, q_scale=0.5, tags=("low-q",)),
    _s("tanh", 3, 0.03, q_scale=2.0, tags=("high-q",)),
    # skewed family: even-order coupling makes n = 2 well-posed.
    _s("skewed", 2, 0.03, tags=("even-n",)),
    _s("skewed", 3, 0.03),
    # diff-pair (paper Section IV-A; FIG14/TAB1 point is n=3, Vi=0.03).
    # At n = 1 the series injection reshapes the amplitude itself, which
    # the frozen-amplitude Adler baseline cannot see: it overestimates
    # the width ~6x here (the very inaccuracy the paper's method fixes),
    # so this scenario declares a wider Adler band.
    _s("diffpair", 1, 0.03, tags=("fhil",), adler_width_ratio_hi=8.0),
    _s("diffpair", 3, 0.015),
    _s("diffpair", 3, 0.03, tags=("paper",)),
    # tunnel diode (paper Section IV-B; FIG18/TAB2 point is n=3, Vi=0.03).
    _s("tunnel", 1, 0.02, tags=("fhil",)),
    # Even-n coupling on the tunnel diode's asymmetric law is amplitude-
    # mediated, so the frozen-amplitude Adler width runs ~5x wide.
    _s("tunnel", 2, 0.02, tags=("even-n",), adler_width_ratio_hi=6.5),
    _s("tunnel", 3, 0.03, tags=("paper",)),
)

#: Extra scenarios for ``--full`` (adds transient/PPV cross-checks too).
FULL_EXTRA_SCENARIOS: tuple[Scenario, ...] = (
    _s("tanh", 5, 0.03, tags=("high-order",)),
    _s("tanh", 3, 0.09, tags=("strong",)),
    _s("skewed", 2, 0.06),
    _s("diffpair", 3, 0.06),
    _s("tunnel", 3, 0.01),
)


def scenario_matrix(mode: str = "quick") -> tuple[Scenario, ...]:
    """The scenario tuple for a mode (``"quick"`` or ``"full"``)."""
    if mode == "quick":
        return QUICK_SCENARIOS
    if mode == "full":
        return QUICK_SCENARIOS + FULL_EXTRA_SCENARIOS
    raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")


def get_scenario(scenario_id: str) -> Scenario:
    """Look a scenario up by id across the full matrix."""
    for scenario in scenario_matrix("full"):
        if scenario.scenario_id == scenario_id:
            return scenario
    known = ", ".join(s.scenario_id for s in scenario_matrix("full"))
    raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}")
