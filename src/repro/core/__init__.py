"""The paper's contribution: graphical describing-function analysis of SHIL.

The public entry points are:

* :func:`repro.core.natural.predict_natural_oscillation` — Section II:
  amplitude and stability of the free-running oscillation from the
  single-tone describing function ``T_f(A)``.
* :func:`repro.core.shil.solve_lock_states` — Section III-C: all lock
  states ``(phi, A)`` for a given injection amplitude and frequency, with
  stability classification and the ``n`` physical states of each lock.
* :func:`repro.core.lockrange.predict_lock_range` — the Fig. 10 procedure:
  sweep the tank phase ``phi_d`` along the invariant ``T_f = 1`` curve and
  return the frequency lock range; :func:`~repro.core.lockrange.predict_lock_ranges`
  does so for a whole ``V_i`` set, refining every edge in lockstep.
* :func:`repro.core.fhil.solve_fhil` — Section III-B: the classic
  fundamental-harmonic injection-locking construction, subsumed by the
  SHIL machinery at ``n = 1`` but kept for comparison.

All of them consume a :class:`repro.nonlin.Nonlinearity` and a
:class:`repro.tank.Tank`.
"""

from repro.core.describing_function import (
    HarmonicCoefficients,
    fundamental_coefficient,
    harmonic_coefficients,
    tf_natural,
)
from repro.core.two_tone import TwoToneDF, two_tone_fundamental
from repro.core.natural import NaturalOscillation, predict_natural_oscillation
from repro.core.shil import LockState, ShilSolution, solve_lock_states
from repro.core.lockrange import LockRange, predict_lock_range
from repro.core.fhil import FhilLock, solve_fhil, fhil_lock_range
from repro.core.states import enumerate_states
from repro.core.curves import LevelCurve, extract_level_curves, intersect_curves
from repro.core.harmonic_balance import (
    HbSolution,
    hb_lock_state,
    hb_natural_oscillation,
)
from repro.core.pulling import PullingAnalysis, analyze_pulling
from repro.core.design import injection_for_lock_range, lock_range_sensitivity
from repro.core.noise import LockNoiseModel, phase_noise_suppression

__all__ = [
    "HarmonicCoefficients",
    "fundamental_coefficient",
    "harmonic_coefficients",
    "tf_natural",
    "TwoToneDF",
    "two_tone_fundamental",
    "NaturalOscillation",
    "predict_natural_oscillation",
    "LockState",
    "ShilSolution",
    "solve_lock_states",
    "LockRange",
    "predict_lock_range",
    "FhilLock",
    "solve_fhil",
    "fhil_lock_range",
    "enumerate_states",
    "LevelCurve",
    "extract_level_curves",
    "intersect_curves",
    "HbSolution",
    "hb_natural_oscillation",
    "hb_lock_state",
    "PullingAnalysis",
    "analyze_pulling",
    "injection_for_lock_range",
    "lock_range_sensitivity",
    "LockNoiseModel",
    "phase_noise_suppression",
]
