"""Natural-oscillation prediction (paper Section II, Fig. 3; stability VI-A1).

The free-running oscillation of the negative-resistance LC oscillator
satisfies ``T_f(A) = -R I_1(A) / (A/2) = 1`` (Eq. (2)): the describing
function of the nonlinearity, scaled by the tank's peak resistance, must
close the loop with unit gain at the tank's centre frequency.  Graphically,
the amplitude is read off the intersection of ``y = T_f(A)`` with ``y = 1``.

Stability (Appendix VI-A1): a solution is stable iff ``T_f`` cuts the unit
line *from above* — ``dT_f/dA < 0`` at the crossing — because then a small
amplitude excess sees sub-unity loop gain and decays, and a deficit sees
excess gain and grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.describing_function import DEFAULT_SAMPLES, tf_natural
from repro.nonlin.base import Nonlinearity
from repro.robust.guards import guard_finite
from repro.tank.base import Tank
from repro.utils.grids import refine_bracket
from repro.utils.validation import check_positive

__all__ = [
    "NaturalOscillation",
    "predict_natural_oscillation",
    "find_all_amplitudes",
    "lock_grid",
]


@dataclass(frozen=True)
class NaturalOscillation:
    """Predicted free-running oscillation.

    Attributes
    ----------
    amplitude:
        Oscillation amplitude ``A`` at the tank port, volts.
    frequency:
        Angular oscillation frequency — the tank centre frequency, rad/s.
    stable:
        Stability per the cuts-from-above rule.
    loop_gain_small_signal:
        ``T_f(0) = -R f'(0)``; start-up requires this to exceed 1.
    tf_slope:
        ``dT_f/dA`` at the solution (negative for stable locks).
    amplitude_grid, tf_curve:
        The sampled ``T_f(A)`` curve used for the graphical construction —
        exactly what Fig. 3 plots.
    """

    amplitude: float
    frequency: float
    stable: bool
    loop_gain_small_signal: float
    tf_slope: float
    amplitude_grid: np.ndarray
    tf_curve: np.ndarray

    @property
    def frequency_hz(self) -> float:
        """Oscillation frequency in hertz."""
        return self.frequency / (2.0 * np.pi)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        state = "stable" if self.stable else "unstable"
        return (
            f"NaturalOscillation(A={self.amplitude:.6g} V, "
            f"f={self.frequency_hz:.6g} Hz, {state})"
        )


class NoOscillationError(RuntimeError):
    """Raised when the start-up criterion fails or no ``T_f = 1`` crossing exists."""


def _auto_amplitude_window(
    nonlinearity: Nonlinearity,
    tank_r: float,
    n_samples: int,
) -> float:
    """Grow an amplitude ceiling until ``T_f`` has fallen below unity.

    Saturating nonlinearities guarantee ``T_f -> 0`` as ``A -> inf``; the
    geometric expansion stops at the first decade where the loop gain has
    collapsed, giving a window certain to bracket the topmost crossing.
    """
    a = 1e-3
    for _ in range(40):
        tf = float(tf_natural(nonlinearity, tank_r, np.asarray([a]), n_samples)[0])
        guard_finite(
            f"T_f({a:g} V)", np.asarray([tf]), stage="natural", context={"a": a}
        )
        if tf < 0.5:
            return a
        a *= 2.0
    raise NoOscillationError(
        "T_f(A) never fell below unity while expanding the amplitude window; "
        "the nonlinearity does not appear to be amplitude-limiting"
    )


def find_all_amplitudes(
    nonlinearity: Nonlinearity,
    tank_r: float,
    *,
    a_max: float | None = None,
    n_grid: int = 400,
    n_samples: int = DEFAULT_SAMPLES,
) -> list[tuple[float, float]]:
    """All solutions of ``T_f(A) = 1`` in ``(0, a_max]`` with their slopes.

    Returns a list of ``(amplitude, dT_f/dA)`` pairs sorted by amplitude.
    Multiple crossings occur for non-monotone describing functions (e.g. a
    tunnel diode biased near the edge of its NDR region).
    """
    if a_max is None:
        a_max = _auto_amplitude_window(nonlinearity, tank_r, n_samples)
    grid = np.linspace(a_max / n_grid, a_max, n_grid)
    tf = tf_natural(nonlinearity, tank_r, grid, n_samples) - 1.0
    guard_finite("T_f(A) scan", tf, stage="natural", context={"a_max": a_max})
    solutions = []
    sign = np.sign(tf)
    for k in np.nonzero(np.diff(sign) != 0)[0]:
        a_lo, a_hi = grid[k], grid[k + 1]

        def residual(a):
            return float(tf_natural(nonlinearity, tank_r, np.asarray([a]), n_samples)[0]) - 1.0

        a_star = refine_bracket(residual, float(a_lo), float(a_hi), tol=1e-12)
        h = 1e-4 * a_star
        slope = (residual(a_star + h) - residual(a_star - h)) / (2 * h)
        solutions.append((float(a_star), float(slope)))
    return solutions


def predict_natural_oscillation(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    a_max: float | None = None,
    n_grid: int = 400,
    n_samples: int = DEFAULT_SAMPLES,
) -> NaturalOscillation:
    """Predict the stable free-running oscillation (the Fig. 3 construction).

    Parameters
    ----------
    nonlinearity:
        The negative-resistance law ``f``.
    tank:
        The LC tank; its peak resistance enters ``T_f`` and its centre
        frequency is the oscillation frequency (the tank filters all higher
        harmonics — the describing-function filtering assumption).
    a_max:
        Amplitude search ceiling; grown automatically when omitted.
    n_grid:
        Scan resolution for bracketing.
    n_samples:
        Fourier quadrature resolution.

    Raises
    ------
    NoOscillationError
        When start-up fails (``T_f(0) <= 1``) or no stable crossing exists.
    """
    tank_r = tank.peak_resistance
    gain0 = float(-tank_r * nonlinearity.derivative(np.asarray(0.0)))
    if gain0 <= 1.0:
        raise NoOscillationError(
            f"start-up criterion failed: small-signal loop gain {gain0:.4g} <= 1 "
            f"(need |f'(0)| > 1/R = {1.0 / tank_r:.4g} S)"
        )
    solutions = find_all_amplitudes(
        nonlinearity, tank_r, a_max=a_max, n_grid=n_grid, n_samples=n_samples
    )
    stable = [(a, s) for a, s in solutions if s < 0.0]
    if not stable:
        raise NoOscillationError(
            "no stable T_f(A) = 1 crossing found despite start-up gain "
            f"{gain0:.4g} > 1; widen a_max or refine n_grid"
        )
    # The physically reached oscillation from small-signal start-up is the
    # lowest-amplitude stable crossing (the growing solution is captured by
    # the first stable equilibrium above it).
    amplitude, slope = stable[0]
    if a_max is None:
        a_max = 2.0 * max(a for a, _ in solutions)
    grid = np.linspace(a_max / n_grid, a_max, n_grid)
    curve = tf_natural(nonlinearity, tank_r, grid, n_samples)
    return NaturalOscillation(
        amplitude=amplitude,
        frequency=tank.center_frequency,
        stable=True,
        loop_gain_small_signal=gain0,
        tf_slope=slope,
        amplitude_grid=grid,
        tf_curve=curve,
    )


def lock_grid(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    n_a: int,
    n_phi: int,
    n_samples: int = DEFAULT_SAMPLES,
    amplitude_window: tuple[float, float] | None = None,
    widen: float = 1.0,
) -> tuple[tuple[float, float], np.ndarray, np.ndarray]:
    """The ``(A, phi)`` grid every injection-locking solve pre-characterises.

    Returns ``(amplitude_window, amplitudes, phis)``.  The default window
    is 0.3x to 1.4x the natural amplitude (solved with ``n_samples``),
    stretched by ``widen`` on both sides; an explicit ``amplitude_window``
    is used as given.  Either way it must satisfy ``0 < A_min < A_max``.
    ``amplitudes`` spans the window in ``n_a`` points and ``phis`` covers
    one period in ``n_phi`` points, offset by half a cell: symmetric
    nonlinearities put exact zeros of the phase residual on ``phi = 0``
    and ``pi``, and sampling exactly there hides the sign changes from
    the contour extraction.
    """
    if amplitude_window is None:
        natural = predict_natural_oscillation(nonlinearity, tank, n_samples=n_samples)
        amplitude_window = (
            0.3 * natural.amplitude / widen,
            1.4 * natural.amplitude * widen,
        )
    a_lo, a_hi = amplitude_window
    check_positive("amplitude_window[0]", a_lo)
    if not a_hi > a_lo:
        raise ValueError("amplitude_window must satisfy A_max > A_min")
    amplitudes = np.linspace(a_lo, a_hi, n_a)
    half_cell = np.pi / (n_phi - 1)
    phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, n_phi)
    return (a_lo, a_hi), amplitudes, phis
