"""SHIL lock-state solver for a given injection strength and frequency.

This is the paper's Fig. 7 procedure, automated:

1. pre-characterise the two-tone describing function over an ``(A, phi)``
   grid around the natural-oscillation amplitude;
2. extract the magnitude-condition curve ``C_{T_f,1}`` (level set
   ``T_f = 1``) and the phase-condition curve
   ``C_{angle(-I_1), -phi_d}``;
3. intersect them — each crossing is a candidate lock;
4. polish each candidate with a damped 2-D Newton iteration on the exact
   (quadrature-evaluated, not interpolated) lock residuals;
5. classify stability from the averaged-dynamics Jacobian (and record the
   paper's slope-rule verdict for comparison);
6. enumerate the ``n`` physical oscillator states of each lock.

For the phase condition the solver contours the *smooth* residual
``Im(-I_1 * exp(j*phi_d))`` at level zero instead of the wrapped angle
surface — the two have identical zero sets (up to the half-plane selector
``Re(-I_1 * exp(j*phi_d)) > 0``, which is enforced when filtering
candidates) and the former has no branch cuts to confuse the marching
squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.averaging import SlowFlow
from repro.core.curves import LevelCurve, extract_level_curves, intersect_curves
from repro.core.describing_function import DEFAULT_SAMPLES
from repro.core.natural import lock_grid
from repro.core.stability import StabilityVerdict, classify_by_jacobian
from repro.core.states import enumerate_states
from repro.core.two_tone import TwoToneDF
from repro.nonlin.base import Nonlinearity
from repro.obs import metrics, trace
from repro.tank.base import Tank
from repro.utils.grids import Grid2D
from repro.utils.validation import check_positive

__all__ = ["LockState", "ShilSolution", "solve_lock_states"]


@dataclass(frozen=True)
class LockState:
    """One lock state in reduced coordinates plus its physical unfolding.

    Attributes
    ----------
    phi:
        Injection phase relative to the pinned fundamental, radians,
        normalised to ``[0, 2 pi)``.
    amplitude:
        Locked oscillation amplitude, volts (below the natural amplitude —
        a signature observation of the paper's examples).
    stable:
        Stability per the averaged Jacobian.
    verdict:
        Full stability information (eigenvalues, method).
    oscillator_phases:
        The ``n`` admissible absolute oscillator phases relative to a
        zero-phase injection (Appendix VI-B4).
    residual_norm:
        Norm of the lock-condition residual after Newton polish; a
        converged state is at quadrature accuracy (~1e-10).
    """

    phi: float
    amplitude: float
    stable: bool
    verdict: StabilityVerdict
    oscillator_phases: np.ndarray
    residual_norm: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "stable" if self.stable else "unstable"
        return f"LockState(phi={self.phi:.4f} rad, A={self.amplitude:.6g} V, {tag})"


@dataclass
class ShilSolution:
    """Result of :func:`solve_lock_states` for one ``(V_i, w_i)`` point.

    Besides the lock states it retains the graphical artefacts — the grid
    surfaces and the two condition curves — so a Fig. 7-style picture can
    be rendered from the result alone.
    """

    locks: list[LockState]
    n: int
    v_i: float
    w_i: float
    phi_d: float
    grid: Grid2D
    tf_curves: list[LevelCurve] = field(default_factory=list)
    phase_curves: list[LevelCurve] = field(default_factory=list)

    @property
    def locked(self) -> bool:
        """True when at least one *stable* lock exists."""
        return any(lock.stable for lock in self.locks)

    @property
    def stable_locks(self) -> list[LockState]:
        """The stable subset, sorted by amplitude descending."""
        return sorted(
            (lock for lock in self.locks if lock.stable),
            key=lambda lock: -lock.amplitude,
        )

    @property
    def total_states(self) -> int:
        """Number of physical lock states — a multiple of ``n`` (paper Section I)."""
        return self.n * len(self.locks)


def _newton_polish(
    flow: SlowFlow,
    amplitude: float,
    phi: float,
    *,
    max_iter: int = 30,
    tol: float = 1e-11,
) -> tuple[float, float, float]:
    """Damped 2-D Newton on the exact lock residuals.

    Returns ``(amplitude, phi, residual_norm)``; falls back to the best
    iterate when full convergence is not reached (grid-level candidates
    near folds can sit on nearly singular Jacobians).
    """
    a, p = float(amplitude), float(phi)
    best = (a, p, float(np.hypot(*flow.residual(a, p))))
    for _ in range(max_iter):
        r = np.asarray(flow.residual(a, p))
        norm = float(np.hypot(r[0], r[1]))
        if norm < best[2]:
            best = (a, p, norm)
        if norm < tol:
            break
        h_a = 1e-6 * max(abs(a), 1e-9)
        h_p = 1e-6
        ra = np.asarray(flow.residual(a + h_a, p))
        rp = np.asarray(flow.residual(a, p + h_p))
        jac = np.column_stack([(ra - r) / h_a, (rp - r) / h_p])
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        damping = 1.0
        # Keep the amplitude positive and the step bounded.
        while a + damping * step[0] <= 0.0 and damping > 1e-6:
            damping *= 0.5
        a += damping * float(step[0])
        p += damping * float(step[1])
    return best


def solve_lock_states(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    w_injection: float,
    n: int,
    amplitude_window: tuple[float, float] | None = None,
    n_a: int = 141,
    n_phi: int = 181,
    n_samples: int = DEFAULT_SAMPLES,
    method: str = "fft",
) -> ShilSolution:
    """Find all lock states for injection ``2 v_i cos(w_injection t)``.

    Parameters
    ----------
    nonlinearity:
        The memoryless negative-resistance law.
    tank:
        The LC tank.
    v_i:
        Injection phasor magnitude (peak injected amplitude ``2 v_i``).
    w_injection:
        Angular frequency of the *injection signal* (``n`` times the
        oscillation frequency under lock).
    n:
        Sub-harmonic order; ``n = 1`` analyses FHIL with the same
        machinery.
    amplitude_window:
        ``(A_min, A_max)`` search window; by default centred on the
        natural-oscillation amplitude (0.3x to 1.4x,
        :func:`~repro.core.natural.lock_grid`).
    n_a, n_phi:
        Grid resolution of the pre-characterisation.
    n_samples:
        Fourier quadrature resolution.
    method:
        ``"fft"`` (default) pre-characterises via the factorised,
        cache-backed surface; ``"dense"`` forces the direct-quadrature
        referee.  The Newton polish always uses exact quadrature either
        way, so the choice only affects candidate generation speed.

    Returns
    -------
    ShilSolution
        Lock states (possibly empty — injection outside the lock range)
        plus the graphical artefacts.
    """
    check_positive("w_injection", w_injection)
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    with trace(
        "lock-states", attrs={"n": n, "v_i": v_i, "method": method}
    ) as sp:
        w_i = w_injection / n
        phi_d = float(tank.phase(np.asarray(w_i)))
        tank_r = tank.peak_resistance

        _, amplitudes, phis = lock_grid(
            nonlinearity,
            tank,
            n_a=n_a,
            n_phi=n_phi,
            n_samples=n_samples,
            amplitude_window=amplitude_window,
        )
        df = TwoToneDF(nonlinearity, v_i, n, n_samples=n_samples, method=method)
        grid = df.characterize(amplitudes, phis, tank_r)

        # Smooth phase-condition residual: Im(-I_1 e^{j phi_d}) == 0 with the
        # half-plane selector Re(-I_1 e^{j phi_d}) > 0.
        i1 = grid.surfaces["i1x"] + 1j * grid.surfaces["i1y"]
        rotated = -i1 * np.exp(1j * phi_d)
        grid.add_surface("phase_residual", np.imag(rotated))
        grid.add_surface("phase_halfplane", np.real(rotated))

        tf_curves = extract_level_curves(grid, "tf", 1.0)
        phase_curves = extract_level_curves(grid, "phase_residual", 0.0)

        flow = SlowFlow(df, tank, w_i)
        candidates: list[tuple[float, float]] = []
        for tf_curve in tf_curves:
            for phase_curve in phase_curves:
                candidates.extend(
                    (x, y) for x, y in intersect_curves(tf_curve, phase_curve)
                )

        locks: list[LockState] = []
        for phi0, a0 in candidates:
            # Reject the wrong half-plane (angle(-I_1) = -phi_d + pi branch).
            if grid.interpolate("phase_halfplane", phi0, a0) <= 0.0:
                continue
            a_star, phi_star, res = _newton_polish(flow, a0, phi0)
            if res > 1e-6:
                continue
            phi_star = float(np.mod(phi_star, 2.0 * np.pi))
            if any(
                abs(np.angle(np.exp(1j * (phi_star - lock.phi)))) < 1e-4
                and abs(a_star - lock.amplitude) < 1e-6 * max(1.0, a_star)
                for lock in locks
            ):
                continue
            verdict = classify_by_jacobian(flow, a_star, phi_star)
            locks.append(
                LockState(
                    phi=phi_star,
                    amplitude=float(a_star),
                    stable=verdict.stable,
                    verdict=verdict,
                    oscillator_phases=enumerate_states(phi_star, n),
                    residual_norm=res,
                )
            )
        locks.sort(key=lambda lock: lock.phi)
        sp.set(candidates=len(candidates), locks=len(locks))
        metrics.inc("shil.solves", method=method)
        return ShilSolution(
            locks=locks,
            n=n,
            v_i=v_i,
            w_i=w_i,
            phi_d=phi_d,
            grid=grid,
            tf_curves=tf_curves,
            phase_curves=phase_curves,
        )
