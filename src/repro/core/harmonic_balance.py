"""Harmonic-balance refinement of the describing-function predictions.

The graphical technique rests on the high-Q *filtering assumption*: only
the fundamental survives the tank, so the tank voltage is a pure
sinusoid at exactly ``w_c``.  At finite Q that is an approximation — the
higher harmonics of the device current develop small voltages across the
tank, feed back through the nonlinearity, and shift both the oscillation
frequency (downward for a saturating ``f``) and, slightly, the amplitude
and lock phases.  The transient simulations show exactly this shift.

This module solves the *full* periodic steady state in the frequency
domain (classic harmonic balance), which removes the filtering assumption
while staying orders of magnitude cheaper than transient simulation:

* :func:`hb_natural_oscillation` — free-running oscillation with ``K``
  harmonics: unknowns are the complex voltage harmonics ``V_1..V_K`` and
  the frequency ``w`` (phase pinned by ``Im V_1 = 0``), equations are KCL
  per harmonic ``Y(jkw) V_k + I_k(v) = 0``;
* :func:`hb_lock_state` — the locked oscillator under n-th sub-harmonic
  injection: ``w = w_injection / n`` is known, the injected tone rides on
  harmonic ``n`` of the nonlinearity drive, and the phase unknowns are
  free (the injection pins them).

Both Newton-iterate from the describing-function solution, so they
converge in a handful of steps and *quantify* the DF error rather than
replace the insight-bearing graphical procedure.  The integration tests
check that the HB frequency/phase land measurably closer to transient
simulation than the DF values.

Notes
-----
* ``V_0`` (DC) is excluded: the parallel tank's inductor is a DC short,
  forcing zero average voltage; the device's DC current circulates
  through the inductor (odd nonlinearities produce none anyway).
* The device current's harmonics are evaluated by FFT on an N-point time
  grid of the *drive* waveform (tank voltage plus injected tone), exactly
  as in :mod:`repro.core.two_tone` but with the full harmonic voltage
  content instead of one tone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.natural import predict_natural_oscillation
from repro.core.shil import solve_lock_states
from repro.core.two_tone import TwoToneDF
from repro.nonlin.base import Nonlinearity
from repro.obs import convergence_event, metrics, trace
from repro.robust.diagnostics import record_fault
from repro.robust.faults import SolveFault
from repro.robust.guards import guard_finite
from repro.tank.base import Tank
from repro.utils.validation import check_positive

__all__ = ["HbSolution", "hb_natural_oscillation", "hb_lock_state"]

#: Linear-solve seam for the Newton systems.  Module-level so the
#: fault-injection harness can deterministically substitute a failing
#: solver; production behaviour is exactly ``np.linalg.solve``.
_solve_linear = np.linalg.solve


@dataclass(frozen=True)
class HbSolution:
    """A harmonic-balance periodic steady state.

    Attributes
    ----------
    w:
        Oscillation angular frequency (rad/s).
    harmonics:
        Complex tank-voltage phasors ``V_k`` for ``k = 1..K`` in the
        convention ``v(t) = sum_k 2 Re[V_k e^{j k w t}]`` (so ``|V_1|`` is
        half the fundamental amplitude, matching ``A/2``).
    residual_norm:
        Norm of the final KCL residual (amps).
    iterations:
        Newton iterations used.
    """

    w: float
    harmonics: np.ndarray
    residual_norm: float
    iterations: int

    @property
    def amplitude(self) -> float:
        """Fundamental amplitude ``A = 2 |V_1|``."""
        return 2.0 * abs(self.harmonics[0])

    @property
    def fundamental_phase(self) -> float:
        """Phase of the fundamental tank voltage, radians."""
        return float(np.angle(self.harmonics[0]))

    @property
    def frequency_hz(self) -> float:
        """Oscillation frequency in hertz."""
        return self.w / (2.0 * np.pi)

    def thd(self) -> float:
        """Voltage THD predicted by the harmonic content."""
        v1 = abs(self.harmonics[0])
        if v1 == 0.0:
            return float("inf")
        return float(np.sqrt(np.sum(np.abs(self.harmonics[1:]) ** 2)) / v1)

    def waveform(self, t: np.ndarray) -> np.ndarray:
        """Reconstruct ``v(t)`` from the harmonic phasors."""
        t = np.asarray(t, dtype=float)
        k = np.arange(1, self.harmonics.size + 1)
        phases = np.exp(1j * np.outer(t, k * self.w))
        return 2.0 * np.real(phases @ self.harmonics)


class HbConvergenceError(RuntimeError):
    """Harmonic balance Newton failed to converge."""


def _device_harmonics(
    nonlinearity: Nonlinearity,
    v_harmonics: np.ndarray,
    extra: np.ndarray | None,
    n_samples: int,
) -> np.ndarray:
    """Current harmonics ``I_k`` (k=1..K) of ``f(v(t) + extra(t))``.

    ``v_harmonics`` and ``extra`` are phasor arrays over k = 1..K in the
    same half-amplitude convention as :class:`HbSolution`.
    """
    k_max = v_harmonics.size
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    k = np.arange(1, k_max + 1)
    basis = np.exp(1j * np.outer(theta, k))
    total = v_harmonics if extra is None else v_harmonics + extra
    v = 2.0 * np.real(basis @ total)
    current = np.asarray(nonlinearity(v), dtype=float)
    spectrum = np.fft.rfft(current) / n_samples
    return spectrum[1 : k_max + 1]


def _pack(v: np.ndarray, w: float | None) -> np.ndarray:
    parts = [np.real(v), np.imag(v)]
    if w is not None:
        parts.append(np.asarray([w]))
    return np.concatenate(parts)


def _unpack(x: np.ndarray, k_max: int, with_w: bool):
    v = x[:k_max] + 1j * x[k_max : 2 * k_max]
    w = float(x[2 * k_max]) if with_w else None
    return v, w


def _newton(
    residual, x: np.ndarray, *, floor, cap: float | None, capped: slice,
    tol: float, max_iter: int, kind: str, sp,
) -> tuple[np.ndarray, int, float]:
    """Damped Newton on ``residual(x) = 0`` with a forward-difference
    Jacobian; returns ``(x, iterations, residual_norm)``.

    ``floor(x)`` gives each column's lower bound on the difference step
    ``1e-7 * max(|x_j|, floor_j)``.  When ``cap`` is set, a step whose
    ``capped`` block is longer than ``cap`` has that block scaled down to
    it.  ``kind`` labels the ``hb.*`` metrics; ``sp`` is the enclosing
    span.
    """
    iterations = 0
    for iterations in range(1, max_iter + 1):
        r = residual(x)
        guard_finite(
            "harmonic-balance residual", r, stage="harmonic-balance", recoverable=True
        )
        # Numerical Jacobian — the systems are small (2K or 2K+1).
        h_floor = floor(x)
        jac = np.empty((x.size, x.size))
        for j in range(x.size):
            h = 1e-7 * max(abs(x[j]), h_floor[j])
            e = np.zeros(x.size)
            e[j] = h
            jac[:, j] = (residual(x + e) - r) / h
        guard_finite(
            "harmonic-balance Jacobian", jac, stage="harmonic-balance", recoverable=True
        )
        try:
            dx = _solve_linear(jac, -r)
        except np.linalg.LinAlgError as exc:
            # Record the precise cause before wrapping it in the coarser
            # convergence error (only the wrapper type reaches callers).
            record_fault(
                SolveFault("singular-jacobian", "harmonic-balance", str(exc))
            )
            sp.set(iterations=iterations, residual_norm=float(np.linalg.norm(r)))
            metrics.inc("hb.failures", cause="singular-jacobian", kind=kind)
            raise HbConvergenceError("singular harmonic-balance Jacobian") from exc
        damped = False
        if cap is not None:
            step = float(np.linalg.norm(dx[capped]))
            if step > cap:
                dx = dx.copy()
                dx[capped] *= cap / step
                damped = True
        x = x + dx
        if sp.recording:
            convergence_event(
                "hb-newton",
                iteration=iterations,
                residual=float(np.linalg.norm(r)),
                step=float(np.linalg.norm(dx)),
                damped=damped,
            )
        if np.linalg.norm(dx) < tol * np.linalg.norm(x):
            break
    else:
        sp.set(
            iterations=iterations,
            residual_norm=float(np.linalg.norm(residual(x))),
        )
        metrics.inc("hb.failures", cause="max-iterations", kind=kind)
        raise HbConvergenceError(
            f"harmonic balance did not converge in {max_iter} iterations"
        )
    residual_norm = float(np.linalg.norm(residual(x)))
    sp.set(iterations=iterations, residual_norm=residual_norm)
    metrics.inc("hb.solves", kind=kind)
    metrics.observe("hb.iterations", iterations, kind=kind)
    metrics.observe("hb.residual_norm", residual_norm, kind=kind)
    return x, iterations, residual_norm


def hb_natural_oscillation(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    k_max: int = 7,
    n_samples: int = 512,
    tol: float = 1e-12,
    max_iter: int = 60,
    max_step_rel: float | None = None,
) -> HbSolution:
    """Free-running periodic steady state by harmonic balance.

    Parameters
    ----------
    nonlinearity, tank:
        The oscillator.
    k_max:
        Number of voltage harmonics retained.
    n_samples:
        Time samples per period for the device-current FFT.
    tol:
        Convergence tolerance on the packed update (relative).
    max_iter:
        Newton budget.
    max_step_rel:
        Optional damping: cap each Newton update at this fraction of the
        amplitude scale (the escalation ladder's damped-Newton rung).

    Raises
    ------
    HbConvergenceError
        If Newton fails (e.g. the oscillator does not start up).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if n_samples <= 2 * k_max:
        raise ValueError("n_samples must exceed 2 * k_max")
    with trace(
        "hb.natural", attrs={"k_max": k_max, "n_samples": n_samples}
    ) as sp:
        natural = predict_natural_oscillation(
            nonlinearity, tank, n_samples=n_samples
        )
        v0 = np.zeros(k_max, dtype=complex)
        v0[0] = natural.amplitude / 2.0
        x = _pack(v0, natural.frequency)
        scale = max(natural.amplitude / 2.0, 1e-12)

        def residual(x: np.ndarray) -> np.ndarray:
            v, w = _unpack(x, k_max, with_w=True)
            i_h = _device_harmonics(nonlinearity, v, None, n_samples)
            k = np.arange(1, k_max + 1)
            y = 1.0 / tank.transfer(k * w)
            kcl = y * v + i_h
            # Phase pinning: the fundamental is real.
            return np.concatenate([np.real(kcl), np.imag(kcl), [np.imag(v[0])]])

        # Damp the voltage block only: the frequency unknown lives on a
        # ~1e6 rad/s scale and an amplitude-scaled cap would freeze it.
        x, iterations, residual_norm = _newton(
            residual,
            x,
            floor=lambda x: np.append(np.full(2 * k_max, scale), x[-1] * 1e-6),
            cap=None if max_step_rel is None else max_step_rel * scale,
            capped=slice(0, 2 * k_max),
            tol=tol, max_iter=max_iter, kind="natural", sp=sp,
        )
        v, w = _unpack(x, k_max, with_w=True)
        return HbSolution(w, v, residual_norm, iterations)


def hb_lock_state(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    w_injection: float,
    n: int,
    k_max: int = 7,
    n_samples: int = 512,
    tol: float = 1e-12,
    max_iter: int = 60,
    method: str = "fft",
    initial: np.ndarray | None = None,
    max_step_rel: float | None = None,
) -> HbSolution:
    """Harmonic-balance refinement of a stable SHIL lock state.

    The oscillation frequency is pinned to ``w_injection / n``; the
    injected tone ``2 v_i cos(w_injection t)`` adds to the drive of the
    nonlinearity at harmonic ``n`` (series-injection topology, Fig. 8a).
    Newton starts from the describing-function stable lock, with *all*
    ``K`` voltage harmonics pre-seeded from the two-tone current
    spectrum: each current harmonic ``I_k`` at the DF lock point costs
    nothing extra beyond the fundamental, and ``V_k = -Z(jkw_i) I_k``
    (rotated into the injection frame) is the tank's first-order
    response to it.  ``method`` selects the pre-characterisation path of
    the seeding DF solve (see :func:`repro.core.shil.solve_lock_states`).

    ``initial`` bypasses the describing-function seeding entirely: pass
    harmonic phasors (length ``k_max``, injection frame) from a previous
    solve and Newton starts there — the hook the escalation ladder's
    ``V_i`` source-stepping continuation rung uses to ramp the injection
    up from the single-tone (free-running) solution.  ``max_step_rel``
    overrides the default step cap of 0.5 amplitude-scales per update.

    Returns
    -------
    HbSolution
        With ``fundamental_phase`` now meaningful: it is the oscillator
        phase relative to the injection (one of the n states; HB refines
        the one the DF solution picked).

    Raises
    ------
    HbConvergenceError
        If no lock exists at this frequency (Newton walks away) or the
        DF seed is outside the basin.
    """
    check_positive("w_injection", w_injection)
    n = int(n)
    if k_max < max(n, 1):
        raise ValueError(f"k_max must be >= n (need the injection harmonic {n})")
    w_i = w_injection / n
    k = np.arange(1, k_max + 1)
    z = np.asarray(tank.transfer(k * w_i))
    y = 1.0 / z

    with trace(
        "hb.lock",
        attrs={"n": n, "v_i": v_i, "method": method, "k_max": k_max},
    ) as sp:
        if initial is not None:
            v0 = np.asarray(initial, dtype=complex)
            if v0.shape != (k_max,):
                raise ValueError(
                    f"initial must hold {k_max} harmonic phasors, "
                    f"got shape {v0.shape}"
                )
        else:
            df_solution = solve_lock_states(
                nonlinearity,
                tank,
                v_i=v_i,
                w_injection=w_injection,
                n=n,
                method=method,
            )
            if not df_solution.locked:
                metrics.inc("hb.failures", cause="no-df-seed", kind="lock")
                raise HbConvergenceError(
                    "describing-function analysis finds no stable lock at this "
                    "frequency; harmonic balance needs a seed inside the lock "
                    "range"
                )
            lock = df_solution.stable_locks[0]
            # DF frame: fundamental pinned at zero phase, injection at
            # phi_lock.  HB frame: injection at zero phase -> rotate the
            # fundamental to psi = one of the oscillator phases (pick the
            # principal state).
            psi = float(lock.oscillator_phases[0])
            # Seed every harmonic, not just the fundamental: the two-tone
            # current spectrum at the lock point gives I_k for free, and
            # V_k = -Z(jkw) I_k is the tank's response to it (rotated by
            # e^{jk psi} into the injection frame).  The fundamental keeps
            # its exact DF value.
            df = TwoToneDF(nonlinearity, v_i, n, n_samples=n_samples, method=method)
            i_k = df.harmonic_phasors(lock.amplitude, lock.phi, k_max)
            v0 = -z * i_k * np.exp(1j * k * psi)
            v0[0] = (lock.amplitude / 2.0) * np.exp(1j * psi)
        extra = np.zeros(k_max, dtype=complex)
        extra[n - 1] = v_i  # phasor of 2 v_i cos(n w_i t)

        x = _pack(v0, None)
        scale = max(abs(v0[0]), 1e-12)

        def residual(x: np.ndarray) -> np.ndarray:
            v, __ = _unpack(x, k_max, with_w=False)
            i_h = _device_harmonics(nonlinearity, v, extra, n_samples)
            kcl = y * v + i_h
            return np.concatenate([np.real(kcl), np.imag(kcl)])

        # Cap the whole step so the iterate cannot jump to a different
        # lock state.
        x, iterations, residual_norm = _newton(
            residual,
            x,
            floor=lambda x: np.full(x.size, scale),
            cap=(0.5 if max_step_rel is None else max_step_rel) * scale,
            capped=slice(None),
            tol=tol, max_iter=max_iter, kind="lock", sp=sp,
        )
        v, __ = _unpack(x, k_max, with_w=False)
        return HbSolution(w_i, v, residual_norm, iterations)
