"""Lock-range prediction (paper Fig. 10 / Figs. 14, 18 and the two tables).

The paper's key computational observation: when the operating frequency
``w_i`` changes, the magnitude-condition curve ``C_{T_f,1}`` in the
``(phi, A)`` plane is *invariant* — only the phase condition
``angle(-I_1) = -phi_d(w_i)`` moves.  So instead of re-solving lock states
per frequency, walk once along ``C_{T_f,1}``:

* every point ``(phi, A)`` on the curve is a lock state *at the frequency
  whose tank phase satisfies* ``phi_d = -angle(-I_1(A, V_i, phi))``;
* the tank's monotone phase map converts each point's required ``phi_d``
  into an operating frequency;
* the lock range is the frequency interval spanned by the *stable* points,
  with the boundaries refined to sub-grid accuracy (golden-section on the
  fold of ``phi_d`` along the curve).

This finds the complete lock range in exactly one pass — "it does not
involve many iterations ... but finds solutions in exactly one pass".  The
naive alternative (bisection over frequency, one full lock-state solve per
probe) is also provided for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.averaging import SlowFlow
from repro.core.curves import extract_level_curves
from repro.core.describing_function import DEFAULT_SAMPLES
from repro.core.natural import predict_natural_oscillation
from repro.core.shil import solve_lock_states
from repro.core.stability import classify_by_jacobian
from repro.core.two_tone import TwoToneDF
from repro.nonlin.base import Nonlinearity
from repro.obs import metrics, trace
from repro.robust.diagnostics import record_fault
from repro.robust.faults import SolveFault
from repro.tank.base import PhaseInversionError, Tank
from repro.utils.grids import refine_bracket
from repro.utils.validation import check_positive

__all__ = ["LockRangePoint", "LockRange", "predict_lock_range", "lock_range_by_frequency_scan"]

#: Tank phases closer to +-pi/2 than this are outside any physical lock for
#: the topologies considered (cos(phi_d) -> 0 starves the loop gain).
_PHI_D_LIMIT = 0.49 * np.pi


@dataclass(frozen=True)
class LockRangePoint:
    """One point of the invariant ``T_f = 1`` curve, viewed as a lock state.

    Attributes
    ----------
    phi, amplitude:
        Reduced coordinates of the state.
    phi_d:
        Tank phase this state requires (``= -angle(-I_1)``), radians.
    w_i:
        Operating (oscillation) angular frequency realising that phase.
    stable:
        Averaged-Jacobian stability at this state.
    """

    phi: float
    amplitude: float
    phi_d: float
    w_i: float
    stable: bool


@dataclass
class LockRange:
    """Predicted n-th sub-harmonic lock range.

    Frequencies are *injection-signal* frequencies (``n`` times the
    oscillation frequency), matching the paper's tables.
    """

    n: int
    v_i: float
    injection_lower: float
    injection_upper: float
    phi_d_at_lower: float
    phi_d_at_upper: float
    amplitude_at_lower: float
    amplitude_at_upper: float
    samples: list[LockRangePoint] = field(default_factory=list)

    @property
    def injection_lower_hz(self) -> float:
        """Lower lock limit of the injection signal, Hz."""
        return self.injection_lower / (2.0 * np.pi)

    @property
    def injection_upper_hz(self) -> float:
        """Upper lock limit of the injection signal, Hz."""
        return self.injection_upper / (2.0 * np.pi)

    @property
    def width(self) -> float:
        """Lock range width (angular, injection-referred)."""
        return self.injection_upper - self.injection_lower

    @property
    def width_hz(self) -> float:
        """Lock range width ``Delta f`` in Hz — the tables' last column."""
        return self.width / (2.0 * np.pi)

    def contains(self, w_injection: float) -> bool:
        """Whether an injection frequency falls inside the predicted range."""
        return self.injection_lower <= w_injection <= self.injection_upper

    def amplitude_vs_frequency(self) -> tuple[np.ndarray, np.ndarray]:
        """The locked amplitude across the range — ``(w_i, A)`` arrays.

        Built from the *stable* invariant-curve samples, sorted by
        operating frequency.  This is the quantitative version of the
        paper's Fig. 14/18 observation that "A (and phi) decreases with
        increasing |w_c - w_i| till a cut-off point is reached".
        """
        stable = sorted((p for p in self.samples if p.stable), key=lambda p: p.w_i)
        if not stable:
            return np.empty(0), np.empty(0)
        return (
            np.array([p.w_i for p in stable]),
            np.array([p.amplitude for p in stable]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LockRange(n={self.n}, Vi={self.v_i:g} V, "
            f"[{self.injection_lower_hz:.6g}, {self.injection_upper_hz:.6g}] Hz, "
            f"df={self.width_hz:.6g} Hz)"
        )


class NoLockError(RuntimeError):
    """Raised when no stable lock exists at any frequency for this injection."""


def _solve_amplitude_on_curve(
    df: TwoToneDF,
    tank_r: float,
    phi: float,
    a_seed: float,
    a_window: tuple[float, float],
) -> float | None:
    """Re-solve ``T_f(A, phi) = 1`` in A near a seed (exact quadrature)."""

    def residual(a: float) -> float:
        return float(df.tf(a, phi, tank_r)) - 1.0

    lo, hi = a_window
    span = 0.05 * (hi - lo)
    a_lo = max(lo, a_seed - span)
    a_hi = min(hi, a_seed + span)
    r_lo, r_hi = residual(a_lo), residual(a_hi)
    for _ in range(6):
        if np.sign(r_lo) != np.sign(r_hi):
            return refine_bracket(residual, a_lo, a_hi, tol=1e-13)
        a_lo = max(lo, a_lo - span)
        a_hi = min(hi, a_hi + span)
        r_lo, r_hi = residual(a_lo), residual(a_hi)
        if a_lo == lo and a_hi == hi:
            break
    return None


def _point_at_phi(
    df: TwoToneDF,
    tank: Tank,
    phi: float,
    a_seed: float,
    a_window: tuple[float, float],
) -> LockRangePoint | None:
    """Build the lock-range point of the invariant curve at abscissa ``phi``."""
    tank_r = tank.peak_resistance
    amplitude = _solve_amplitude_on_curve(df, tank_r, phi, a_seed, a_window)
    if amplitude is None:
        return None
    i1 = complex(df.i1(amplitude, phi))
    phi_d = float(-np.angle(-i1))
    if abs(phi_d) >= _PHI_D_LIMIT:
        return None
    try:
        w_i = tank.frequency_for_phase(phi_d)
    except PhaseInversionError as exc:
        # The point exists on the invariant curve but no operating
        # frequency realises its tank phase: drop it, but leave a trace.
        record_fault(
            SolveFault(
                "phase-inversion-out-of-range",
                "lock-range",
                str(exc),
                context={"phi": float(phi), "phi_d": phi_d},
            )
        )
        return None
    flow = SlowFlow(df, tank, w_i)
    verdict = classify_by_jacobian(flow, amplitude, phi)
    return LockRangePoint(
        phi=float(phi),
        amplitude=float(amplitude),
        phi_d=phi_d,
        w_i=float(w_i),
        stable=verdict.stable,
    )


def _solve_amplitudes_batched(
    evaluate,
    tank_r: float,
    phis: np.ndarray,
    seeds: np.ndarray,
    a_window: tuple[float, float],
    *,
    tol: float = 1e-13,
) -> np.ndarray:
    """Vectorised ``T_f(A, phi) = 1`` solve for many curve points at once.

    Mirrors :func:`_solve_amplitude_on_curve` — bracket expansion around
    each seed followed by bisection — but runs every point of the invariant
    curve through the (zero-nonlinearity-call) surface evaluator in lock
    step, so the whole curve costs a few dozen small vector operations
    instead of tens of thousands of scalar quadratures.  Unbracketable
    points come back as NaN.
    """

    def residual(a: np.ndarray, p: np.ndarray) -> np.ndarray:
        i1x = np.real(evaluate(a, p))
        return -tank_r * i1x / (a / 2.0) - 1.0

    lo, hi = a_window
    span = 0.05 * (hi - lo)
    a_lo = np.maximum(lo, seeds - span)
    a_hi = np.minimum(hi, seeds + span)
    r_lo = residual(a_lo, phis)
    r_hi = residual(a_hi, phis)
    for _ in range(6):
        open_ = np.sign(r_lo) == np.sign(r_hi)
        if not open_.any():
            break
        at_limit = open_ & (a_lo <= lo) & (a_hi >= hi)
        grow = open_ & ~at_limit
        if not grow.any():
            break
        a_lo = np.where(grow, np.maximum(lo, a_lo - span), a_lo)
        a_hi = np.where(grow, np.minimum(hi, a_hi + span), a_hi)
        r_lo = np.where(grow, residual(a_lo, phis), r_lo)
        r_hi = np.where(grow, residual(a_hi, phis), r_hi)
    bracketed = np.sign(r_lo) != np.sign(r_hi)

    if phis.size == 1:
        # Scalar query (edge refinement): Brent converges in ~a dozen
        # evaluator calls where synchronised bisection needs ~50.
        if not bool(bracketed[0]):
            return np.array([np.nan])
        from scipy.optimize import brentq

        phi = float(phis[0])
        root = brentq(
            lambda a: float(residual(np.array([a]), np.array([phi]))[0]),
            float(a_lo[0]),
            float(a_hi[0]),
            xtol=tol,
            rtol=8.9e-16,
        )
        return np.array([root])

    # Bisection, synchronised across all bracketed points.
    lo_v = a_lo.copy()
    hi_v = a_hi.copy()
    f_lo = r_lo.copy()
    for _ in range(200):
        mid = 0.5 * (lo_v + hi_v)
        width_ok = (hi_v - lo_v) < tol * np.maximum(1.0, np.abs(mid))
        if bool(np.all(width_ok | ~bracketed)):
            break
        f_mid = residual(mid, phis)
        take_low = np.sign(f_mid) == np.sign(f_lo)
        lo_v = np.where(take_low, mid, lo_v)
        f_lo = np.where(take_low, f_mid, f_lo)
        hi_v = np.where(take_low, hi_v, mid)
    solution = 0.5 * (lo_v + hi_v)
    return np.where(bracketed, solution, np.nan)


def _points_at_phis_batched(
    df: TwoToneDF,
    tank: Tank,
    evaluate,
    phis: np.ndarray,
    seeds: np.ndarray,
    a_window: tuple[float, float],
    *,
    with_stability: bool = True,
) -> list[LockRangePoint | None]:
    """Vectorised :func:`_point_at_phi` over many curve points.

    Amplitude solve, ``phi_d`` extraction and the stability Jacobian all
    run batched through the surface evaluator; only the (cheap, analytic)
    tank phase inversion stays per point.  The stability rule is the same
    eigenvalue criterion as :func:`classify_by_jacobian`, expressed as
    ``trace < 0 and det > 0`` — equivalent for a real 2x2 system.
    """
    phis = np.asarray(phis, dtype=float)
    seeds = np.asarray(seeds, dtype=float)
    tank_r = tank.peak_resistance
    tank_c = tank.effective_capacitance()
    amplitudes = _solve_amplitudes_batched(evaluate, tank_r, phis, seeds, a_window)
    valid = np.isfinite(amplitudes)
    safe_a = np.where(valid, amplitudes, 1.0)

    i1 = evaluate(safe_a, phis)
    phi_d = -np.angle(-i1)
    valid &= np.abs(phi_d) < _PHI_D_LIMIT

    w_i = np.full(phis.shape, np.nan)
    for j in np.nonzero(valid)[0]:
        try:
            w_i[j] = tank.frequency_for_phase(float(phi_d[j]))
        except PhaseInversionError as exc:
            record_fault(
                SolveFault(
                    "phase-inversion-out-of-range",
                    "lock-range",
                    str(exc),
                    context={"phi": float(phis[j]), "phi_d": float(phi_d[j])},
                )
            )
            valid[j] = False

    if with_stability:
        # Batched finite-difference Jacobian of the slow flow (same stencil
        # as SlowFlow.jacobian: central differences, rel_step 1e-5).
        tan_phi_d = np.tan(phi_d)

        def rhs(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            i1_ap = evaluate(a, p)
            tf = -tank_r * np.real(i1_ap) / (a / 2.0)
            da = a / (2.0 * tank_r * tank_c) * (tf - 1.0)
            dphi = (
                df.n
                / (2.0 * tank_c)
                * (2.0 * np.imag(i1_ap) / a - tan_phi_d / tank_r)
            )
            return da, dphi

        rel_step = 1e-5
        h_a = rel_step * safe_a
        h_p = rel_step * 2.0 * np.pi
        fa_p = rhs(safe_a + h_a, phis)
        fa_m = rhs(safe_a - h_a, phis)
        fp_p = rhs(safe_a, phis + h_p)
        fp_m = rhs(safe_a, phis - h_p)
        j00 = (fa_p[0] - fa_m[0]) / (2.0 * h_a)
        j01 = (fp_p[0] - fp_m[0]) / (2.0 * h_p)
        j10 = (fa_p[1] - fa_m[1]) / (2.0 * h_a)
        j11 = (fp_p[1] - fp_m[1]) / (2.0 * h_p)
        trace = j00 + j11
        det = j00 * j11 - j01 * j10
        stable = (trace < 0.0) & (det > 0.0)
    else:
        # Probe mode (edge refinement tracks phi_d only).
        stable = np.zeros(phis.shape, dtype=bool)

    points: list[LockRangePoint | None] = []
    for j in range(phis.size):
        if not valid[j]:
            points.append(None)
            continue
        points.append(
            LockRangePoint(
                phi=float(phis[j]),
                amplitude=float(amplitudes[j]),
                phi_d=float(phi_d[j]),
                w_i=float(w_i[j]),
                stable=bool(stable[j]),
            )
        )
    return points


def _refine_extremum(
    df: TwoToneDF,
    tank: Tank,
    phi_lo: float,
    phi_hi: float,
    a_seed: float,
    a_window: tuple[float, float],
    sign: float,
    *,
    tol: float = 1e-10,
    evaluate=None,
) -> LockRangePoint | None:
    """Golden-section maximisation of ``sign * phi_d`` along the curve."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    cache: dict[float, LockRangePoint | None] = {}

    def point_at(phi: float, with_stability: bool = False) -> LockRangePoint | None:
        if evaluate is None:
            return _point_at_phi(df, tank, phi, a_seed, a_window)
        return _points_at_phis_batched(
            df,
            tank,
            evaluate,
            np.array([phi]),
            np.array([a_seed]),
            a_window,
            with_stability=with_stability,
        )[0]

    def value(phi: float) -> float:
        if phi not in cache:
            cache[phi] = point_at(phi)
        point = cache[phi]
        if point is None:
            return -np.inf
        return sign * point.phi_d

    a, b = float(phi_lo), float(phi_hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(80):
        if abs(b - a) < tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value(d)
    best_phi = c if fc > fd else d
    # Final point carries the full stability verdict (probes skip it).
    return point_at(best_phi, with_stability=True)


def predict_lock_range(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    n: int,
    amplitude_window: tuple[float, float] | None = None,
    n_a: int = 121,
    n_phi: int = 241,
    n_samples: int = DEFAULT_SAMPLES,
    method: str = "fft",
    df: TwoToneDF | None = None,
) -> LockRange:
    """Predict the n-th sub-harmonic lock range — one pass, no iteration.

    Parameters
    ----------
    nonlinearity, tank:
        The oscillator.
    v_i:
        Injection phasor magnitude, volts.
    n:
        Sub-harmonic order.
    amplitude_window:
        Search window for A; defaults to 0.3x..1.4x the natural amplitude.
    n_a, n_phi:
        Grid resolution for the invariant-curve extraction.  The final
        limits are refined to sub-grid accuracy, so moderate grids
        suffice.
    n_samples:
        Fourier quadrature resolution.
    method:
        ``"fft"`` (default): FFT-factorised pre-characterisation plus the
        batched curve solver — every ``I_1`` query after the surface build
        costs zero nonlinearity calls.  ``"dense"``: the direct-quadrature
        referee path (scalar solves, exact ``I_1`` everywhere) kept as the
        ablation baseline; both methods agree to solver tolerance on
        smooth laws.
    df:
        A pre-built :class:`~repro.core.two_tone.TwoToneDF` to reuse
        instead of constructing one — the sweep engine's amortisation
        seam.  Must match ``(v_i, n, n_samples, method)`` exactly; an
        adopted surface on the injected instance makes the solve bitwise
        identical to the scalar path while skipping the FFT build.

    Raises
    ------
    NoLockError
        When no stable lock exists at any frequency (injection too weak to
        produce a lockable phase rotation).
    """
    check_positive("v_i", v_i)
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    if method not in ("fft", "dense"):
        raise ValueError(f"method must be 'fft' or 'dense', got {method!r}")
    with trace(
        "lockrange",
        attrs={"n": n, "v_i": v_i, "method": method, "n_a": n_a, "n_phi": n_phi},
    ) as sp:
        tank_r = tank.peak_resistance
        if amplitude_window is None:
            natural = predict_natural_oscillation(
                nonlinearity, tank, n_samples=n_samples
            )
            amplitude_window = (0.3 * natural.amplitude, 1.4 * natural.amplitude)
        a_lo, a_hi = amplitude_window
        check_positive("amplitude_window[0]", a_lo)

        if df is None:
            df = TwoToneDF(nonlinearity, v_i, n, n_samples=n_samples, method=method)
        else:
            mismatches = [
                name
                for name, have, want in (
                    ("v_i", df.v_i, v_i),
                    ("n", df.n, n),
                    ("n_samples", df.n_samples, n_samples),
                    ("method", df.method, method),
                )
                if have != want
            ]
            if mismatches:
                raise ValueError(
                    "injected df does not match the requested solve: "
                    + ", ".join(
                        f"{name}={getattr(df, name)!r} != {want!r}"
                        for name, want in (
                            ("v_i", v_i),
                            ("n", n),
                            ("n_samples", n_samples),
                            ("method", method),
                        )
                        if name in mismatches
                    )
                )
        amplitudes = np.linspace(a_lo, a_hi, n_a)
        # Half-cell offset keeps symmetric-nonlinearity zero lines off the
        # sampling columns (see solve_lock_states).
        half_cell = np.pi / (n_phi - 1)
        phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, n_phi)
        grid = df.characterize(amplitudes, phis, tank_r)
        with trace("curve-extraction"):
            tf_curves = extract_level_curves(grid, "tf", 1.0)
        if not tf_curves:
            raise NoLockError(
                "the T_f = 1 curve does not exist in the amplitude window; "
                "check that the oscillator sustains oscillation at this V_i"
            )

        evaluate = df.i1_evaluator(amplitudes, phis) if method == "fft" else None
        samples: list[LockRangePoint] = []
        with trace("curve-solve"):
            if evaluate is not None:
                curve_phis = np.concatenate(
                    [np.asarray(c.x, dtype=float) for c in tf_curves]
                )
                curve_seeds = np.concatenate(
                    [np.asarray(c.y, dtype=float) for c in tf_curves]
                )
                for point in _points_at_phis_batched(
                    df, tank, evaluate, curve_phis, curve_seeds, amplitude_window
                ):
                    if point is not None:
                        samples.append(point)
            else:
                for curve in tf_curves:
                    for j in range(len(curve)):
                        point = _point_at_phi(
                            df,
                            tank,
                            float(curve.x[j]),
                            float(curve.y[j]),
                            amplitude_window,
                        )
                        if point is not None:
                            samples.append(point)
        sp.set(samples=len(samples))
        metrics.inc("lockrange.solves", method=method)
        stable = [p for p in samples if p.stable]
        if not stable:
            raise NoLockError(
                "no stable lock state exists on the T_f = 1 curve for this "
                "injection"
            )

        # Extremal stable tank phases -> lock-range edges; refine around each.
        def refine_edge(sign: float) -> LockRangePoint:
            best = max(stable, key=lambda p: sign * p.phi_d)
            neighbours = sorted(
                samples, key=lambda p: abs(np.angle(np.exp(1j * (p.phi - best.phi))))
            )[:5]
            phi_lo = min(p.phi for p in neighbours)
            phi_hi = max(p.phi for p in neighbours)
            if phi_hi - phi_lo < 1e-12:
                return best
            refined = _refine_extremum(
                df,
                tank,
                phi_lo,
                phi_hi,
                best.amplitude,
                amplitude_window,
                sign,
                evaluate=evaluate,
            )
            if refined is None or sign * refined.phi_d < sign * best.phi_d:
                return best
            return refined

        with trace("edge-refine"):
            edge_low = refine_edge(+1.0)  # largest positive phi_d -> lowest freq
            edge_high = refine_edge(-1.0)  # most negative phi_d -> highest freq

        return LockRange(
            n=n,
            v_i=v_i,
            injection_lower=n * edge_low.w_i,
            injection_upper=n * edge_high.w_i,
            phi_d_at_lower=edge_low.phi_d,
            phi_d_at_upper=edge_high.phi_d,
            amplitude_at_lower=edge_low.amplitude,
            amplitude_at_upper=edge_high.amplitude,
            samples=sorted(samples, key=lambda p: p.phi),
        )


def lock_range_by_frequency_scan(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    n: int,
    rel_span: float = 0.05,
    rel_tol: float = 1e-6,
    **solver_kwargs,
) -> LockRange:
    """Naive lock range: bisection over frequency with a full solve per probe.

    This is the "binary search over different frequencies" the paper
    describes for simulation-based lock-range extraction, applied to the
    predictor instead — kept as the ablation baseline for the
    invariant-curve shortcut (ABL / design-choice 2 in DESIGN.md).
    """
    check_positive("rel_span", rel_span)
    w_c = tank.center_frequency

    def locked(w_i: float) -> bool:
        solution = solve_lock_states(
            nonlinearity,
            tank,
            v_i=v_i,
            w_injection=n * w_i,
            n=n,
            **solver_kwargs,
        )
        return solution.locked

    if not locked(w_c):
        raise NoLockError("no stable lock even at the tank centre frequency")

    def edge(direction: float) -> float:
        inner = w_c
        outer = w_c * (1.0 + direction * rel_span)
        if locked(outer):
            raise NoLockError(
                f"lock persists at the scan edge {outer:g} rad/s; "
                "increase rel_span"
            )
        while (abs(outer - inner) / w_c) > rel_tol:
            mid = 0.5 * (inner + outer)
            if locked(mid):
                inner = mid
            else:
                outer = mid
        return 0.5 * (inner + outer)

    w_low = edge(-1.0)
    w_high = edge(+1.0)
    return LockRange(
        n=int(n),
        v_i=v_i,
        injection_lower=n * w_low,
        injection_upper=n * w_high,
        phi_d_at_lower=float(tank.phase(np.asarray(w_low))),
        phi_d_at_upper=float(tank.phase(np.asarray(w_high))),
        amplitude_at_lower=float("nan"),
        amplitude_at_upper=float("nan"),
    )
