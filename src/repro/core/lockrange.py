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
involve many iterations ... but finds solutions in exactly one pass".
:func:`predict_lock_ranges` takes that pass for a whole ``V_i`` set (a
tongue map's rows) and refines every edge of the set in lockstep, one
evaluator call per iteration for all of them.  The walk does not depend on
how ``I_1`` is evaluated: ``method`` only picks the evaluator the one
solver runs on (FFT surface or exact quadrature).  The
naive alternative (bisection over frequency, one full lock-state solve per
probe) is also provided for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.curves import extract_level_curves
from repro.core.describing_function import DEFAULT_SAMPLES
from repro.core.natural import lock_grid
from repro.core.shil import solve_lock_states
from repro.core.two_tone import SurfaceStack, TwoToneDF
from repro.nonlin.base import Nonlinearity
from repro.obs import metrics, trace
from repro.robust.diagnostics import record_fault
from repro.robust.faults import SolveFault
from repro.tank.base import PhaseInversionError, Tank
from repro.utils.grids import brentq_lanes
from repro.utils.validation import check_positive

__all__ = [
    "LockRangePoint",
    "LockRange",
    "predict_lock_range",
    "predict_lock_ranges",
    "lock_range_by_frequency_scan",
]

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


def _solve_amplitudes(
    residual, seeds: np.ndarray, a_window: tuple[float, float]
) -> np.ndarray:
    """Solve ``residual(a, points) = 0`` in A near each point's seed.

    The one root search of the lock solve, for curve points and edge
    probes alike.  Each seed's bracket ``seed +- 5 %`` of the window widens
    up to six times; a widening re-evaluates only the points still without
    a sign change (both ends in one call).  Then Brent runs in lockstep
    over the bracketed points (:func:`~repro.utils.grids.brentq_lanes`),
    reusing the bracket residuals.  Unbracketed points come back as NaN.
    """
    lo, hi = a_window
    span = 0.05 * (hi - lo)
    a_lo = np.maximum(lo, seeds - span)
    a_hi = np.minimum(hi, seeds + span)
    everyone = np.arange(seeds.size)
    r_lo, r_hi = np.split(
        residual(np.concatenate([a_lo, a_hi]), np.concatenate([everyone, everyone])), 2
    )
    for _ in range(6):
        grow = (np.sign(r_lo) == np.sign(r_hi)) & ~((a_lo <= lo) & (a_hi >= hi))
        if not grow.any():
            break
        g = np.nonzero(grow)[0]
        a_lo[g] = np.maximum(lo, a_lo[g] - span)
        a_hi[g] = np.minimum(hi, a_hi[g] + span)
        r_lo[g], r_hi[g] = np.split(
            residual(np.concatenate([a_lo[g], a_hi[g]]), np.concatenate([g, g])), 2
        )
    points = np.nonzero(np.sign(r_lo) != np.sign(r_hi))[0]
    solution = np.full(seeds.size, np.nan)
    solution[points] = brentq_lanes(
        lambda a, lanes: residual(a, points[lanes]),
        a_lo[points],
        a_hi[points],
        r_lo[points],
        r_hi[points],
        xtol=1e-13,
        rtol=8.9e-16,
    )
    return solution


def _curve_points(
    stack: SurfaceStack,
    members: np.ndarray,
    tank: Tank,
    n: int,
    phis: np.ndarray,
    seeds: np.ndarray,
    a_window: tuple[float, float],
    *,
    with_stability: bool,
):
    """Solve many points of the invariant ``T_f = 1`` curve as lock states.

    Point ``p`` lies on member ``members[p]`` of ``stack`` at abscissa
    ``phis[p]``, seeded at amplitude ``seeds[p]``.  The amplitude solve
    (:func:`_solve_amplitudes`), ``phi_d = -angle(-I_1)`` and the stability
    Jacobian all run batched through ``stack``, whatever evaluates its
    members' ``I_1`` (an FFT surface, a dense-grid spline or the exact
    quadrature); only the (cheap, analytic) tank phase inversion stays per
    point.  The stability rule is the eigenvalue criterion of
    :func:`~repro.core.stability.classify_by_jacobian`, expressed as
    ``trace < 0 and det > 0`` — equivalent for a real 2x2 system.  Returns
    the arrays
    ``(amplitudes, phi_d, w_i, valid, stable)``.
    """
    tank_r = tank.peak_resistance
    at_phis = stack.bind(phis, members)

    def residual(a: np.ndarray, points: np.ndarray) -> np.ndarray:
        i1x = np.real(at_phis(a, points))
        return -tank_r * i1x / (a / 2.0) - 1.0

    amplitudes = _solve_amplitudes(residual, seeds, a_window)
    valid = np.isfinite(amplitudes)
    safe_a = np.where(valid, amplitudes, 1.0)

    phi_d = -np.angle(-at_phis(safe_a))
    valid &= np.abs(phi_d) < _PHI_D_LIMIT

    w_i = np.full(phis.shape, np.nan)
    for j in np.nonzero(valid)[0]:
        try:
            w_i[j] = tank.frequency_for_phase(float(phi_d[j]))
        except PhaseInversionError as exc:
            # The point exists on the invariant curve but no operating
            # frequency realises its tank phase: drop it, but leave a trace.
            record_fault(
                SolveFault(
                    "phase-inversion-out-of-range",
                    "lock-range",
                    str(exc),
                    context={"phi": float(phis[j]), "phi_d": float(phi_d[j])},
                )
            )
            valid[j] = False

    if not with_stability:
        # Probe mode (edge refinement tracks phi_d only).
        return amplitudes, phi_d, w_i, valid, np.zeros(phis.shape, dtype=bool)
    # Batched finite-difference Jacobian of the slow flow (same stencil
    # as SlowFlow.jacobian: central differences, rel_step 1e-5).
    tank_c = tank.effective_capacitance()
    tan_phi_d = np.tan(phi_d)

    def rhs(a: np.ndarray, at) -> tuple[np.ndarray, np.ndarray]:
        i1_ap = at(a)
        tf = -tank_r * np.real(i1_ap) / (a / 2.0)
        da = a / (2.0 * tank_r * tank_c) * (tf - 1.0)
        dphi = n / (2.0 * tank_c) * (2.0 * np.imag(i1_ap) / a - tan_phi_d / tank_r)
        return da, dphi

    rel_step = 1e-5
    h_a = rel_step * safe_a
    h_p = rel_step * 2.0 * np.pi
    fa_p = rhs(safe_a + h_a, at_phis)
    fa_m = rhs(safe_a - h_a, at_phis)
    fp_p = rhs(safe_a, stack.bind(phis + h_p, members))
    fp_m = rhs(safe_a, stack.bind(phis - h_p, members))
    j00 = (fa_p[0] - fa_m[0]) / (2.0 * h_a)
    j01 = (fp_p[0] - fp_m[0]) / (2.0 * h_p)
    j10 = (fa_p[1] - fa_m[1]) / (2.0 * h_a)
    j11 = (fp_p[1] - fp_m[1]) / (2.0 * h_p)
    stable = (j00 + j11 < 0.0) & (j00 * j11 - j01 * j10 > 0.0)
    return amplitudes, phi_d, w_i, valid, stable


def _as_points(phis: np.ndarray, arrays) -> list[LockRangePoint | None]:
    """:func:`_curve_points` arrays as one point (or None) per abscissa."""
    amplitudes, phi_d, w_i, valid, stable = arrays
    return [
        LockRangePoint(
            phi=float(phis[j]),
            amplitude=float(amplitudes[j]),
            phi_d=float(phi_d[j]),
            w_i=float(w_i[j]),
            stable=bool(stable[j]),
        )
        if valid[j]
        else None
        for j in range(phis.size)
    ]


def _golden_section(phi_lo, phi_hi, probe, *, tol: float = 1e-10) -> np.ndarray:
    """Golden-section maximisation on every lane at once.

    Lane ``l`` maximises ``probe(phi, l)`` over ``[phi_lo[l], phi_hi[l]]``
    with a scalar golden-section search's own arithmetic and 80-step cap;
    each round asks ``probe(phis, lanes)`` for the one new abscissa of
    every lane still open.  Returns the best abscissa per lane.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.array(phi_lo, dtype=float)
    b = np.array(phi_hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    everyone = np.arange(a.size)
    fc, fd = np.split(
        probe(np.concatenate([c, d]), np.concatenate([everyone, everyone])), 2
    )
    active = everyone
    for _ in range(80):
        active = active[~(np.abs(b[active] - a[active]) < tol)]
        if not active.size:
            break
        left = fc[active] > fd[active]
        lo, hi = active[left], active[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - invphi * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + invphi * (b[hi] - a[hi])
        fc[lo], fd[hi] = np.split(
            probe(np.concatenate([c[lo], d[hi]]), np.concatenate([lo, hi])), [lo.size]
        )
    return np.where(fc > fd, c, d)


@dataclass(frozen=True)
class _Lane:
    """One lock-range edge of one ``V_i`` to refine: the extremum of
    ``sign * phi_d`` near the best stable sample, inside ``[phi_lo, phi_hi]``."""

    member: int
    sign: float
    best: LockRangePoint
    phi_lo: float
    phi_hi: float


def _edge_lanes(member: int, samples, stable) -> list[_Lane | LockRangePoint]:
    """Both edges of one solved curve: a lane to refine, or the best
    sample itself when its neighbourhood has collapsed to a point."""
    edges: list[_Lane | LockRangePoint] = []
    # +1: largest positive phi_d -> lowest freq; -1: most negative -> highest.
    for sign in (+1.0, -1.0):
        best = max(stable, key=lambda p: sign * p.phi_d)
        neighbours = sorted(
            samples, key=lambda p: abs(np.angle(np.exp(1j * (p.phi - best.phi))))
        )[:5]
        phi_lo = min(p.phi for p in neighbours)
        phi_hi = max(p.phi for p in neighbours)
        if phi_hi - phi_lo < 1e-12:
            edges.append(best)
        else:
            edges.append(_Lane(member, sign, best, phi_lo, phi_hi))
    return edges


def _refine_lanes(
    lanes: list[_Lane],
    sources: dict,
    tank: Tank,
    n: int,
    a_window: tuple[float, float],
) -> list[LockRangePoint]:
    """Refine every lane's edge in lockstep; one evaluator call per round.

    Every probe and the final stability points of all lanes go through one
    :class:`~repro.core.two_tone.SurfaceStack` over the lanes' ``V_i``
    sources.  A refined edge replaces the lane's best sample only when it
    moves the edge outward.
    """
    if not lanes:
        return []
    signs = np.array([lane.sign for lane in lanes])
    seeds = np.array([lane.best.amplitude for lane in lanes])
    alive = sorted({lane.member for lane in lanes})
    stack = SurfaceStack([sources[j] for j in alive])
    members = np.array([alive.index(lane.member) for lane in lanes])

    def solve(phis, lanes_at, *, with_stability=False):
        return _curve_points(
            stack,
            members[lanes_at],
            tank,
            n,
            phis,
            seeds[lanes_at],
            a_window,
            with_stability=with_stability,
        )

    def probe(phis, lanes_at):
        _, phi_d, _, valid, _ = solve(phis, lanes_at)
        return np.where(valid, signs[lanes_at] * phi_d, -np.inf)

    best_phis = _golden_section(
        [lane.phi_lo for lane in lanes], [lane.phi_hi for lane in lanes], probe
    )
    refined = _as_points(
        best_phis, solve(best_phis, np.arange(len(lanes)), with_stability=True)
    )
    return [
        lane.best
        if point is None or lane.sign * point.phi_d < lane.sign * lane.best.phi_d
        else point
        for lane, point in zip(lanes, refined)
    ]


def _solve_curve(
    df: TwoToneDF,
    tank: Tank,
    amplitudes: np.ndarray,
    phis: np.ndarray,
    a_window: tuple[float, float],
):
    """One ``V_i``'s pass along its invariant curve: characterise, extract
    ``T_f = 1``, solve every vertex.  Returns ``(samples, source)`` —
    ``source`` being the DF's ``I_1`` source (``TwoToneDF.i1_source``) that
    the curve solve ran on and the edge refinement stacks."""
    grid = df.characterize(amplitudes, phis, tank.peak_resistance)
    with trace("curve-extraction"):
        tf_curves = extract_level_curves(grid, "tf", 1.0)
    if not tf_curves:
        raise NoLockError(
            "the T_f = 1 curve does not exist in the amplitude window; "
            "check that the oscillator sustains oscillation at this V_i"
        )
    curve_phis = np.concatenate([np.asarray(c.x, dtype=float) for c in tf_curves])
    curve_seeds = np.concatenate([np.asarray(c.y, dtype=float) for c in tf_curves])
    with trace("curve-solve"):
        source = df.i1_source(amplitudes, phis)
        points = _as_points(
            curve_phis,
            _curve_points(
                SurfaceStack([source]),
                np.zeros(curve_phis.size, dtype=int),
                tank,
                df.n,
                curve_phis,
                curve_seeds,
                a_window,
                with_stability=True,
            ),
        )
    return [p for p in points if p is not None], source


def predict_lock_ranges(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_is,
    n: int,
    amplitude_window: tuple[float, float] | None = None,
    n_a: int = 121,
    n_phi: int = 241,
    n_samples: int = DEFAULT_SAMPLES,
    method: str = "fft",
    dfs: list[TwoToneDF] | None = None,
) -> list[LockRange | Exception]:
    """Predict the n-th sub-harmonic lock range for every ``V_i`` of a set.

    Three phases share one ``(A, phi)`` grid (:func:`~repro.core.natural.lock_grid`):

    1. per ``V_i``: pre-characterise, extract the ``T_f = 1`` curve and
       solve it (:func:`predict_lock_range`'s one pass);
    2. in lockstep: golden-section refinement of both edges of every
       ``V_i`` — each bracket, root and golden-section round makes one
       evaluator call for all open (``V_i``, edge) lanes;
    3. together: the refined edges' stability points, in one call.

    Every lane's arithmetic is elementwise, so each ``V_i``'s answer is
    bitwise what it gets solved alone.  ``dfs`` (one per ``V_i``, as
    :meth:`~repro.core.two_tone.TwoToneDF.batch` builds them for this
    grid) must match ``(v_i, n, n_samples, method)``; they are built with
    ``TwoToneDF.batch`` when omitted.  Other parameters are
    :func:`predict_lock_range`'s.

    Returns one entry per ``V_i``: its :class:`LockRange`, or the
    recoverable exception its solve raised (:class:`NoLockError`, a
    numerical fault) — one failing ``V_i`` never aborts the others.
    """
    from repro.robust.ladder import _recoverable_exceptions

    v_is = [float(v_i) for v_i in v_is]
    for v_i in v_is:
        check_positive("v_i", v_i)
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    n = int(n)
    recoverable = _recoverable_exceptions()
    with trace(
        "lockrange",
        attrs={
            "n": n,
            "v_i": min(v_is, default=0.0),
            "v_is": len(v_is),
            "method": method,
            "n_a": n_a,
            "n_phi": n_phi,
        },
    ) as sp:
        amplitude_window, amplitudes, phis = lock_grid(
            nonlinearity,
            tank,
            n_a=n_a,
            n_phi=n_phi,
            n_samples=n_samples,
            amplitude_window=amplitude_window,
        )
        if dfs is None:
            with trace("characterize", attrs={"v_is": len(v_is)}):
                dfs = TwoToneDF.batch(
                    nonlinearity,
                    v_is,
                    n,
                    amplitudes,
                    n_samples=n_samples,
                    method=method,
                )
        if len(dfs) != len(v_is):
            raise ValueError(f"got {len(dfs)} dfs for {len(v_is)} V_i values")
        for v_i, df in zip(v_is, dfs):
            mismatches = [
                f"{name}={have!r} != {want!r}"
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
                    + ", ".join(mismatches)
                )

        results: list = [None] * len(v_is)
        solved: dict[int, list[LockRangePoint]] = {}
        sources: dict[int, object] = {}
        stable: dict[int, list[LockRangePoint]] = {}
        for j, df in enumerate(dfs):
            try:
                solved[j], sources[j] = _solve_curve(
                    df, tank, amplitudes, phis, amplitude_window
                )
                metrics.inc("lockrange.solves", method=method)
                stable[j] = [p for p in solved[j] if p.stable]
                if not stable[j]:
                    raise NoLockError(
                        "no stable lock state exists on the T_f = 1 curve for "
                        "this injection"
                    )
            except recoverable as exc:
                results[j] = exc
        sp.set(
            samples=sum(len(samples) for samples in solved.values()),
            faults=sum(1 for r in results if r is not None),
        )
        locked = [j for j in stable if stable[j]]
        if not locked:
            return results

        with trace("edge-refine") as refine_sp:
            edges = {j: _edge_lanes(j, solved[j], stable[j]) for j in locked}
            lanes = [e for pair in edges.values() for e in pair if isinstance(e, _Lane)]
            refine_sp.set(lanes=len(lanes))
            refined = iter(
                _refine_lanes(lanes, sources, tank, n, amplitude_window)
            )
        for j, pair in edges.items():
            edge_low, edge_high = (
                next(refined) if isinstance(e, _Lane) else e for e in pair
            )
            results[j] = LockRange(
                n=n,
                v_i=v_is[j],
                injection_lower=n * edge_low.w_i,
                injection_upper=n * edge_high.w_i,
                phi_d_at_lower=edge_low.phi_d,
                phi_d_at_upper=edge_high.phi_d,
                amplitude_at_lower=edge_low.amplitude,
                amplitude_at_upper=edge_high.amplitude,
                samples=sorted(solved[j], key=lambda p: p.phi),
            )
        return results


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

    A batch of one of :func:`predict_lock_ranges`.

    Parameters
    ----------
    nonlinearity, tank:
        The oscillator.
    v_i:
        Injection phasor magnitude, volts.
    n:
        Sub-harmonic order.
    amplitude_window:
        Search window for A; defaults to 0.3x..1.4x the natural amplitude
        (:func:`~repro.core.natural.lock_grid`).
    n_a, n_phi:
        Grid resolution for the invariant-curve extraction.  The final
        limits are refined to sub-grid accuracy, so moderate grids
        suffice.
    n_samples:
        Fourier quadrature resolution.
    method:
        Which ``I_1`` evaluator the one solver runs on.  ``"fft"``
        (default): FFT-factorised pre-characterisation, and every ``I_1``
        query after the surface build costs zero nonlinearity calls.
        ``"dense"``: the direct-quadrature referee — the grid is the full
        quadrature and every solver query is the exact ``I_1``, so it
        checks the pre-characterisation independently; both methods agree
        to solver tolerance on smooth laws.
    df:
        A pre-built :class:`~repro.core.two_tone.TwoToneDF` to solve on,
        passed on as ``predict_lock_ranges(dfs=[df])``; it must match
        ``(v_i, n, n_samples, method)`` exactly (``ValueError`` names any
        mismatch).  The answer is bitwise that of a call without ``df``.
        Nothing in the package passes it (the sweep engine calls
        :func:`predict_lock_ranges`); it stays for callers that stage the
        pipeline themselves, such as the benchmark's decomposed-prediction
        check.

    Raises
    ------
    NoLockError
        When no stable lock exists at any frequency (injection too weak to
        produce a lockable phase rotation).
    """
    (result,) = predict_lock_ranges(
        nonlinearity,
        tank,
        v_is=[v_i],
        n=n,
        amplitude_window=amplitude_window,
        n_a=n_a,
        n_phi=n_phi,
        n_samples=n_samples,
        method=method,
        dfs=None if df is None else [df],
    )
    if isinstance(result, Exception):
        raise result
    return result


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
