"""Grid containers and bracketing helpers used by the graphical procedure.

The graphical SHIL technique evaluates describing-function surfaces over a
rectangular ``(phi, A)`` grid and then extracts level sets.  ``Grid2D`` holds
the axes plus any number of named sampled surfaces, and offers bilinear
interpolation so downstream code (curve extraction, stability slopes) never
re-derives indexing arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_monotonic, check_positive

__all__ = ["Grid2D", "brentq_lanes", "linear_grid", "log_grid", "refine_bracket"]


def linear_grid(low: float, high: float, n: int) -> np.ndarray:
    """Uniform 1-D grid with at least two points.

    A named wrapper around :func:`numpy.linspace` that validates the inputs
    the way the rest of the library expects.
    """
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if not high > low:
        raise ValueError(f"grid requires high > low, got [{low}, {high}]")
    return np.linspace(low, high, n)


def log_grid(low: float, high: float, n: int) -> np.ndarray:
    """Logarithmic 1-D grid, used for frequency sweeps (AC analysis)."""
    check_positive("low", low)
    check_positive("high", high)
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    if not high > low:
        raise ValueError(f"grid requires high > low, got [{low}, {high}]")
    return np.logspace(np.log10(low), np.log10(high), n)


@dataclass
class Grid2D:
    """A rectangular grid over ``(x, y)`` with named sampled surfaces.

    Conventions follow the paper's plots: ``x`` is the phase variable
    ``phi`` and ``y`` is the amplitude ``A``.  Surfaces are stored with
    shape ``(len(y), len(x))`` — row index varies ``y`` — matching
    ``numpy.meshgrid(x, y)`` output.

    Parameters
    ----------
    x, y:
        Strictly increasing axis vectors.
    surfaces:
        Mapping from surface name to a 2-D array of samples.
    """

    x: np.ndarray
    y: np.ndarray
    surfaces: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.x = check_monotonic("x", self.x)
        self.y = check_monotonic("y", self.y)
        for name, surface in self.surfaces.items():
            self._check_surface(name, surface)

    def _check_surface(self, name: str, surface: np.ndarray) -> np.ndarray:
        surface = np.asarray(surface)
        expected = (self.y.size, self.x.size)
        if surface.shape != expected:
            raise ValueError(
                f"surface {name!r} has shape {surface.shape}, expected {expected}"
            )
        return surface

    def add_surface(self, name: str, surface: np.ndarray) -> None:
        """Attach a sampled surface; shape must be ``(len(y), len(x))``."""
        self.surfaces[name] = self._check_surface(name, surface)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``X, Y`` meshes with the same shape as the surfaces."""
        return np.meshgrid(self.x, self.y)

    def interpolate(self, name: str, x: float, y: float) -> float:
        """Bilinear interpolation of surface ``name`` at a point.

        Points outside the grid are clamped to the boundary — callers that
        care about extrapolation should test bounds themselves.
        """
        surface = self.surfaces[name]
        xi = np.clip(np.searchsorted(self.x, x) - 1, 0, self.x.size - 2)
        yi = np.clip(np.searchsorted(self.y, y) - 1, 0, self.y.size - 2)
        x0, x1 = self.x[xi], self.x[xi + 1]
        y0, y1 = self.y[yi], self.y[yi + 1]
        tx = np.clip((x - x0) / (x1 - x0), 0.0, 1.0)
        ty = np.clip((y - y0) / (y1 - y0), 0.0, 1.0)
        z00 = surface[yi, xi]
        z01 = surface[yi, xi + 1]
        z10 = surface[yi + 1, xi]
        z11 = surface[yi + 1, xi + 1]
        return float(
            z00 * (1 - tx) * (1 - ty)
            + z01 * tx * (1 - ty)
            + z10 * (1 - tx) * ty
            + z11 * tx * ty
        )

    def gradient(self, name: str, x: float, y: float) -> tuple[float, float]:
        """Central-difference gradient ``(dz/dx, dz/dy)`` at a point."""
        hx = float(np.min(np.diff(self.x)))
        hy = float(np.min(np.diff(self.y)))
        zxp = self.interpolate(name, x + hx, y)
        zxm = self.interpolate(name, x - hx, y)
        zyp = self.interpolate(name, x, y + hy)
        zym = self.interpolate(name, x, y - hy)
        return (zxp - zxm) / (2 * hx), (zyp - zym) / (2 * hy)


def refine_bracket(
    func,
    low: float,
    high: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Bisection root refinement on a bracketing interval.

    ``func(low)`` and ``func(high)`` must have opposite signs.  Used for the
    final polish of describing-function intersections and the lock-range
    boundary, where robustness matters more than the quadratic convergence
    of Newton (the surfaces are only piecewise-smooth after tabulation).
    """
    f_low = func(low)
    f_high = func(high)
    if f_low == 0.0:
        return low
    if f_high == 0.0:
        return high
    if np.sign(f_low) == np.sign(f_high):
        raise ValueError(
            f"refine_bracket requires a sign change: f({low})={f_low}, "
            f"f({high})={f_high}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (low + high)
        f_mid = func(mid)
        if f_mid == 0.0 or (high - low) < tol * max(1.0, abs(mid)):
            return mid
        if np.sign(f_mid) == np.sign(f_low):
            low, f_low = mid, f_mid
        else:
            high, f_high = mid, f_mid
    return 0.5 * (low + high)


def brentq_lanes(
    func,
    xa: np.ndarray,
    xb: np.ndarray,
    fa: np.ndarray,
    fb: np.ndarray,
    *,
    xtol: float = 2e-12,
    rtol: float = 8.9e-16,
    maxiter: int = 100,
) -> np.ndarray:
    """Brent's method on many independent brackets in lockstep: one root per lane.

    Lane ``i`` solves its own equation on ``[xa[i], xb[i]]``, whose end
    values ``fa[i]``, ``fb[i]`` the caller already holds (so they are not
    evaluated again).  ``func(x, lanes)`` returns the residuals of the
    lanes ``lanes`` (index array into the inputs) at ``x``; every round
    makes one such call for the lanes still open, and converged lanes drop
    out.

    Each lane runs :func:`scipy.optimize.brentq`'s loop statement for
    statement (:func:`_brent_step`) in Python floats — IEEE doubles, as
    in scipy's C — so every lane returns bitwise the root ``brentq``
    returns for it with the same tolerances.  The lane state stays in
    floats rather than numpy lane arrays because a step is a few dozen
    scalar operations: on the handful of lanes a lock solve has, one numpy
    operation costs about as much as a whole scalar step.  Like
    ``brentq`` it raises ``ValueError`` on a bracket without a sign change
    or a NaN residual, and ``RuntimeError`` when a lane has not converged
    after ``maxiter`` rounds.
    """
    roots = np.empty(len(xa))
    open_: dict[int, list[float]] = {}
    ends = np.asarray([xa, xb, fa, fb], dtype=float).T.tolist()
    for lane, (xpre, xcur, fpre, fcur) in enumerate(ends):
        if fpre != fpre or fcur != fcur:
            raise ValueError("brentq_lanes: residual is NaN at a bracket end")
        if fpre == 0.0:
            roots[lane] = xpre
        elif fcur == 0.0:
            roots[lane] = xcur
        elif (fpre < 0.0) == (fcur < 0.0):
            raise ValueError(
                "brentq_lanes: f(a) and f(b) must have different signs"
            )
        else:
            open_[lane] = [xpre, xcur, 0.0, fpre, fcur, 0.0, 0.0, 0.0]
    for _ in range(maxiter):
        for lane, state in list(open_.items()):
            if _brent_step(state, xtol, rtol):
                roots[lane] = state[1]
                del open_[lane]
        if not open_:
            return roots
        values = func(
            np.array([state[1] for state in open_.values()]), np.array(list(open_))
        )
        values = np.asarray(values, dtype=float).tolist()
        for state, value in zip(open_.values(), values):
            if value != value:
                raise ValueError("brentq_lanes: residual is NaN")
            state[4] = value
    if open_:
        raise RuntimeError(
            f"brentq_lanes: failed to converge after {maxiter} iterations"
        )
    return roots


def _brent_step(state: list[float], xtol: float, rtol: float) -> bool:
    """One pass of scipy's ``brentq`` loop body on one lane's state.

    ``state`` is ``[xpre, xcur, xblk, fpre, fcur, fblk, spre, scur]`` with
    ``fcur`` the residual at ``xcur``.  Returns True when the lane has
    converged (its root is ``state[1]``); otherwise moves ``xcur`` to the
    next abscissa to evaluate.  Nonzero ``fpre``/``fcur`` make the sign
    tests ``< 0`` equal to C's ``signbit``; a division by zero, which C
    turns into an infinite or NaN trial step, fails the step test and
    bisects here too.
    """
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
    if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
        xblk, fblk = xpre, fpre
        spre = scur = xcur - xpre
    if abs(fblk) < abs(fcur):
        xpre, xcur, xblk = xcur, xblk, xcur
        fpre, fcur, fblk = fcur, fblk, fcur
    delta = (xtol + rtol * abs(xcur)) / 2
    sbis = (xblk - xcur) / 2
    if fcur == 0.0 or abs(sbis) < delta:
        state[1] = xcur
        return True
    if abs(spre) > delta and abs(fcur) < abs(fpre):
        try:
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (
                    -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                )
        except ZeroDivisionError:
            stry = math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
    else:
        spre = scur = sbis
    xpre, fpre = xcur, fcur
    if abs(scur) > delta:
        xcur += scur
    else:
        xcur += delta if sbis > 0 else -delta
    state[:] = [xpre, xcur, xblk, fpre, fcur, fblk, spre, scur]
    return False
