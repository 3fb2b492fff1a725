"""Tabulated nonlinearity built from DC-sweep samples.

This is the object the paper's tool actually operates on for real circuits:
the ``i = f(v)`` curve of Fig. 12a / Fig. 16b is a table of (voltage,
current) points produced by a DC sweep, and every later describing-function
evaluation interpolates it.

We use a monotone piecewise-cubic (PCHIP) interpolant: it is smooth enough
for the Fourier quadrature, never overshoots between samples (overshoot can
invent spurious negative-resistance wiggles), and its derivative is
available analytically for Newton solvers.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from repro.nonlin.base import CompiledLaw, Nonlinearity
from repro.utils.validation import check_finite, check_monotonic, check_shape_match

__all__ = ["TabulatedNonlinearity", "LinearTableNonlinearity"]


class LinearTableNonlinearity(Nonlinearity):
    """Dense linear-interpolation table — the transient-simulation fast path.

    ``np.interp`` is several times cheaper per call than a PCHIP
    evaluation, which matters in the RK4 hot loop (millions of ``f``
    evaluations per transient).  Build it from any nonlinearity with
    :meth:`from_nonlinearity`; with a dense enough table the interpolation
    error is far below the describing-function tolerance, and using the
    *same* object for prediction and simulation keeps the two sides of a
    validation exactly consistent.
    """

    def __init__(self, v: np.ndarray, i: np.ndarray, name: str = "lintable"):
        v = check_monotonic("v", np.asarray(v, dtype=float))
        i = check_finite("i", np.asarray(i, dtype=float))
        check_shape_match("v", v, "i", i)
        if v.size < 2:
            raise ValueError("need at least 2 samples")
        self._v = v
        self._i = i
        self._slope_lo = (i[1] - i[0]) / (v[1] - v[0])
        self._slope_hi = (i[-1] - i[-2]) / (v[-1] - v[-2])
        self.name = name

    @classmethod
    def from_nonlinearity(
        cls,
        source: Nonlinearity,
        v_min: float,
        v_max: float,
        n: int = 4097,
    ) -> "LinearTableNonlinearity":
        """Sample any nonlinearity into a dense linear table."""
        v = np.linspace(float(v_min), float(v_max), int(n))
        return cls(v, np.asarray(source(v), dtype=float), name=f"lin({source.name})")

    @property
    def domain(self) -> tuple[float, float]:
        """Sampled voltage window ``(v_min, v_max)``."""
        return float(self._v[0]), float(self._v[-1])

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        # np.interp returns a NumPy scalar for 0-d input; the masked
        # assignments below need an array.
        out = np.asarray(np.interp(v, self._v, self._i))
        # Linear extrapolation beyond the table (np.interp clamps), on the
        # out-of-table points only: most drive grids never leave the table.
        lo, hi = self._v[0], self._v[-1]
        below = v < lo
        above = v > hi
        out[below] = self._i[0] + self._slope_lo * (v[below] - lo)
        out[above] = self._i[-1] + self._slope_hi * (v[above] - hi)
        return out

    def derivative(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        h = self._v[1] - self._v[0]
        return (self(v + 0.5 * h) - self(v - 0.5 * h)) / h

    def compiled_law(self) -> CompiledLaw:
        # Knots and currents travel as arrays; the kernel does the same
        # bracketed linear interpolation with end-slope extrapolation.
        return CompiledLaw(
            kind="table",
            params=(float(self._slope_lo), float(self._slope_hi)),
            arrays=(self._v, self._i),
        )


class TabulatedNonlinearity(Nonlinearity):
    """Interpolated ``i = f(v)`` from sampled points.

    Parameters
    ----------
    v, i:
        Sample vectors; ``v`` must be strictly increasing.
    extrapolation:
        ``"linear"`` (default) extends the end slopes beyond the sampled
        window — physically sensible for saturating device curves;
        ``"clamp"`` holds the end values; ``"raise"`` rejects out-of-range
        evaluation, useful to catch analyses that wander outside the
        characterised region.
    name:
        Identifier for reports.
    """

    _MODES = ("linear", "clamp", "raise")

    def __init__(
        self,
        v: np.ndarray,
        i: np.ndarray,
        *,
        extrapolation: str = "linear",
        name: str = "tabulated",
    ):
        v = check_monotonic("v", np.asarray(v, dtype=float))
        i = check_finite("i", np.asarray(i, dtype=float))
        check_shape_match("v", v, "i", i)
        if v.size < 4:
            raise ValueError(f"need at least 4 samples for PCHIP, got {v.size}")
        if extrapolation not in self._MODES:
            raise ValueError(
                f"extrapolation must be one of {self._MODES}, got {extrapolation!r}"
            )
        self._v = v
        self._i = i
        self._mode = extrapolation
        self._interp = PchipInterpolator(v, i, extrapolate=False)
        self._dinterp = self._interp.derivative()
        # End slopes for linear extrapolation.
        self._slope_lo = float(self._dinterp(v[0]))
        self._slope_hi = float(self._dinterp(v[-1]))
        self.name = name

    @property
    def v_samples(self) -> np.ndarray:
        """The voltage sample vector (read-only view)."""
        view = self._v.view()
        view.flags.writeable = False
        return view

    @property
    def i_samples(self) -> np.ndarray:
        """The current sample vector (read-only view)."""
        view = self._i.view()
        view.flags.writeable = False
        return view

    @property
    def domain(self) -> tuple[float, float]:
        """Sampled voltage window ``(v_min, v_max)``."""
        return float(self._v[0]), float(self._v[-1])

    def __call__(self, v: np.ndarray) -> np.ndarray:
        scalar = np.isscalar(v) or np.ndim(v) == 0
        v = np.atleast_1d(np.asarray(v, dtype=float))
        lo, hi = self.domain
        below = v < lo
        above = v > hi
        if self._mode == "raise" and (below.any() or above.any()):
            raise ValueError(
                f"evaluation outside characterised window [{lo}, {hi}] "
                f"for {self.name!r}"
            )
        out = self._interp(np.clip(v, lo, hi))
        if self._mode == "linear":
            out = np.where(below, self._i[0] + self._slope_lo * (v - lo), out)
            out = np.where(above, self._i[-1] + self._slope_hi * (v - hi), out)
        return float(out[0]) if scalar else out

    def derivative(self, v: np.ndarray) -> np.ndarray:
        scalar = np.isscalar(v) or np.ndim(v) == 0
        v = np.atleast_1d(np.asarray(v, dtype=float))
        lo, hi = self.domain
        below = v < lo
        above = v > hi
        if self._mode == "raise" and (below.any() or above.any()):
            raise ValueError(
                f"evaluation outside characterised window [{lo}, {hi}] "
                f"for {self.name!r}"
            )
        out = self._dinterp(np.clip(v, lo, hi))
        if self._mode == "linear":
            out = np.where(below, self._slope_lo, out)
            out = np.where(above, self._slope_hi, out)
        elif self._mode == "clamp":
            out = np.where(below | above, 0.0, out)
        return float(out[0]) if scalar else out

    def max_abs_error_against(self, reference: Nonlinearity, n: int = 1001) -> float:
        """Worst-case |table - reference| over the sampled window.

        Convenience for validating an extracted table against a closed-form
        device law (used heavily by the test-suite).
        """
        lo, hi = self.domain
        grid = np.linspace(lo, hi, n)
        return float(np.max(np.abs(self(grid) - reference(grid))))

    def resampled_linear(self, n: int = 4097) -> "LinearTableNonlinearity":
        """Dense linear-table view for transient hot loops (see
        :class:`LinearTableNonlinearity`)."""
        lo, hi = self.domain
        return LinearTableNonlinearity.from_nonlinearity(self, lo, hi, n)
