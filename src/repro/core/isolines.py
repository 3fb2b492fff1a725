"""Isoline families of the ``angle(-I_1)`` surface (paper Fig. 10).

The paper visualises the lock-range search in 2-D by drawing isolines of
the 3-D surface ``z = angle(-I_1)`` over the ``(phi, A)`` plane together
with the invariant ``T_f = 1`` curve: each isoline is the phase condition
at one tank phase ``phi_d = -z``, so the picture shows at a glance which
detunings still intersect the magnitude curve with a stable crossing.

This module produces that figure's data: the isoline family (each tagged
with its ``phi_d`` and, through the tank, its operating frequency) and the
``T_f = 1`` curve, packaged for the ASCII/matplotlib renderers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.curves import LevelCurve, extract_level_curves
from repro.core.describing_function import DEFAULT_SAMPLES
from repro.core.natural import lock_grid
from repro.core.two_tone import TwoToneDF
from repro.nonlin.base import Nonlinearity
from repro.robust.diagnostics import record_fault
from repro.robust.faults import SolveFault
from repro.tank.base import PhaseInversionError, Tank
from repro.utils.grids import Grid2D
from repro.utils.validation import check_positive

__all__ = ["Isoline", "IsolinePicture", "build_isoline_picture"]


@dataclass(frozen=True)
class Isoline:
    """One isoline of ``angle(-I_1)`` with its physical interpretation.

    Attributes
    ----------
    curves:
        The polyline components of the level set.
    angle:
        The contour level, i.e. ``angle(-I_1)`` on the isoline (radians).
    phi_d:
        The tank phase a lock on this isoline requires (``= -angle``).
    w_i:
        Operating frequency realising ``phi_d``, or ``nan`` when outside
        the tank's invertible phase window.
    """

    curves: tuple[LevelCurve, ...]
    angle: float
    phi_d: float
    w_i: float


@dataclass
class IsolinePicture:
    """All the data behind a Fig. 10 / Fig. 14 / Fig. 18 style plot."""

    grid: Grid2D
    tf_curves: list[LevelCurve]
    isolines: list[Isoline] = field(default_factory=list)
    v_i: float = 0.0
    n: int = 1

    def isoline_nearest(self, phi_d: float) -> Isoline:
        """The family member whose ``phi_d`` is closest to a target."""
        if not self.isolines:
            raise ValueError("picture has no isolines")
        return min(self.isolines, key=lambda iso: abs(iso.phi_d - phi_d))


def build_isoline_picture(
    nonlinearity: Nonlinearity,
    tank: Tank,
    *,
    v_i: float,
    n: int,
    angles: np.ndarray | None = None,
    amplitude_window: tuple[float, float] | None = None,
    n_a: int = 121,
    n_phi: int = 241,
    n_samples: int = DEFAULT_SAMPLES,
    method: str = "fft",
) -> IsolinePicture:
    """Assemble the graphical lock-range picture.

    Parameters
    ----------
    nonlinearity, tank, v_i, n:
        The injection setup, as in the solvers.
    angles:
        Isoline levels of ``angle(-I_1)`` in radians; default is a
        symmetric fan of 13 levels covering ``+-0.45`` rad (comparable to
        the paper's plots, whose outermost useful isoline sits near
        ``|phi_d| ~ 0.3``).
    amplitude_window, n_a, n_phi, n_samples:
        Grid controls, as in :func:`repro.core.lockrange.predict_lock_range`.
    method:
        ``"fft"`` (default) pre-characterises through the factorised
        surface (cache-backed, shared with the lock-range solver);
        ``"dense"`` forces the direct-quadrature referee.
    """
    check_positive("v_i", v_i)
    if angles is None:
        angles = np.linspace(-0.45, 0.45, 13)
    _, amplitudes, phis = lock_grid(
        nonlinearity,
        tank,
        n_a=n_a,
        n_phi=n_phi,
        n_samples=n_samples,
        amplitude_window=amplitude_window,
    )
    df = TwoToneDF(nonlinearity, v_i, int(n), n_samples=n_samples, method=method)
    grid = df.characterize(amplitudes, phis, tank.peak_resistance)
    tf_curves = extract_level_curves(grid, "tf", 1.0)
    isolines = []
    for angle in np.asarray(angles, dtype=float):
        curves = tuple(extract_level_curves(grid, "angle", float(angle)))
        if not curves:
            continue
        phi_d = -float(angle)
        try:
            w_i = tank.frequency_for_phase(phi_d)
        except PhaseInversionError as exc:
            # The isoline level is real — the picture just cannot place it
            # on the frequency axis for this tank.  Record and keep it.
            record_fault(
                SolveFault(
                    "phase-inversion-out-of-range",
                    "isolines",
                    str(exc),
                    context={"phi_d": phi_d},
                )
            )
            w_i = float("nan")
        isolines.append(
            Isoline(curves=curves, angle=float(angle), phi_d=phi_d, w_i=w_i)
        )
    return IsolinePicture(
        grid=grid, tf_curves=tf_curves, isolines=isolines, v_i=v_i, n=int(n)
    )
