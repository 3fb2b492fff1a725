"""Two-tone describing functions for SHIL (paper Section III-C, Appendix VI-B2).

Under n-th sub-harmonic injection the input to the nonlinearity carries two
frequency components::

    v_in(t) = A cos(w_i t) + 2 V_i cos(n w_i t + phi)

The fundamental harmonic phasor of the output current,

    I_1(A, V_i, phi) = (1/2pi) \\int f(v_in) exp(-j theta) d theta,

is now complex: the n-th-harmonic "kick" is what rotates ``-I_1`` away from
the real axis, and that rotation is the mechanism that counters the tank's
phase shift ``phi_d`` and makes sub-harmonic lock possible at all.  This
module computes ``I_1`` and its derived surfaces

* ``I_1x = Re I_1`` (cosine component — enters the magnitude condition
  ``T_f = -R I_1x / (A/2) = 1``, Eq. (3)/(10)),
* ``I_1y = Im I_1`` (sine component — enters the averaged phase dynamics),
* ``angle(-I_1)`` (enters the phase condition ``angle(-I_1) = -phi_d``,
  Eq. (4)),

vectorised over ``(A, phi)`` grids, which is the pre-characterisation step
the paper performs "computationally, at minimal cost, for any given
nonlinearity".

Two evaluation paths are provided:

* **dense** — direct quadrature of ``f`` at every ``(A, phi)`` point
  (:func:`two_tone_fundamental`), ``O(N_A * N_phi * n_samples)``
  nonlinearity calls.  Kept as the accuracy referee and ablation baseline.
* **fft** — the factorisation behind :func:`two_tone_surfaces_stacked`.  Write
  ``g(theta, psi) = f(A cos theta + 2 V_i cos psi)``; it is 2pi-periodic in
  both arguments with 2-D Fourier coefficients ``G_{m,k}``.  Substituting
  ``psi = n theta + phi`` and projecting on harmonic ``m`` gives::

      I_m(A, phi) = sum_k G_{m - n k, k} * exp(j k phi)

  so one 2-D FFT per amplitude yields ``I_m`` for the *entire* ``phi``
  grid at once — ``O(N_A * S_theta * S_psi)`` nonlinearity calls,
  independent of ``N_phi`` — and the higher harmonics ``I_m`` come for
  free (they seed :mod:`repro.core.harmonic_balance`).  Because the
  injected tone ``2 V_i`` is small, the ``psi``-spectrum decays fast and
  ``S_psi`` of a few dozen suffices; the builder grows ``S_psi``
  adaptively until the spectral tail is below tolerance.

Pre-characterised surfaces are cached in memory per instance and, through
the surface store (:mod:`repro.perf.sharded_cache`), as content-addressed
``.npz`` records on disk, so repeated ``characterize()`` / isoline /
lock-range calls warm-start across processes and CLI runs.
:func:`precharacterize` is the one path records take, for a scalar
prediction and a whole sweep grid alike.

Conventions
-----------
* ``V_i`` is the injection *phasor magnitude*: the injected sinusoid has
  peak amplitude ``2 V_i`` (paper Fig. 8, Appendix VI-B2).  The paper's
  examples use ``|V_i| = 0.03 V``, i.e. a 60 mV-peak injected tone.
* ``phi`` is the phase of the injection tone relative to the (pinned,
  zero-phase) fundamental.
* ``n = 1`` reduces to FHIL and is fully supported (the factorisation is
  degenerate only in the sense that both tones share one frequency; the
  identity above holds unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.describing_function import DEFAULT_SAMPLES
from repro.nonlin.base import Nonlinearity
from repro.obs import metrics, trace
from repro.perf.fingerprint import array_hash, combine_keys, nonlinearity_fingerprint
from repro.perf.sharded_cache import default_store
from repro.robust.guards import guard_finite
from repro.utils.grids import Grid2D
from repro.utils.validation import check_positive

__all__ = [
    "two_tone_fundamental",
    "two_tone_surface",
    "two_tone_surfaces_stacked",
    "precharacterize",
    "surface_disk_key",
    "TwoToneSurface",
    "TwoToneDF",
]

#: Maximum number of scalar f-evaluations per vectorised chunk; keeps the
#: intermediate (points, n_samples) arrays comfortably in cache/RAM.
_CHUNK_BUDGET = 4_000_000

#: Smallest / largest psi-sample counts tried by the adaptive surface
#: builder.  32 already reaches machine precision for the analytic device
#: laws; tabulated (PCHIP) laws, whose psi-spectrum decays only
#: polynomially, grow towards the cap.  A law that has not converged at the
#: cap (e.g. a piecewise-linear table, whose spectrum decays like 1/k) is
#: flagged non-converged and grid evaluation falls back to the dense
#: quadrature — correctness is never traded for speed.
_MIN_PSI = 32
_MAX_PSI = 512

#: Dense-vs-FFT agreement target for the surfaces, in amps.  The adaptive
#: builder stops once the spectral tail is safely below this.
_FFT_TOL = 1e-9

#: Highest harmonic order m stored on a surface (I_1 .. I_m_max).
_DEFAULT_M_MAX = 8


def _validate_order(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"sub-harmonic order n must be a positive integer, got {n}")
    return int(n)


def two_tone_fundamental(
    nonlinearity: Nonlinearity,
    amplitude: np.ndarray,
    v_i: float,
    phi: np.ndarray,
    n: int,
    n_samples: int = DEFAULT_SAMPLES,
) -> np.ndarray:
    """Compute ``I_1(A, V_i, phi)`` by dense quadrature (the referee path).

    Full numpy broadcasting over ``amplitude`` and ``phi``; cost is
    ``O(points * n_samples)`` nonlinearity evaluations.  The FFT-factorised
    path (:func:`two_tone_surface`) reproduces these values to ``1e-9``
    or better on grids while evaluating ``f`` far fewer times.

    Parameters
    ----------
    nonlinearity:
        The memoryless law ``f``.
    amplitude:
        Fundamental amplitude(s) ``A`` (broadcastable with ``phi``).
    v_i:
        Injection phasor magnitude (injected peak amplitude is ``2*v_i``).
    phi:
        Injection phase(s) relative to the fundamental, radians.
    n:
        Sub-harmonic order (``>= 1``); the injection rides at ``n * w_i``.
    n_samples:
        Samples per fundamental period for the quadrature; must be large
        enough to resolve harmonics up to well beyond ``n``.

    Returns
    -------
    numpy.ndarray
        Complex ``I_1`` with the broadcast shape of ``amplitude`` and
        ``phi`` (0-d inputs give a 0-d complex array).
    """
    n = _validate_order(n)
    check_positive("v_i", v_i, strict=False)
    if n_samples < 8 * n:
        raise ValueError(
            f"n_samples={n_samples} too small to resolve the n={n} injection tone"
        )
    amplitude = np.asarray(amplitude, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out_shape = np.broadcast_shapes(amplitude.shape, phi.shape)
    a_flat = np.broadcast_to(amplitude, out_shape).reshape(-1)
    p_flat = np.broadcast_to(phi, out_shape).reshape(-1)

    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    cos_theta = np.cos(theta)
    kernel = np.exp(-1j * theta) / n_samples

    n_points = a_flat.size
    result = np.empty(n_points, dtype=complex)
    chunk = max(1, _CHUNK_BUDGET // n_samples)
    for start in range(0, n_points, chunk):
        stop = min(start + chunk, n_points)
        a = a_flat[start:stop, None]
        p = p_flat[start:stop, None]
        v_in = a * cos_theta[None, :] + 2.0 * v_i * np.cos(n * theta[None, :] + p)
        current = np.asarray(nonlinearity(v_in), dtype=float)
        result[start:stop] = current @ kernel
    return result.reshape(out_shape)


# -- FFT-factorised pre-characterisation --------------------------------------


def _stacked_coefficients(
    nonlinearity: Nonlinearity,
    amplitudes: np.ndarray,
    v_is: np.ndarray,
    n: int,
    n_samples: int,
    n_psi: int,
    m_orders: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One factorisation pass over stacked ``(V_i, A)`` rows.

    ``amplitudes`` and ``v_is`` are flat, equal-length row vectors: row
    ``r`` evaluates ``g(theta, psi) = f(A_r cos theta + 2 V_r cos psi)``.
    Returns ``(k_orders, coefficients)`` with ``coefficients`` of shape
    ``(len(m_orders), len(amplitudes), len(k_orders))`` such that::

        I_m(A_r, phi) = sum_k coefficients[m_row, r, k] * exp(j k phi)

    Because the nonlinearity is elementwise and the 2-D FFT acts on axes
    (theta, psi) only, a row's coefficients do not depend on which other
    rows share the pass — a batch of one and a whole sweep grid produce
    bitwise identical numbers.
    """
    s = int(n_samples)
    p = int(n_psi)
    theta = 2.0 * np.pi * np.arange(s) / s
    psi = 2.0 * np.pi * np.arange(p) / p
    cos_theta = np.cos(theta)
    cos_psi = np.cos(psi)

    # Exclude the unpaired Nyquist line k = -p/2 (even p); for p = 1 this
    # keeps exactly the DC line k = 0.
    k_orders = np.arange(-((p - 1) // 2), (p + 1) // 2)
    m_idx = (m_orders[:, None] - n * k_orders[None, :]) % s
    k_idx = k_orders % p

    two_vis = 2.0 * v_is
    n_rows = amplitudes.size
    coeffs = np.empty((m_orders.size, n_rows, k_orders.size), dtype=complex)
    rows = max(1, _CHUNK_BUDGET // (s * p))
    for start in range(0, n_rows, rows):
        stop = min(start + rows, n_rows)
        v_in = (
            amplitudes[start:stop, None, None] * cos_theta[None, :, None]
            + two_vis[start:stop, None, None] * cos_psi[None, None, :]
        )
        g = np.asarray(nonlinearity(v_in), dtype=float)
        spectrum = np.fft.fft2(g, axes=(1, 2)) / (s * p)
        coeffs[:, start:stop, :] = np.transpose(
            spectrum[:, m_idx, k_idx], (1, 0, 2)
        )
    return k_orders, coeffs


def _tail(k_orders: np.ndarray, block: np.ndarray, n_psi: int) -> float:
    """The ``I_1`` spectral tail (``|k| > n_psi / 4``) of one coefficient block."""
    tail_band = np.abs(k_orders) > n_psi // 4
    return float(np.abs(block[0][:, tail_band]).max()) if tail_band.any() else 0.0


def two_tone_surfaces_stacked(
    nonlinearity: Nonlinearity,
    amplitudes: np.ndarray,
    v_is,
    n: int,
    n_samples: int = DEFAULT_SAMPLES,
    *,
    m_max: int = _DEFAULT_M_MAX,
    tol: float = _FFT_TOL,
) -> list[TwoToneSurface]:
    """Pre-characterise ``I_m(A, phi)`` over an amplitude grid by 2-D FFT.

    Evaluates ``g(theta, psi) = f(A cos theta + 2 V_i cos psi)`` on an
    ``S_theta x S_psi`` grid per amplitude, takes its 2-D FFT, and keeps
    the diagonal slices ``G_{m - n k, k}`` — the phi-Fourier coefficients
    of every harmonic ``I_m(A, phi)``.  The nonlinearity call count is
    ``O(N_A * S_theta * S_psi)``, independent of any later phi grid.
    Returns one :class:`TwoToneSurface` per entry of ``v_is``; this is the
    only surface builder (:func:`two_tone_surface` is a batch of one).

    Parameters
    ----------
    nonlinearity, n, n_samples:
        As in :func:`two_tone_fundamental`.
    amplitudes:
        Strictly positive amplitude grid (the surfaces' y axis).
    v_is:
        Injection phasor magnitudes, one surface each.
    m_max:
        Highest harmonic stored; ``I_1 .. I_m_max`` all come from the same
        FFTs.
    tol:
        Target absolute agreement (amps) with the dense quadrature.  The
        psi resolution is doubled until the ``I_1`` spectral tail
        (``|k| > S_psi / 4``) falls below ``tol / 8`` — the tail is an
        empirical upper proxy for the aliasing error — or the cap is hit.

    Every pass runs stacked ``(V_i, A)`` rows through one chunked FFT
    (:func:`_stacked_coefficients`), so batching changes no number:

    * ``v_i = 0`` has no injected tone; only the ``k = 0`` line survives.
    * Otherwise the psi-resolution ladder is walked on a spread 5-amplitude
      probe subset (the spectrum broadens monotonically-ish with swing, so
      the subset bounds the full grid well), every ``V_i`` still climbing
      sharing one pass per rung.  A smooth law shows geometric tail decay
      and settles quickly; a non-smooth law (polynomial decay) is detected
      after two rungs and gets a non-converged marker surface — the probe
      amplitudes at the first rung, with the measured tail — whose
      consumers fall back to the dense quadrature without touching its
      coefficients.
    * The full-grid builds run stacked per settled resolution.  Each
      ``V_i``'s tail is re-verified on its own block, and one doubling is
      allowed if the probe was slightly optimistic.
    """
    n = _validate_order(n)
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.ndim != 1 or amplitudes.size < 1:
        raise ValueError("amplitudes must be a non-empty 1-D grid")
    v_is = [float(v) for v in np.atleast_1d(np.asarray(v_is, dtype=float))]
    for v_i in v_is:
        check_positive("v_i", v_i, strict=False)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if n_samples < 8 * n:
        raise ValueError(
            f"n_samples={n_samples} too small to resolve the n={n} injection tone"
        )
    m_orders = np.arange(1, int(m_max) + 1)
    threshold = tol / 8.0

    def stacked(amps: np.ndarray, positions: list[int], p: int):
        """``k_orders`` and one coefficient block per position, at resolution p."""
        vis = np.repeat([v_is[pos] for pos in positions], amps.size)
        k_orders, coeffs = _stacked_coefficients(
            nonlinearity, np.tile(amps, len(positions)), vis, n, n_samples, p,
            m_orders,
        )
        return k_orders, np.split(coeffs, len(positions), axis=1)

    surfaces: dict[int, TwoToneSurface] = {}

    def finish(pos, amps, k_orders, block, p, tail) -> None:
        surfaces[pos] = TwoToneSurface(
            amplitudes=amps,
            k_orders=k_orders,
            m_orders=m_orders,
            coefficients=np.ascontiguousarray(block),
            v_i=v_is[pos],
            n=n,
            n_samples=int(n_samples),
            n_psi=int(p),
            tol=float(tol),
            tail=float(tail),
        )

    silent = [pos for pos, v_i in enumerate(v_is) if v_i == 0.0]
    if silent:
        k_orders, blocks = stacked(amplitudes, silent, 1)
        for pos, block in zip(silent, blocks):
            finish(pos, amplitudes, k_orders, block, 1, 0.0)

    probe_idx = np.unique(
        np.linspace(0, amplitudes.size - 1, min(5, amplitudes.size)).astype(int)
    )
    probe_amps = amplitudes[probe_idx]
    #: psi resolution -> [(position, already doubled)] full builds to run.
    settled: dict[int, list[tuple[int, bool]]] = {}
    first_rung: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    prev_tail: dict[int, float] = {}
    climbing = [pos for pos, v_i in enumerate(v_is) if v_i != 0.0]
    p = _MIN_PSI
    while climbing:
        k_orders, blocks = stacked(probe_amps, climbing, p)
        still = []
        for pos, block in zip(climbing, blocks):
            tail = _tail(k_orders, block, p)
            first_rung.setdefault(pos, (k_orders, block))
            if tail <= threshold:
                settled.setdefault(p, []).append((pos, False))
            elif 2 * p > _MAX_PSI or (
                pos in prev_tail and tail > 0.05 * prev_tail[pos]
            ):
                # The cap, or polynomial decay: no reachable resolution
                # converges.
                finish(pos, probe_amps, *first_rung[pos], _MIN_PSI,
                       max(tail, 2.0 * threshold))
            else:
                prev_tail[pos] = tail
                still.append(pos)
        climbing = still
        p *= 2

    while settled:
        p = min(settled)
        members = settled.pop(p)
        k_orders, blocks = stacked(amplitudes, [pos for pos, _ in members], p)
        for (pos, doubled), block in zip(members, blocks):
            tail = _tail(k_orders, block, p)
            if tail > threshold and not doubled and 2 * p <= _MAX_PSI:
                settled.setdefault(2 * p, []).append((pos, True))
            else:
                finish(pos, amplitudes, k_orders, block, p, tail)
    return [surfaces[pos] for pos in range(len(v_is))]


def two_tone_surface(
    nonlinearity: Nonlinearity,
    amplitudes: np.ndarray,
    v_i: float,
    n: int,
    n_samples: int = DEFAULT_SAMPLES,
    *,
    m_max: int = _DEFAULT_M_MAX,
    tol: float = _FFT_TOL,
) -> "TwoToneSurface":
    """One injection magnitude's surface: :func:`two_tone_surfaces_stacked`
    on a batch of one."""
    return two_tone_surfaces_stacked(
        nonlinearity, amplitudes, [v_i], n, n_samples, m_max=m_max, tol=tol
    )[0]


def surface_disk_key(
    nonlinearity: Nonlinearity,
    amplitudes: np.ndarray,
    v_i: float,
    n: int,
    n_samples: int = DEFAULT_SAMPLES,
) -> str:
    """The content address of one surface record in the store.

    :func:`precharacterize` is the only caller that stores records; the
    golden-manifest gate (:mod:`repro.regress.surfaces`) pins the recipe.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    v_max = float(np.max(np.abs(amplitudes))) + 2.0 * float(v_i)
    return combine_keys(
        "two-tone-surface",
        nonlinearity_fingerprint(nonlinearity, max(v_max, 1e-12)),
        float(v_i),
        int(n),
        int(n_samples),
        _DEFAULT_M_MAX,
        _FFT_TOL,
        amplitudes,
    )


def _shard_of(nonlinearity: Nonlinearity, n: int) -> str:
    """The store shard of one nonlinearity's records at order ``n``."""
    name = "".join(
        c if c.isalnum() or c in "-_." else "-"
        for c in str(getattr(nonlinearity, "name", ""))
    ).strip("-.")
    return f"{name or 'nonlinearity'}-n{int(n)}"


def precharacterize(
    nonlinearity: Nonlinearity,
    amplitudes: np.ndarray,
    v_is,
    n: int,
    n_samples: int = DEFAULT_SAMPLES,
    *,
    phis: np.ndarray | None = None,
) -> list:
    """The one pre-characterisation path: store lookup, one build of the misses.

    Returns one record per entry of ``v_is``: its :class:`TwoToneSurface`,
    or, given ``phis``, its dense-quadrature ``I_1`` grid over
    ``(amplitudes x phis)`` — the fallback for laws whose psi-spectrum
    does not converge.  Records come from
    :func:`~repro.perf.sharded_cache.default_store` (the sweep's own store
    during a sweep); every missing one is built in a single call under
    single-flight locks and stored.  :meth:`TwoToneDF.surface` asks for
    one ``V_i`` and the sweep engine for a group's whole grid, so a scalar
    prediction is a sweep of one.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    v_is = [float(v) for v in v_is]
    if phis is None:
        key_of = {
            v_i: surface_disk_key(nonlinearity, amplitudes, v_i, n, n_samples)
            for v_i in v_is
        }

        def build(missing):
            metrics.inc("sweep.surface_builds", len(missing))
            with trace("surface-build"):
                surfaces = two_tone_surfaces_stacked(
                    nonlinearity, amplitudes, missing, n, n_samples
                )
            return [surface.to_arrays() for surface in surfaces]

        def decode(arrays, meta):
            return TwoToneSurface.from_arrays(arrays, meta)

    else:
        phis = np.asarray(phis, dtype=float)
        a_max = float(np.max(np.abs(amplitudes)))
        key_of = {
            v_i: combine_keys(
                "two-tone-dense-grid",
                nonlinearity_fingerprint(nonlinearity, max(a_max + 2.0 * v_i, 1e-12)),
                v_i,
                n,
                n_samples,
                amplitudes,
                phis,
            )
            for v_i in v_is
        }

        def build(missing):
            with trace("dense-grid-build"):
                return [
                    (
                        {
                            "i1": _mirror_aware_dense_grid(
                                TwoToneDF(nonlinearity, v_i, n, n_samples).i1,
                                amplitudes,
                                phis,
                            ),
                            "amplitudes": amplitudes,
                            "phis": phis,
                        },
                        {},
                    )
                    for v_i in missing
                ]

        def decode(arrays, meta):
            return np.asarray(arrays["i1"], dtype=complex)

    name = getattr(nonlinearity, "name", "?")

    def build_many(missing):
        missing = sorted(missing)
        return {
            key_of[v_i]: (arrays, {**meta, "nonlinearity": name})
            for v_i, (arrays, meta) in zip(missing, build(missing))
        }

    records = default_store().get_or_build_many(
        _shard_of(nonlinearity, n),
        {key: v_i for v_i, key in key_of.items()},
        build_many,
    )
    return [decode(*records[key_of[v_i]]) for v_i in v_is]


def _mirror_aware_dense_grid(i1, amplitudes: np.ndarray, phis: np.ndarray):
    """Dense ``I_1`` grid exploiting ``I_1(A, -phi) = conj(I_1(A, phi))``.

    ``i1`` is the exact quadrature (:meth:`TwoToneDF.i1`).  The identity is
    exact for real nonlinearities even at finite ``n_samples`` (substitute
    ``theta -> -theta`` in the quadrature sum; the uniform theta grid maps
    onto itself).  Whenever the phi grid is mirror-symmetric modulo
    ``2 pi`` — true for the standard half-cell-offset lock-range grid —
    only half the columns need the quadrature; the rest are conjugate
    copies.
    """
    two_pi = 2.0 * np.pi
    phi_mod = np.mod(phis, two_pi)
    mirror = np.mod(-phi_mod, two_pi)
    order = np.argsort(phi_mod)
    pos = np.searchsorted(phi_mod[order], mirror)
    pos = np.clip(pos, 0, phis.size - 1)
    # Candidate partner (nearest sorted neighbour, circular tolerance).
    partner = np.full(phis.size, -1)
    for cand in (pos, np.maximum(pos - 1, 0)):
        idx = order[cand]
        delta = np.abs(phi_mod[idx] - mirror)
        match = np.minimum(delta, two_pi - delta) < 1e-9
        partner = np.where((partner < 0) & match, idx, partner)
    if np.any(partner < 0):
        return i1(amplitudes[:, None], phis[None, :])
    computed = np.arange(phis.size) <= partner
    # Duplicate phi values (e.g. the duplicated period endpoint) can
    # break the pairing involution; promote any column whose partner
    # is not itself computed.
    computed |= ~computed & ~computed[partner]
    compute = np.nonzero(computed)[0]
    half = i1(amplitudes[:, None], phis[None, compute])
    grid = np.empty((amplitudes.size, phis.size), dtype=complex)
    grid[:, compute] = half
    remaining = np.nonzero(~computed)[0]
    grid[:, remaining] = np.conj(grid[:, partner[remaining]])
    return grid


@dataclass
class TwoToneSurface:
    """Pre-characterised two-tone harmonics over an amplitude grid.

    The object stores, for every harmonic order ``m`` in ``m_orders`` and
    every grid amplitude, the phi-Fourier coefficients ``c_k`` such that::

        I_m(A_i, phi) = sum_k c_k(A_i) * exp(j k phi)

    Evaluations anywhere on the ``(A, phi)`` plane therefore cost *zero*
    nonlinearity calls: grid evaluations are one small matrix product, and
    off-grid amplitudes go through a cubic spline of the coefficients
    (the coefficients are smooth in ``A``; the interpolation error is far
    below the describing-function tolerance on the paper's grids).

    Instances round-trip losslessly through :meth:`to_arrays` /
    :meth:`from_arrays`, which is how the on-disk cache stores them.
    """

    amplitudes: np.ndarray
    k_orders: np.ndarray
    m_orders: np.ndarray
    coefficients: np.ndarray  # (n_m, n_A, n_k) complex
    v_i: float
    n: int
    n_samples: int
    n_psi: int
    tol: float
    tail: float = 0.0
    _splines: object = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        """True when the psi-spectrum tail met the accuracy budget.

        Non-converged surfaces (non-smooth laws such as piecewise-linear
        tables) are still useful as *approximations*, but the consumers in
        this repository treat them as a signal to fall back to the dense
        quadrature.
        """
        return self.tail <= self.tol / 8.0

    # -- evaluation -----------------------------------------------------------

    def _m_row(self, m: int) -> int:
        rows = np.nonzero(self.m_orders == m)[0]
        if rows.size == 0:
            raise ValueError(
                f"harmonic m={m} not stored (have m in {list(self.m_orders)})"
            )
        return int(rows[0])

    def harmonic_grid(self, phis: np.ndarray, m: int = 1) -> np.ndarray:
        """``I_m`` sampled on ``(amplitudes x phis)`` — shape ``(n_A, n_phi)``."""
        phis = np.asarray(phis, dtype=float)
        basis = np.exp(1j * np.outer(self.k_orders, phis.reshape(-1)))
        out = self.coefficients[self._m_row(m)] @ basis
        metrics.inc("df.evaluations", out.size, method="fft")
        return out.reshape(self.amplitudes.shape + phis.shape)

    def i1_grid(self, phis: np.ndarray) -> np.ndarray:
        """``I_1`` sampled on ``(amplitudes x phis)``."""
        return self.harmonic_grid(phis, 1)

    def _coeffs_at(self, a_flat: np.ndarray, row: int) -> np.ndarray:
        """Interpolated coefficients of one harmonic row at arbitrary amplitudes.

        Returns shape ``(n_points, n_k)``.  Per-row cubic splines are built
        lazily and cached — the solver hot loops only ever query ``m = 1``,
        so splining the full harmonic stack on every call would be an 8x
        waste.
        """
        if self.amplitudes.size == 1:
            return np.repeat(self.coefficients[row], a_flat.size, axis=0)
        if self.amplitudes.size < 4:
            # Too few nodes for a cubic — fall back to linear interpolation.
            out = np.empty((a_flat.size, self.k_orders.size), dtype=complex)
            for col in range(self.k_orders.size):
                ys = self.coefficients[row, :, col]
                out[:, col] = np.interp(
                    a_flat, self.amplitudes, ys.real
                ) + 1j * np.interp(a_flat, self.amplitudes, ys.imag)
            return out
        if self._splines is None:
            object.__setattr__(self, "_splines", {})
        spline = self._splines.get(row)
        if spline is None:
            from scipy.interpolate import CubicSpline

            spline = CubicSpline(self.amplitudes, self.coefficients[row], axis=0)
            self._splines[row] = spline
        return spline(a_flat)

    def harmonic_at(self, amplitude, phi, m: int = 1) -> np.ndarray:
        """``I_m`` at arbitrary (broadcastable) ``(A, phi)`` points.

        Off-grid amplitudes are spline-interpolated; no nonlinearity calls
        are made.  Intended for the solver hot paths (bisection along the
        invariant curve, stability Jacobians, golden-section edge
        refinement).
        """
        amplitude = np.asarray(amplitude, dtype=float)
        phi = np.asarray(phi, dtype=float)
        out_shape = np.broadcast_shapes(amplitude.shape, phi.shape)
        a_flat = np.broadcast_to(amplitude, out_shape).reshape(-1)
        p_flat = np.broadcast_to(phi, out_shape).reshape(-1)
        coeffs = self._coeffs_at(a_flat, self._m_row(m))  # (points, n_k)
        basis = np.exp(1j * p_flat[:, None] * self.k_orders[None, :])
        metrics.inc("df.evaluations", a_flat.size, method="fft")
        return np.einsum("pk,pk->p", coeffs, basis).reshape(out_shape)

    def i1_at(self, amplitude, phi) -> np.ndarray:
        """``I_1`` at arbitrary ``(A, phi)`` points (see :meth:`harmonic_at`)."""
        return self.harmonic_at(amplitude, phi, 1)

    # -- (de)serialisation ----------------------------------------------------

    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """Split into a cacheable ``(arrays, meta)`` pair."""
        arrays = {
            "amplitudes": self.amplitudes,
            "k_orders": self.k_orders,
            "m_orders": self.m_orders,
            "coefficients": self.coefficients,
        }
        meta = {
            "v_i": self.v_i,
            "n": self.n,
            "n_samples": self.n_samples,
            "n_psi": self.n_psi,
            "tol": self.tol,
            "tail": self.tail,
        }
        return arrays, meta

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], meta: dict) -> "TwoToneSurface":
        """Rebuild a surface from a cache record."""
        return cls(
            amplitudes=np.asarray(arrays["amplitudes"], dtype=float),
            k_orders=np.asarray(arrays["k_orders"], dtype=int),
            m_orders=np.asarray(arrays["m_orders"], dtype=int),
            coefficients=np.asarray(arrays["coefficients"], dtype=complex),
            v_i=float(meta["v_i"]),
            n=int(meta["n"]),
            n_samples=int(meta["n_samples"]),
            n_psi=int(meta["n_psi"]),
            tol=float(meta["tol"]),
            tail=float(meta.get("tail", 0.0)),
        )


@dataclass
class TwoToneDF:
    """Pre-characterised two-tone describing function for one injection setup.

    Bundles the nonlinearity with a fixed injection magnitude ``v_i`` and
    sub-harmonic order ``n``, and exposes the scalar fields the graphical
    procedure needs.  Grid evaluations are cached on the instance *and* as
    content-addressed records on disk (the paper's "pre-characterisation
    at minimal cost", made persistent across processes).

    Parameters
    ----------
    nonlinearity:
        The memoryless law ``f``.
    v_i:
        Injection phasor magnitude, volts.
    n:
        Sub-harmonic order.
    n_samples:
        Samples per period for the Fourier quadrature.
    method:
        ``"fft"`` (default) builds grids through the factorised surface;
        ``"dense"`` keeps the direct quadrature everywhere — the accuracy
        referee and ablation baseline.  Pointwise methods (:meth:`i1` and
        friends) always use the exact dense quadrature regardless, so the
        Newton polish in :mod:`repro.core.shil` stays quadrature-exact.
    """

    nonlinearity: Nonlinearity
    v_i: float
    n: int
    n_samples: int = DEFAULT_SAMPLES
    method: str = "fft"
    _grid_cache: dict = field(default_factory=dict, repr=False)
    _surface_memo: dict = field(default_factory=dict, repr=False)
    _dense_grid_memo: dict = field(default_factory=dict, repr=False)
    _quad: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.n = _validate_order(self.n)
        check_positive("v_i", self.v_i, strict=False)
        if self.method not in ("fft", "dense"):
            raise ValueError(f"method must be 'fft' or 'dense', got {self.method!r}")

    # -- pointwise fields (always exact dense quadrature) ---------------------

    def _quadrature(self) -> dict:
        """Precomputed per-instance quadrature constants.

        Caching these (and expanding ``cos(n theta + phi)`` by the angle
        addition formula) removes the per-call trigonometry that dominated
        scalar ``i1`` queries in the profile — the solver paths make tens
        of thousands of them.
        """
        if not self._quad:
            theta = 2.0 * np.pi * np.arange(self.n_samples) / self.n_samples
            self._quad["cos_theta"] = np.cos(theta)
            self._quad["cos_n"] = np.cos(self.n * theta)
            self._quad["sin_n"] = np.sin(self.n * theta)
            self._quad["kernel"] = np.exp(-1j * theta) / self.n_samples
        return self._quad

    def i1(self, amplitude, phi) -> np.ndarray:
        """Complex fundamental phasor ``I_1(A, phi)`` (exact quadrature)."""
        if self.n_samples < 8 * self.n:
            raise ValueError(
                f"n_samples={self.n_samples} too small to resolve the "
                f"n={self.n} injection tone"
            )
        quad = self._quadrature()
        amplitude = np.asarray(amplitude, dtype=float)
        phi = np.asarray(phi, dtype=float)
        out_shape = np.broadcast_shapes(amplitude.shape, phi.shape)
        a_flat = np.broadcast_to(amplitude, out_shape).reshape(-1)
        p_flat = np.broadcast_to(phi, out_shape).reshape(-1)
        n_points = a_flat.size
        metrics.inc("df.evaluations", n_points, method="dense")
        result = np.empty(n_points, dtype=complex)
        chunk = max(1, _CHUNK_BUDGET // self.n_samples)
        two_vi = 2.0 * self.v_i
        for start in range(0, n_points, chunk):
            stop = min(start + chunk, n_points)
            a = a_flat[start:stop, None]
            cos_p = np.cos(p_flat[start:stop])[:, None]
            sin_p = np.sin(p_flat[start:stop])[:, None]
            v_in = a * quad["cos_theta"] + two_vi * (
                cos_p * quad["cos_n"] - sin_p * quad["sin_n"]
            )
            current = np.asarray(self.nonlinearity(v_in), dtype=float)
            result[start:stop] = current @ quad["kernel"]
        return result.reshape(out_shape)

    def i1x(self, amplitude, phi) -> np.ndarray:
        """Cosine component ``Re I_1`` — the Eq. (10) ingredient."""
        return np.real(self.i1(amplitude, phi))

    def i1y(self, amplitude, phi) -> np.ndarray:
        """Sine component ``Im I_1``."""
        return np.imag(self.i1(amplitude, phi))

    def angle_minus_i1(self, amplitude, phi) -> np.ndarray:
        """``angle(-I_1)`` in radians — the left side of Eq. (4)."""
        return np.angle(-self.i1(amplitude, phi))

    def tf(self, amplitude, phi, tank_r: float) -> np.ndarray:
        """``T_f(A, phi) = -R I_1x / (A/2)`` (Eq. (3)); amplitude must be > 0."""
        check_positive("tank_r", tank_r)
        amplitude = np.asarray(amplitude, dtype=float)
        if np.any(amplitude <= 0.0):
            raise ValueError("T_f is defined for A > 0")
        return -tank_r * self.i1x(amplitude, phi) / (amplitude / 2.0)

    def t_big_f(self, amplitude, phi, tank_r: float, phi_d: float) -> np.ndarray:
        """``T_F = |R I_1 cos(phi_d)| / (A/2)`` (Eq. (5)/(8))."""
        check_positive("tank_r", tank_r)
        amplitude = np.asarray(amplitude, dtype=float)
        if np.any(amplitude <= 0.0):
            raise ValueError("T_F is defined for A > 0")
        mag = np.abs(self.i1(amplitude, phi))
        return tank_r * mag * abs(np.cos(phi_d)) / (amplitude / 2.0)

    def harmonic_phasors(self, amplitude: float, phi: float, m_max: int) -> np.ndarray:
        """Exact current harmonics ``I_m(A, phi)`` for ``m = 1 .. m_max``.

        One quadrature pass (a single ``f`` call plus an FFT) yields every
        harmonic of the two-tone drive at once — these seed the
        harmonic-balance Newton in :mod:`repro.core.harmonic_balance`.
        """
        if m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.n_samples <= 2 * m_max:
            raise ValueError("n_samples must exceed 2 * m_max")
        quad = self._quadrature()
        v_in = float(amplitude) * quad["cos_theta"] + 2.0 * self.v_i * (
            np.cos(phi) * quad["cos_n"] - np.sin(phi) * quad["sin_n"]
        )
        current = np.asarray(self.nonlinearity(v_in), dtype=float)
        spectrum = np.fft.rfft(current) / self.n_samples
        return spectrum[1 : m_max + 1]

    # -- grid pre-characterisation --------------------------------------------

    def surface(self, amplitudes: np.ndarray) -> TwoToneSurface:
        """The FFT-factorised surface for an amplitude grid (cached).

        Lookup order: per-instance memo -> the surface store (in-process
        LRU, then disk) -> fresh build, which is then stored — all but the
        memo through :func:`precharacterize`.  The store key hashes the
        *sampled content* of the nonlinearity, so editing a tabulated
        curve — or passing a differently spaced grid with the same
        endpoints — can never return a stale record.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        memo_key = array_hash(amplitudes)
        surface = self._surface_memo.get(memo_key)
        if surface is None:
            (surface,) = precharacterize(
                self.nonlinearity, amplitudes, [self.v_i], self.n, self.n_samples
            )
            self._surface_memo[memo_key] = surface
        return surface

    def adopt_surface(
        self, surface: TwoToneSurface, amplitudes: np.ndarray | None = None
    ) -> None:
        """Seed the in-memory memo with an externally built surface.

        The batch sweep engine characterises whole ``V_i`` grids in one
        stacked FFT pass (:func:`two_tone_surfaces_stacked`) and hands
        each per-``v_i`` surface to the solver through this hook; a
        subsequent :meth:`surface`/:meth:`characterize` call on the same
        amplitude grid then skips both the disk lookup and the build.
        Surfaces are validated against this instance's injection setup —
        adopting a foreign surface would silently poison every downstream
        number.

        ``amplitudes`` overrides the memo key's grid — needed for
        non-converged marker surfaces, which carry only their 5-amplitude
        probe subset but stand in for the full requested grid (exactly as
        :meth:`surface` memoises them).
        """
        if not isinstance(surface, TwoToneSurface):
            raise TypeError(f"expected a TwoToneSurface, got {type(surface).__name__}")
        if (
            float(surface.v_i) != float(self.v_i)
            or int(surface.n) != int(self.n)
            or int(surface.n_samples) != int(self.n_samples)
        ):
            raise ValueError(
                "surface (v_i, n, n_samples) = "
                f"({surface.v_i}, {surface.n}, {surface.n_samples}) does not "
                f"match this DF ({self.v_i}, {self.n}, {self.n_samples})"
            )
        grid = surface.amplitudes if amplitudes is None else (
            np.asarray(amplitudes, dtype=float)
        )
        self._surface_memo[array_hash(grid)] = surface

    def _dense_i1_grid(self, amplitudes: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Dense-quadrature ``I_1`` on the full grid, through the store.

        The automatic fallback of the fft path for laws whose psi-spectrum
        does not converge: the grid is content-addressed like any surface
        (:func:`precharacterize`), so warm re-runs skip the quadrature.
        """
        memo_key = (array_hash(amplitudes), array_hash(phis))
        i1 = self._dense_grid_memo.get(memo_key)
        if i1 is None:
            (i1,) = precharacterize(
                self.nonlinearity,
                amplitudes,
                [self.v_i],
                self.n,
                self.n_samples,
                phis=phis,
            )
            self._dense_grid_memo[memo_key] = i1
        return i1

    def characterize(
        self,
        amplitudes: np.ndarray,
        phis: np.ndarray,
        tank_r: float,
        method: str | None = None,
    ) -> Grid2D:
        """Sample the surfaces the graphical procedure draws.

        Returns a :class:`repro.utils.grids.Grid2D` with ``x = phi``,
        ``y = A`` and surfaces:

        * ``"tf"``    — ``T_f(A, phi)`` (Eq. (3)),
        * ``"angle"`` — ``angle(-I_1)`` (Eq. (4) left side),
        * ``"i1x"``, ``"i1y"`` — components of ``I_1``,
        * ``"i1mag"`` — ``|I_1|``.

        Grids are cached by content hashes of the full grid arrays (not
        their endpoints — two differently spaced grids with identical
        endpoints are different grids) plus ``(R, method)``.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        phis = np.asarray(phis, dtype=float)
        check_positive("tank_r", tank_r)
        method = self.method if method is None else method
        if method not in ("fft", "dense"):
            raise ValueError(f"method must be 'fft' or 'dense', got {method!r}")
        key = (array_hash(amplitudes), array_hash(phis), float(tank_r), method)
        cached = self._grid_cache.get(key)
        if cached is not None:
            return cached
        if np.any(amplitudes <= 0.0):
            raise ValueError("amplitude grid must be strictly positive")
        with trace("characterize"):
            # meshgrid convention: rows vary A, columns vary phi.
            if method == "fft":
                surface = self.surface(amplitudes)
                if surface.converged:
                    i1 = surface.i1_grid(phis)
                else:
                    # Non-smooth law (stalled psi-spectrum): fall back to the
                    # dense quadrature, but keep the persistence benefits.
                    i1 = self._dense_i1_grid(amplitudes, phis)
            else:
                i1 = two_tone_fundamental(
                    self.nonlinearity,
                    amplitudes[:, None],
                    self.v_i,
                    phis[None, :],
                    self.n,
                    self.n_samples,
                )
            # A NaN here would otherwise surface much later as an empty
            # level-curve set or a singular stability Jacobian.
            guard_finite(
                "I_1(A, phi) pre-characterisation grid",
                i1,
                stage="pre-characterisation",
                context={"method": method},
            )
            grid = Grid2D(x=phis, y=amplitudes)
            grid.add_surface("i1x", np.real(i1))
            grid.add_surface("i1y", np.imag(i1))
            grid.add_surface("i1mag", np.abs(i1))
            grid.add_surface("tf", -tank_r * np.real(i1) / (amplitudes[:, None] / 2.0))
            grid.add_surface("angle", np.angle(-i1))
        self._grid_cache[key] = grid
        return grid

    def i1_evaluator(
        self,
        amplitudes: np.ndarray,
        phis: np.ndarray,
        method: str | None = None,
    ):
        """A fast vectorised ``I_1(A, phi)`` evaluator for the solver loops.

        Returns a callable ``(amplitude, phi) -> complex ndarray`` (numpy
        broadcasting).  With ``method="dense"`` this is the exact
        quadrature (:meth:`i1` — the referee solver path).  With
        ``method="fft"`` it evaluates the pre-characterised surface with
        *zero* nonlinearity calls: a coefficient spline for converged
        surfaces, or a bicubic spline over the (cached) dense grid when the
        law's psi-spectrum did not converge.  Either way the evaluator is
        smooth in both arguments, which the bisection/Newton/golden-section
        refinements in :mod:`repro.core.lockrange` rely on.
        """
        method = self.method if method is None else method
        if method not in ("fft", "dense"):
            raise ValueError(f"method must be 'fft' or 'dense', got {method!r}")
        if method == "dense":
            return self.i1
        amplitudes = np.asarray(amplitudes, dtype=float)
        phis = np.asarray(phis, dtype=float)
        surface = self.surface(amplitudes)
        if surface.converged:
            return surface.i1_at

        from scipy.interpolate import RectBivariateSpline

        i1 = self._dense_i1_grid(amplitudes, phis)
        spline_re = RectBivariateSpline(amplitudes, phis, np.real(i1))
        spline_im = RectBivariateSpline(amplitudes, phis, np.imag(i1))

        def evaluate(amplitude, phi):
            amplitude = np.asarray(amplitude, dtype=float)
            phi = np.asarray(phi, dtype=float)
            out_shape = np.broadcast_shapes(amplitude.shape, phi.shape)
            a_flat = np.broadcast_to(amplitude, out_shape).reshape(-1)
            p_flat = np.broadcast_to(phi, out_shape).reshape(-1)
            values = spline_re.ev(a_flat, p_flat) + 1j * spline_im.ev(a_flat, p_flat)
            metrics.inc("df.evaluations", a_flat.size, method="fft-spline")
            return values.reshape(out_shape)

        return evaluate
