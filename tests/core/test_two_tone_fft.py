"""FFT-factorised two-tone path against the dense quadrature referee.

The fast path must be an *implementation* change only: on every shipped
nonlinearity class and every paper order (including n = 1, i.e. FHIL) the
factorised ``I_1(A, phi)`` grid has to agree with the direct dense
quadrature to 1e-9 absolute — the ISSUE's acceptance bound.  Laws that
cannot meet the bound (piecewise-linear tables, whose psi-spectrum decays
too slowly) must be detected and routed to the dense fallback
automatically.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import two_tone
from repro.core.describing_function import fundamental_coefficient
from repro.core.natural import lock_grid
from repro.core.two_tone import (
    SurfaceStack,
    TwoToneDF,
    TwoToneSurface,
    _mirror_aware_dense_grid,
    _stacked_coefficients,
    two_tone_fundamental,
    two_tone_surface,
    two_tone_surfaces_stacked,
)
from repro.nonlin import (
    BiasedTunnelDiode,
    CrossCoupledDiffPair,
    LinearTableNonlinearity,
    NegativeTanh,
    TabulatedNonlinearity,
)
from repro.verify.scenarios import build_oscillator

N_SAMPLES = 512
ACCEPTANCE_ATOL = 1e-9


def _tabulated_tanh() -> TabulatedNonlinearity:
    law = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
    v = np.linspace(-2.5, 2.5, 41)
    return TabulatedNonlinearity(v, law(v), name="tanh-table")


#: (constructor, amplitude window, v_i) per shipped nonlinearity class.
CASES = [
    pytest.param(NegativeTanh(gm=2.5e-3, i_sat=1e-3), (0.4, 1.7), 0.03, id="tanh"),
    pytest.param(CrossCoupledDiffPair(), (0.05, 0.35), 0.02, id="diffpair"),
    pytest.param(BiasedTunnelDiode(v_bias=0.25), (0.06, 0.28), 0.005, id="tunnel"),
    pytest.param(_tabulated_tanh(), (0.4, 1.6), 0.03, id="tabulated"),
]


class TestDenseEquivalence:
    @pytest.mark.parametrize("nonlinearity, window, v_i", CASES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_surface_matches_dense_referee(self, nonlinearity, window, v_i, n):
        amplitudes = np.linspace(window[0], window[1], 16)
        phis = np.linspace(0.0, 2.0 * np.pi, 33)
        surface = two_tone_surface(
            nonlinearity, amplitudes, v_i, n, N_SAMPLES
        )
        assert surface.converged
        fast = surface.i1_grid(phis)
        dense = two_tone_fundamental(
            nonlinearity, amplitudes[:, None], v_i, phis[None, :], n, N_SAMPLES
        )
        assert np.max(np.abs(fast - dense)) <= ACCEPTANCE_ATOL

    def test_higher_harmonics_match_quadrature(self):
        df = TwoToneDF(NegativeTanh(gm=2.5e-3, i_sat=1e-3), 0.03, 3,
                       n_samples=N_SAMPLES)
        amplitudes = np.linspace(0.5, 1.6, 8)
        surface = df.surface(amplitudes)
        phi = 1.234
        exact = df.harmonic_phasors(amplitudes[3], phi, 5)
        for m in range(1, 6):
            grid = surface.harmonic_grid(np.asarray([phi]), m=m)
            assert abs(grid[3, 0] - exact[m - 1]) <= ACCEPTANCE_ATOL

    def test_zero_injection_reduces_to_single_tone(self):
        law = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        amplitudes = np.linspace(0.4, 1.7, 9)
        surface = two_tone_surface(law, amplitudes, 0.0, 3, N_SAMPLES)
        i1 = surface.i1_grid(np.linspace(0.0, 2.0 * np.pi, 7))
        single = fundamental_coefficient(law, amplitudes)
        assert np.allclose(i1.real, single[:, None], atol=1e-14)
        assert np.max(np.abs(i1.imag)) < 1e-14
        # phi-independent by construction
        assert np.max(np.abs(i1 - i1[:, :1])) == 0.0


class TestNonConvergedFallback:
    def test_piecewise_linear_law_is_flagged(self):
        table = LinearTableNonlinearity.from_nonlinearity(
            NegativeTanh(gm=2.5e-3, i_sat=1e-3), -2.5, 2.5, 257
        )
        amplitudes = np.linspace(0.4, 1.7, 12)
        surface = two_tone_surface(table, amplitudes, 0.03, 3, N_SAMPLES)
        assert not surface.converged

    def test_characterize_falls_back_to_dense(self):
        table = LinearTableNonlinearity.from_nonlinearity(
            NegativeTanh(gm=2.5e-3, i_sat=1e-3), -2.5, 2.5, 257
        )
        amplitudes = np.linspace(0.4, 1.7, 12)
        half_cell = np.pi / 20.0
        phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, 21)
        fast = TwoToneDF(table, 0.03, 3, n_samples=N_SAMPLES, method="fft")
        dense = TwoToneDF(table, 0.03, 3, n_samples=N_SAMPLES, method="dense")
        g_fast = fast.characterize(amplitudes, phis, 1000.0)
        g_dense = dense.characterize(amplitudes, phis, 1000.0)
        for name in ("i1x", "i1y", "tf"):
            assert np.max(
                np.abs(g_fast.surfaces[name] - g_dense.surfaces[name])
            ) <= 1e-12


class TestCharacterizeCaching:
    def test_repeat_call_returns_same_object(self, tanh_nonlinearity):
        df = TwoToneDF(tanh_nonlinearity, 0.03, 3, n_samples=N_SAMPLES)
        amplitudes = np.linspace(0.4, 1.7, 10)
        phis = np.linspace(0.1, 2.0 * np.pi + 0.1, 11)
        first = df.characterize(amplitudes, phis, 1000.0)
        assert df.characterize(amplitudes, phis, 1000.0) is first

    def test_same_endpoints_different_spacing_not_conflated(
        self, tanh_nonlinearity
    ):
        # Regression: the memo used to key on (endpoints, size) only, so a
        # geometric grid sharing the endpoints of a linear one silently
        # reused the wrong surfaces.
        df = TwoToneDF(tanh_nonlinearity, 0.03, 3, n_samples=N_SAMPLES)
        phis = np.linspace(0.1, 2.0 * np.pi + 0.1, 11)
        linear = np.linspace(0.4, 1.7, 10)
        geometric = np.geomspace(0.4, 1.7, 10)
        g_lin = df.characterize(linear, phis, 1000.0)
        g_geo = df.characterize(geometric, phis, 1000.0)
        assert g_geo is not g_lin
        assert not np.array_equal(
            g_lin.surfaces["i1mag"], g_geo.surfaces["i1mag"]
        )
        # Each keeps its own identity on repeat calls.
        assert df.characterize(linear, phis, 1000.0) is g_lin
        assert df.characterize(geometric, phis, 1000.0) is g_geo


class TestSurfaceRoundTrip:
    def test_to_from_arrays(self, tanh_nonlinearity):
        amplitudes = np.linspace(0.4, 1.7, 8)
        surface = two_tone_surface(tanh_nonlinearity, amplitudes, 0.03, 3,
                                   N_SAMPLES)
        arrays, meta = surface.to_arrays()
        clone = TwoToneSurface.from_arrays(arrays, meta)
        phis = np.linspace(0.0, 2.0 * np.pi, 17)
        assert np.array_equal(clone.i1_grid(phis), surface.i1_grid(phis))
        assert clone.converged == surface.converged
        assert clone.n == surface.n
        assert clone.v_i == surface.v_i

    def test_marker_surface_round_trips_non_converged(self):
        table = LinearTableNonlinearity.from_nonlinearity(
            NegativeTanh(gm=2.5e-3, i_sat=1e-3), -2.5, 2.5, 257
        )
        surface = two_tone_surface(
            table, np.linspace(0.4, 1.7, 6), 0.03, 3, N_SAMPLES
        )
        arrays, meta = surface.to_arrays()
        clone = TwoToneSurface.from_arrays(arrays, meta)
        assert not clone.converged


class TestEvaluator:
    def test_off_grid_evaluator_tracks_quadrature(self, tanh_nonlinearity):
        df = TwoToneDF(tanh_nonlinearity, 0.03, 3, n_samples=N_SAMPLES)
        amplitudes = np.linspace(0.4, 1.7, 40)
        phis = np.linspace(0.05, 2.0 * np.pi + 0.05, 41)
        stack = SurfaceStack([df.i1_source(amplitudes, phis)])
        a = np.asarray([0.55, 0.9712, 1.433])
        p = np.asarray([0.3, 2.111, 5.9])
        got = stack.bind(p, np.zeros(p.size, dtype=int))(a)
        want = df.i1(a, p)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


class TestBatch:
    def test_each_df_holds_its_own_surface(self, tanh_nonlinearity, monkeypatch):
        amplitudes = np.linspace(0.4, 1.7, 16)
        v_is = [0.01, 0.03]
        dfs = TwoToneDF.batch(
            tanh_nonlinearity, v_is, 3, amplitudes, n_samples=N_SAMPLES
        )
        alone = [
            TwoToneDF(tanh_nonlinearity, v_i, 3, n_samples=N_SAMPLES).surface(amplitudes)
            for v_i in v_is
        ]
        # The batch seeded every memo: no further lookup or build happens.
        monkeypatch.setattr("repro.core.two_tone.precharacterize", None)
        for df, v_i, reference in zip(dfs, v_is, alone):
            surface = df.surface(amplitudes)
            assert surface.v_i == df.v_i == v_i
            assert np.array_equal(surface.coefficients, reference.coefficients)


class TestSurfaceStack:
    """One stacked evaluator == every member surface's own ``i1_at``, bitwise."""

    @staticmethod
    def _assert_stack_matches_members(family: str, v_is, n: int = 3):
        nonlinearity, tank = build_oscillator(family)
        window, amplitudes, phis = lock_grid(nonlinearity, tank, n_a=61, n_phi=121)
        dfs = TwoToneDF.batch(nonlinearity, v_is, n, amplitudes)
        surfaces = [df.i1_source(amplitudes, phis) for df in dfs]
        assert all(isinstance(s, TwoToneSurface) for s in surfaces)
        stack = SurfaceStack(surfaces)
        rng = np.random.default_rng(7)
        size = 64
        a = rng.uniform(*window, size)
        p = rng.uniform(0.0, 2.0 * np.pi, size)
        members = rng.integers(0, len(v_is), size)
        at = stack.bind(p, members)
        got = at(a)
        for j, surface in enumerate(surfaces):
            mine = members == j
            assert np.array_equal(got[mine], surface.i1_at(a[mine], p[mine]))
            # One point at a time, as a scalar root search would ask.
            for k in np.nonzero(mine)[0][:4]:
                assert got[k] == surface.i1_at(a[k : k + 1], p[k : k + 1])[0]
        # A subset of points at other amplitudes reuses the bound phases.
        subset = np.arange(0, size, 5)
        fresh = stack.bind(p[subset], members[subset])
        assert np.array_equal(at(1.01 * a[subset], subset), fresh(1.01 * a[subset]))
        return surfaces

    def test_tanh_group(self):
        self._assert_stack_matches_members("tanh", [0.018, 0.03, 0.042])

    def test_tunnel_group(self):
        self._assert_stack_matches_members("tunnel", [0.02, 0.03])

    def test_group_wider_than_one_spline(self):
        # More members than one stacked spline carries: several splines.
        self._assert_stack_matches_members("tanh", list(np.linspace(0.01, 0.05, 11)))

    def test_group_with_different_k_orders(self):
        # V_i = 0.6 needs a finer psi grid than 0.03: two spline stacks.
        surfaces = self._assert_stack_matches_members("tanh", [0.03, 0.6])
        assert surfaces[0].k_orders.size != surfaces[1].k_orders.size


#: Block sizes at the two extremes: 1 f-evaluation rounds up to one row
#: (one point) per block; 10**9 puts every row (point) in one block.
EXTREME_BLOCKS = [1, 10**9]


class TestBlockedPasses:
    """The block size of a pre-characterisation pass changes no number."""

    @pytest.mark.parametrize("family", ["tanh", "tunnel"])
    @pytest.mark.parametrize("n_psi", [32, 64])
    def test_stacked_coefficients_bitwise_across_blocks(
        self, family, n_psi, monkeypatch
    ):
        nonlinearity, tank = build_oscillator(family)
        _, amplitudes, _ = lock_grid(nonlinearity, tank, n_a=21, n_phi=41)
        v_is = [0.02, 0.04]
        args = (
            nonlinearity, np.tile(amplitudes, len(v_is)),
            np.repeat(v_is, amplitudes.size), 3, 256, n_psi, np.arange(1, 9),
        )
        want_k, want = _stacked_coefficients(*args)
        for evals in EXTREME_BLOCKS:
            monkeypatch.setattr(two_tone, "_BLOCK_EVALS", evals)
            k_orders, coefficients = _stacked_coefficients(*args)
            assert np.array_equal(k_orders, want_k)
            assert np.array_equal(coefficients, want)

    def test_dense_quadrature_bitwise_across_blocks(self, monkeypatch):
        # 21 x 41 = 861 points: two-point blocks leave a lone last point.
        nonlinearity, tank = build_oscillator("diffpair")
        _, amplitudes, phis = lock_grid(nonlinearity, tank, n_a=21, n_phi=41)
        a, p = amplitudes[:, None], phis[None, :]
        want = two_tone_fundamental(nonlinearity, a, 0.03, p, 3, 256)
        for evals in EXTREME_BLOCKS:
            monkeypatch.setattr(two_tone, "_BLOCK_EVALS", evals)
            got = two_tone_fundamental(nonlinearity, a, 0.03, p, 3, 256)
            assert np.array_equal(got, want)


def _peak_bytes(fn) -> int:
    """Peak traced allocation (bytes) while ``fn()`` runs."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()


class TestPeakMemory:
    """Blocked passes stay far below one whole-grid block's footprint
    (about 190 MB and 125 MB for these two grids; 4 MB and 2 MB in
    blocks)."""

    LIMIT_BYTES = 16e6

    def test_stacked_surface_build(self):
        nonlinearity, tank = build_oscillator("tanh")
        _, amplitudes, _ = lock_grid(nonlinearity, tank, n_a=121, n_phi=241)
        v_is = [0.018, 0.027, 0.033, 0.042]
        peak = _peak_bytes(
            lambda: two_tone_surfaces_stacked(nonlinearity, amplitudes, v_is, 3)
        )
        assert peak < self.LIMIT_BYTES

    def test_dense_grid(self):
        nonlinearity, tank = build_oscillator("diffpair")
        _, amplitudes, phis = lock_grid(nonlinearity, tank, n_a=121, n_phi=241)
        df = TwoToneDF(nonlinearity, 0.03, 3)
        peak = _peak_bytes(lambda: _mirror_aware_dense_grid(df.i1, amplitudes, phis))
        assert peak < self.LIMIT_BYTES
