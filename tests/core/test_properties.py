"""Cross-cutting property-based tests on the core machinery.

These hypothesis tests draw *random smooth nonlinearities* (odd quintics
with a guaranteed negative-resistance origin and guaranteed limiting) and
check the structural invariants the theory promises for every member of
the class — not just the fixtures the example-based tests use.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.describing_function import fundamental_coefficient
from repro.core.natural import predict_natural_oscillation
from repro.core.two_tone import two_tone_fundamental
from repro.nonlin import FunctionNonlinearity
from repro.tank import ParallelRLC


def _random_limiter(a, b, c):
    """Odd quintic ``-a v + b v^3 + c v^5`` with limiting guaranteed."""

    def law(v):
        v = np.asarray(v, dtype=float)
        return -a * v + b * v**3 + c * v**5

    return FunctionNonlinearity(law, name=f"quintic({a:.2e},{b:.2e},{c:.2e})")


nonlin_params = st.tuples(
    st.floats(min_value=1.5e-3, max_value=6e-3),   # a: startup gain 1.5..6
    st.floats(min_value=1e-4, max_value=2e-3),     # b
    st.floats(min_value=1e-5, max_value=5e-4),     # c: quintic limiting
)


@pytest.fixture(scope="module")
def tank():
    return ParallelRLC(r=1000.0, l=100e-6, c=10e-9)


class TestDescribingFunctionProperties:
    @settings(max_examples=25, deadline=None)
    @given(nonlin_params, st.floats(min_value=0.05, max_value=2.0))
    def test_single_tone_i1_is_real(self, params, amplitude):
        f = _random_limiter(*params)
        i1 = fundamental_coefficient(f, np.asarray([amplitude]))
        assert np.isrealobj(i1)

    @settings(max_examples=25, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.2, max_value=1.5),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.integers(min_value=1, max_value=5),
    )
    def test_two_tone_conjugate_symmetry(self, params, amplitude, phi, n):
        f = _random_limiter(*params)
        plus = complex(two_tone_fundamental(f, np.asarray(amplitude), 0.04, np.asarray(phi), n))
        minus = complex(two_tone_fundamental(f, np.asarray(amplitude), 0.04, np.asarray(-phi), n))
        assert minus == pytest.approx(np.conj(plus), abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.2, max_value=1.5),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.integers(min_value=2, max_value=4),
    )
    def test_two_tone_reduces_continuously_to_single(self, params, amplitude, phi, n):
        # I_1(A, V_i -> 0, phi) must converge to the single-tone value,
        # linearly in V_i.
        f = _random_limiter(*params)
        base = float(fundamental_coefficient(f, np.asarray([amplitude]))[0])
        small = complex(
            two_tone_fundamental(f, np.asarray(amplitude), 1e-4, np.asarray(phi), n)
        )
        tiny = complex(
            two_tone_fundamental(f, np.asarray(amplitude), 1e-5, np.asarray(phi), n)
        )
        assert abs(tiny - base) < 0.15 * abs(small - base) + 1e-12


class TestNaturalOscillationProperties:
    @settings(max_examples=15, deadline=None)
    @given(nonlin_params)
    def test_oscillation_exists_and_tf_unity(self, params):
        f = _random_limiter(*params)
        tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
        natural = predict_natural_oscillation(f, tank)
        i1 = float(fundamental_coefficient(f, np.asarray([natural.amplitude]))[0])
        tf = -1000.0 * i1 / (natural.amplitude / 2.0)
        assert tf == pytest.approx(1.0, abs=1e-8)
        assert natural.stable

    @settings(max_examples=10, deadline=None)
    @given(nonlin_params)
    def test_amplitude_within_physical_bounds(self, params):
        # Amplitude must exceed the small-signal-only estimate's zero and
        # stay below where the quintic restoring force dominates hard.
        f = _random_limiter(*params)
        tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
        natural = predict_natural_oscillation(f, tank)
        assert 0.01 < natural.amplitude < 10.0


class TestLockRangeProperties:
    def test_amplitude_vs_frequency_is_dome(self):
        # A(w) across the lock range: maximal near the centre, decreasing
        # toward both edges (the paper's Fig. 14/18 observation).
        from repro.core import predict_lock_range
        from repro.nonlin import NegativeTanh

        tanh = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
        lr = predict_lock_range(tanh, tank, v_i=0.03, n=3)
        w, a = lr.amplitude_vs_frequency()
        assert w.size > 20
        peak = int(np.argmax(a))
        assert 0 < peak < w.size - 1
        # Decreasing toward both ends from the peak (allow grid jitter).
        assert a[0] < a[peak] - 1e-4
        assert a[-1] < a[peak] - 1e-4
        # Peak near the centre frequency.
        assert w[peak] == pytest.approx(tank.center_frequency, rel=2e-3)


class TestTwoToneSpectrumProperties:
    """Structural invariants of the full two-tone current spectrum.

    These hold for *every* real (and, where stated, odd) device law, so
    they are checked on random quintics and on tabulated re-samplings of
    those quintics — the two nonlinearity families the verification
    matrix feeds through the solvers.
    """

    M_MAX = 9

    @staticmethod
    def _df(nonlinearity, v_i, n):
        from repro.core.two_tone import TwoToneDF

        # Pointwise quadrature only: these DFs never touch the surface store.
        return TwoToneDF(nonlinearity, v_i, n)

    @settings(max_examples=20, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.2, max_value=1.5),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.integers(min_value=1, max_value=5),
    )
    def test_spectrum_conjugate_symmetry(self, params, amplitude, phi, n):
        # Real drive, real law: reversing time maps phi -> -phi, so every
        # harmonic obeys I_m(A, -phi) = conj(I_m(A, phi)) — not just I_1.
        f = _random_limiter(*params)
        df = self._df(f, 0.04, n)
        plus = df.harmonic_phasors(amplitude, phi, self.M_MAX)
        minus = df.harmonic_phasors(amplitude, -phi, self.M_MAX)
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.2, max_value=1.5),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.sampled_from([1, 3, 5]),
    )
    def test_odd_law_odd_n_kills_even_harmonics(self, params, amplitude, phi, n):
        # For odd f and odd n the drive obeys v(theta + pi) = -v(theta),
        # so the current has half-wave symmetry: even harmonics vanish.
        # (Even n breaks the symmetry — see the counterexample test.)
        f = _random_limiter(*params)
        df = self._df(f, 0.04, n)
        phasors = df.harmonic_phasors(amplitude, phi, self.M_MAX)
        odd_scale = float(np.abs(phasors[0::2]).max())
        even = np.abs(phasors[1::2])  # phasors[m-1] holds I_m
        assert even.max() < 1e-12 * max(odd_scale, 1.0)

    @settings(max_examples=10, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.3, max_value=1.2),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    def test_even_n_regrows_even_harmonics(self, params, amplitude, phi):
        # Sanity counterexample: with n = 2 the injected tone sits on an
        # even harmonic, half-wave symmetry is broken, and the even lines
        # reappear at O(V_i) — the previous test is not vacuous.
        f = _random_limiter(*params)
        df = self._df(f, 0.04, 2)
        phasors = df.harmonic_phasors(amplitude, phi, self.M_MAX)
        assert np.abs(phasors[1::2]).max() > 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.2, max_value=1.5),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.integers(min_value=1, max_value=4),
    )
    def test_vi_zero_is_exactly_single_tone(self, params, amplitude, phi, n):
        # At V_i = 0 the two-tone DF *is* the single-tone DF: same
        # quadrature, phi becomes a spectator.  Exact to roundoff.
        f = _random_limiter(*params)
        df = self._df(f, 0.0, n)
        i1 = complex(df.i1(amplitude, phi))
        base = float(fundamental_coefficient(f, np.asarray([amplitude]))[0])
        assert i1.real == pytest.approx(base, rel=1e-12, abs=1e-15)
        assert abs(i1.imag) < 1e-12 * max(abs(base), 1e-12)

    @settings(max_examples=10, deadline=None)
    @given(
        nonlin_params,
        st.floats(min_value=0.2, max_value=1.2),
        st.floats(min_value=0.0, max_value=2 * np.pi),
        st.sampled_from([1, 3]),
    )
    def test_invariants_survive_tabulation(self, params, amplitude, phi, n):
        # The verification matrix also runs tabulated (measured-style)
        # laws.  A symmetric linear-interpolation table of an odd law is
        # still odd, so both spectrum invariants must survive resampling.
        from repro.nonlin.tabulated import LinearTableNonlinearity

        f = _random_limiter(*params)
        v_max = 1.5 + 2 * 0.04  # covers A + 2 V_i for every draw
        table = LinearTableNonlinearity.from_nonlinearity(
            f, -v_max, v_max, n=4097
        )
        df = self._df(table, 0.04, n)
        plus = df.harmonic_phasors(amplitude, phi, self.M_MAX)
        minus = df.harmonic_phasors(amplitude, -phi, self.M_MAX)
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-14)
        odd_scale = float(np.abs(plus[0::2]).max())
        assert np.abs(plus[1::2]).max() < 1e-12 * max(odd_scale, 1.0)
