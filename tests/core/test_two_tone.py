"""Tests for the two-tone describing function I_1(A, V_i, phi; n)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.describing_function import fundamental_coefficient
from repro.core.two_tone import TwoToneDF, two_tone_fundamental
from repro.nonlin import CubicNonlinearity, NegativeTanh
from repro.verify.scenarios import FAMILIES


@pytest.fixture(scope="module")
def tanh():
    return NegativeTanh(gm=2.5e-3, i_sat=1e-3)


class TestTwoToneFundamental:
    def test_zero_injection_reduces_to_single_tone(self, tanh):
        amps = np.array([0.3, 0.9, 1.6])
        two = two_tone_fundamental(tanh, amps, 0.0, np.zeros(3), 3)
        single = fundamental_coefficient(tanh, amps)
        assert np.allclose(two.real, single, atol=1e-14)
        assert np.max(np.abs(two.imag)) < 1e-14

    def test_cubic_oracle(self):
        # For f = -a v + b v^3 and n = 3, expanding
        # (A cos t + 2Vi cos(3t + phi))^3 gives the fundamental term
        # I_1 = (-a A + (3/4) b A^3 + 3 b Vi A^2 e^{j phi}/2 + 3 b A Vi^2 * 2) / 2.
        a, b = 2.5e-3, 1e-3
        f = CubicNonlinearity(a=a, b=b)
        amp, v_i, phi = 1.1, 0.05, 0.7
        got = complex(two_tone_fundamental(f, np.asarray(amp), v_i, np.asarray(phi), 3))
        # Derivation: v = A cos t + B cos(3t+phi), B = 2 Vi.
        big_b = 2.0 * v_i
        i1 = (
            -a * amp / 2.0
            + b * (3.0 / 8.0) * amp**3
            + b * (3.0 / 8.0) * amp**2 * big_b * np.exp(1j * phi)
            + b * (3.0 / 4.0) * amp * big_b**2
        )
        assert got == pytest.approx(i1, rel=1e-12)

    def test_conjugate_symmetry_in_phi(self, tanh):
        # Time reversal: I_1(A, Vi, -phi) = conj(I_1(A, Vi, phi)).
        phi = np.linspace(0.1, 3.0, 7)
        plus = two_tone_fundamental(tanh, np.asarray(0.9), 0.04, phi, 3)
        minus = two_tone_fundamental(tanh, np.asarray(0.9), 0.04, -phi, 3)
        assert np.allclose(minus, np.conj(plus), atol=1e-14)

    def test_periodicity_in_phi(self, tanh):
        phi = np.linspace(0.0, 2 * np.pi, 9)
        base = two_tone_fundamental(tanh, np.asarray(1.0), 0.03, phi, 3)
        wrapped = two_tone_fundamental(tanh, np.asarray(1.0), 0.03, phi + 2 * np.pi, 3)
        assert np.allclose(base, wrapped, atol=1e-14)

    def test_broadcasting(self, tanh):
        amps = np.linspace(0.5, 1.5, 4)[:, None]
        phis = np.linspace(0.0, 2 * np.pi, 5)[None, :]
        out = two_tone_fundamental(tanh, amps, 0.03, phis, 3)
        assert out.shape == (4, 5)

    def test_rejects_bad_n(self, tanh):
        with pytest.raises(ValueError):
            two_tone_fundamental(tanh, np.asarray(1.0), 0.03, np.asarray(0.0), 0)
        with pytest.raises(ValueError):
            two_tone_fundamental(tanh, np.asarray(1.0), 0.03, np.asarray(0.0), 2.5)

    def test_rejects_undersampling(self, tanh):
        with pytest.raises(ValueError, match="n_samples"):
            two_tone_fundamental(
                tanh, np.asarray(1.0), 0.03, np.asarray(0.0), 16, n_samples=64
            )

    def test_n1_merges_tones(self, tanh):
        # For n = 1 the two tones are the same frequency: I_1 of
        # f(A cos + 2Vi cos(t+phi)) equals the single-tone I_1 at the
        # combined amplitude, rotated by the combined phase.
        amp, v_i, phi = 0.8, 0.05, 1.1
        combined = amp / 2.0 + v_i * np.exp(1j * phi)
        a_tot = 2.0 * abs(combined)
        delta = np.angle(combined)
        got = complex(two_tone_fundamental(tanh, np.asarray(amp), v_i, np.asarray(phi), 1))
        single = float(fundamental_coefficient(tanh, np.asarray([a_tot]))[0])
        assert got == pytest.approx(single * np.exp(1j * delta), rel=1e-10)

    @settings(max_examples=20)
    @given(
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    def test_injection_perturbation_is_bounded(self, amp, phi):
        # Weak injection perturbs I_1 by at most O(Vi * max|f'|).
        tanh = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        v_i = 0.01
        base = complex(two_tone_fundamental(tanh, np.asarray(amp), 0.0, np.asarray(phi), 3))
        pert = complex(two_tone_fundamental(tanh, np.asarray(amp), v_i, np.asarray(phi), 3))
        assert abs(pert - base) <= 2.0 * v_i * 2.5e-3 + 1e-12

    @pytest.mark.parametrize("family", ["tanh", "diffpair"])
    def test_is_the_df_quadrature_bitwise(self, family):
        # One dense quadrature: the function and TwoToneDF.i1 give the
        # same bits, so the dense characterisation and the pointwise
        # solver paths can never drift apart.
        nonlinearity, _ = FAMILIES[family]()
        amps = np.linspace(0.15, 1.5, 11)[:, None]
        phis = np.linspace(0.01, 6.3, 13)[None, :]
        expected = TwoToneDF(nonlinearity, 0.03, 3).i1(amps, phis)
        got = two_tone_fundamental(nonlinearity, amps, 0.03, phis, 3)
        assert np.array_equal(got, expected)


class TestTwoToneDF:
    def test_tf_at_natural_amplitude(self, tanh):
        # With zero injection, T_f(A*, phi) = 1 at the natural amplitude.
        from repro.core.natural import find_all_amplitudes

        a_star = find_all_amplitudes(tanh, 1000.0)[0][0]
        df = TwoToneDF(tanh, 0.0, 3)
        assert float(df.tf(a_star, 0.0, 1000.0)) == pytest.approx(1.0, rel=1e-9)

    def test_angle_zero_without_injection(self, tanh):
        df = TwoToneDF(tanh, 0.0, 3)
        assert float(df.angle_minus_i1(1.0, 0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_t_big_f_equals_tf_on_phase_condition(self, tanh):
        # Eq. (9): when phi_d = -angle(-I_1), the circle property collapses
        # |I_1| cos(phi_d) onto the cosine component, so T_F == T_f.
        df = TwoToneDF(tanh, 0.03, 3)
        for amp, phi in [(1.1, 2.0), (0.9, 3.5), (1.3, 0.7)]:
            tf = float(df.tf(amp, phi, 1000.0))
            angle = float(df.angle_minus_i1(amp, phi))
            t_big = float(df.t_big_f(amp, phi, 1000.0, -angle))
            assert t_big == pytest.approx(abs(tf), rel=1e-9)

    def test_characterize_shapes_and_cache(self, tanh):
        df = TwoToneDF(tanh, 0.03, 3)
        amps = np.linspace(0.5, 1.5, 11)
        phis = np.linspace(0.0, 2 * np.pi, 13)
        grid = df.characterize(amps, phis, 1000.0)
        assert grid.surfaces["tf"].shape == (11, 13)
        assert grid.surfaces["angle"].shape == (11, 13)
        # Second call returns the cached object.
        assert df.characterize(amps, phis, 1000.0) is grid

    def test_tf_rejects_zero_amplitude(self, tanh):
        df = TwoToneDF(tanh, 0.03, 3)
        with pytest.raises(ValueError):
            df.tf(0.0, 0.0, 1000.0)

    def test_rejects_negative_vi(self, tanh):
        with pytest.raises(ValueError):
            TwoToneDF(tanh, -0.1, 3)
