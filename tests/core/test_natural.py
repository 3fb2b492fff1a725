"""Tests for natural-oscillation prediction (Fig. 3 flow + VI-A1 stability)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.natural import (
    NoOscillationError,
    find_all_amplitudes,
    lock_grid,
    predict_natural_oscillation,
)
from repro.nonlin import (
    CubicNonlinearity,
    FunctionNonlinearity,
    NegativeTanh,
    PiecewiseLinearNegativeResistance,
)
from repro.tank import ParallelRLC


@pytest.fixture
def tank():
    return ParallelRLC(r=1000.0, l=100e-6, c=10e-9)


class TestPredictNaturalOscillation:
    def test_cubic_matches_closed_form(self, tank, cubic_nonlinearity):
        natural = predict_natural_oscillation(cubic_nonlinearity, tank)
        assert natural.amplitude == pytest.approx(
            cubic_nonlinearity.natural_amplitude(1000.0), rel=1e-9
        )
        assert natural.stable

    def test_frequency_is_tank_center(self, tank, tanh_nonlinearity):
        natural = predict_natural_oscillation(tanh_nonlinearity, tank)
        assert natural.frequency == tank.center_frequency
        assert natural.frequency_hz == pytest.approx(159154.94, rel=1e-6)

    def test_tanh_deep_saturation_limit(self, tank):
        # Hard-limited oscillator: A -> (4/pi) R i_sat as gain -> inf.
        f = NegativeTanh(gm=1.0, i_sat=1e-3)
        natural = predict_natural_oscillation(f, tank)
        assert natural.amplitude == pytest.approx(4.0 / np.pi * 1.0, rel=1e-3)

    def test_pwl_oracle(self, tank):
        # Solve N(A) * R = 1 with the classic limiter formula as oracle.
        from scipy.optimize import brentq

        f = PiecewiseLinearNegativeResistance(g=2.5e-3, v_knee=0.1)
        natural = predict_natural_oscillation(f, tank)
        oracle = brentq(lambda a: 1000.0 * f.fundamental_gain(a) - 1.0, 0.11, 5.0)
        assert natural.amplitude == pytest.approx(oracle, rel=1e-3)

    def test_startup_failure_raises(self, tank):
        weak = NegativeTanh(gm=0.5e-3, i_sat=1e-3)  # R gm = 0.5 < 1
        with pytest.raises(NoOscillationError, match="start-up"):
            predict_natural_oscillation(weak, tank)

    def test_marginal_startup_raises(self, tank):
        marginal = NegativeTanh(gm=1.0e-3, i_sat=1e-3)  # R gm = 1 exactly
        with pytest.raises(NoOscillationError):
            predict_natural_oscillation(marginal, tank)

    def test_slope_negative_at_stable_solution(self, tank, tanh_nonlinearity):
        natural = predict_natural_oscillation(tanh_nonlinearity, tank)
        assert natural.tf_slope < 0.0

    def test_curve_data_brackets_solution(self, tank, tanh_nonlinearity):
        natural = predict_natural_oscillation(tanh_nonlinearity, tank)
        assert natural.amplitude_grid[0] < natural.amplitude < natural.amplitude_grid[-1]
        assert natural.tf_curve.shape == natural.amplitude_grid.shape

    def test_loop_gain_reported(self, tank, tanh_nonlinearity):
        natural = predict_natural_oscillation(tanh_nonlinearity, tank)
        assert natural.loop_gain_small_signal == pytest.approx(2.5)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=1.2e-3, max_value=8e-3))
    def test_amplitude_increases_with_gm(self, gm):
        tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
        lo = predict_natural_oscillation(NegativeTanh(gm=1.1e-3, i_sat=1e-3), tank)
        hi = predict_natural_oscillation(NegativeTanh(gm=gm, i_sat=1e-3), tank)
        assert hi.amplitude >= lo.amplitude - 1e-12

    def test_amplitude_scales_with_r_isat_product(self):
        # In deep saturation A ~ (4/pi) R i_sat: doubling R doubles A.
        f = NegativeTanh(gm=1.0, i_sat=1e-3)
        a1 = predict_natural_oscillation(
            f, ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
        ).amplitude
        a2 = predict_natural_oscillation(
            f, ParallelRLC(r=2000.0, l=100e-6, c=10e-9)
        ).amplitude
        assert a2 == pytest.approx(2.0 * a1, rel=1e-3)


class TestFindAllAmplitudes:
    def test_single_crossing_for_tanh(self, tanh_nonlinearity):
        solutions = find_all_amplitudes(tanh_nonlinearity, 1000.0)
        assert len(solutions) == 1
        assert solutions[0][1] < 0.0

    def test_multiple_crossings_for_wiggly_f(self):
        # A crafted N-shaped describing function: negative conductance
        # that strengthens again at mid amplitudes produces an unstable
        # crossing sandwiched between stable ones.
        def law(v):
            return -2.5e-3 * v + 1.2e-3 * v**3 - 0.12e-3 * v**5

        f = FunctionNonlinearity(law, name="quintic")
        solutions = find_all_amplitudes(f, 1000.0, a_max=4.0, n_grid=2000)
        assert len(solutions) >= 2
        signs = [np.sign(s) for _, s in solutions]
        # Alternating stability along increasing amplitude.
        assert signs[0] < 0 or signs[1] < 0

    def test_respects_a_max(self, tanh_nonlinearity):
        solutions = find_all_amplitudes(tanh_nonlinearity, 1000.0, a_max=0.5)
        # Natural amplitude ~1.2 V is outside a 0.5 V window.
        assert solutions == []


class TestLockGrid:
    def test_default_window_and_half_cell_phi_grid(self, tank, tanh_nonlinearity):
        a_nat = predict_natural_oscillation(tanh_nonlinearity, tank).amplitude
        window, amplitudes, phis = lock_grid(tanh_nonlinearity, tank, n_a=5, n_phi=9)
        assert window == (0.3 * a_nat, 1.4 * a_nat)
        assert np.array_equal(amplitudes, np.linspace(*window, 5))
        assert phis[0] == pytest.approx(np.pi / 8)
        assert phis[-1] - phis[0] == pytest.approx(2.0 * np.pi)

    def test_widen_stretches_both_sides(self, tank, tanh_nonlinearity):
        a_nat = predict_natural_oscillation(tanh_nonlinearity, tank).amplitude
        window, _, _ = lock_grid(tanh_nonlinearity, tank, n_a=5, n_phi=9, widen=1.6)
        assert window == (0.3 * a_nat / 1.6, 1.4 * a_nat * 1.6)
