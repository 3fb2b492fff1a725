"""Tests for tabulated nonlinearities (PCHIP and linear-table)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nonlin import NegativeTanh, TabulatedNonlinearity
from repro.nonlin.tabulated import LinearTableNonlinearity


def _tanh_table(extrapolation="linear", n=101):
    f = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
    v = np.linspace(-1.0, 1.0, n)
    return TabulatedNonlinearity(v, f(v), extrapolation=extrapolation), f


class TestTabulatedNonlinearity:
    def test_reproduces_samples_exactly(self):
        table, f = _tanh_table()
        v = np.linspace(-1.0, 1.0, 101)
        assert np.allclose(table(v), f(v), atol=1e-15)

    def test_interpolation_accuracy_between_samples(self):
        table, f = _tanh_table()
        assert table.max_abs_error_against(f) < 1e-6

    def test_derivative_close_to_truth(self):
        table, f = _tanh_table(n=201)
        v = np.linspace(-0.8, 0.8, 37)
        assert np.allclose(table.derivative(v), f.derivative(v), atol=2e-5)

    def test_scalar_in_scalar_out(self):
        table, _ = _tanh_table()
        assert isinstance(table(0.25), float)
        assert isinstance(table.derivative(0.25), float)

    def test_linear_extrapolation_continues_end_slope(self):
        table, _ = _tanh_table()
        inside = table(1.0)
        slope = table.derivative(1.0)
        assert table(1.5) == pytest.approx(inside + 0.5 * slope, rel=1e-9)

    def test_clamp_extrapolation_holds_value(self):
        table, _ = _tanh_table(extrapolation="clamp")
        assert table(5.0) == pytest.approx(table(1.0))
        assert table.derivative(5.0) == 0.0

    def test_raise_extrapolation_raises(self):
        table, _ = _tanh_table(extrapolation="raise")
        with pytest.raises(ValueError, match="outside"):
            table(2.0)
        with pytest.raises(ValueError, match="outside"):
            table.derivative(2.0)

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="4 samples"):
            TabulatedNonlinearity(np.array([0.0, 1.0, 2.0]), np.zeros(3))

    def test_rejects_unknown_extrapolation(self):
        with pytest.raises(ValueError, match="extrapolation"):
            _tanh_table(extrapolation="wild")

    def test_rejects_nonmonotonic_v(self):
        with pytest.raises(ValueError):
            TabulatedNonlinearity(np.array([0.0, 2.0, 1.0, 3.0]), np.zeros(4))

    def test_samples_are_readonly(self):
        table, _ = _tanh_table()
        with pytest.raises(ValueError):
            table.v_samples[0] = 99.0

    def test_domain(self):
        table, _ = _tanh_table()
        assert table.domain == (-1.0, 1.0)

    def test_pchip_does_not_overshoot_monotone_data(self):
        # Monotone-decreasing samples must give a monotone interpolant —
        # spurious wiggles would invent fake NDR regions.
        table, _ = _tanh_table(n=21)
        v = np.linspace(-1.0, 1.0, 2001)
        i = table(v)
        assert np.all(np.diff(i) <= 1e-15)


class TestLinearTableNonlinearity:
    def test_from_nonlinearity_accuracy(self):
        f = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        lin = LinearTableNonlinearity.from_nonlinearity(f, -1.0, 1.0, 4097)
        v = np.linspace(-0.9, 0.9, 301)
        assert np.max(np.abs(lin(v) - f(v))) < 1e-9

    def test_linear_extrapolation(self):
        lin = LinearTableNonlinearity(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert float(lin(np.asarray(2.0))) == pytest.approx(4.0)
        assert float(lin(np.asarray(-1.0))) == pytest.approx(-2.0)

    def test_resampled_linear_matches_pchip_table(self):
        table, f = _tanh_table(n=201)
        lin = table.resampled_linear(8193)
        v = np.linspace(-0.9, 0.9, 101)
        assert np.max(np.abs(lin(v) - table(v))) < 1e-8

    def test_derivative_reasonable(self):
        f = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        lin = LinearTableNonlinearity.from_nonlinearity(f, -1.0, 1.0, 8193)
        assert float(lin.derivative(np.asarray(0.0))) == pytest.approx(-2.5e-3, rel=1e-4)

    @given(st.floats(min_value=-0.95, max_value=0.95))
    def test_between_bracketing_samples(self, v):
        f = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        lin = LinearTableNonlinearity.from_nonlinearity(f, -1.0, 1.0, 513)
        value = float(lin(np.asarray(v)))
        lo = float(f(np.asarray(v - 0.005)))
        hi = float(f(np.asarray(v + 0.005)))
        assert min(lo, hi) - 1e-12 <= value <= max(lo, hi) + 1e-12


#: Knots of the table-law property test: the two end knots are exact
#: inputs the strategy draws.
_KNOTS_V = np.linspace(-0.8, 0.8, 33)
_KNOTS_I = np.tanh(3.0 * _KNOTS_V) - 0.2 * _KNOTS_V


def _two_where_law(v):
    """The table law as two full ``np.where`` passes: the reference formula."""
    v = np.asarray(v, dtype=float)
    out = np.interp(v, _KNOTS_V, _KNOTS_I)
    lo, hi = _KNOTS_V[0], _KNOTS_V[-1]
    slope_lo = (_KNOTS_I[1] - _KNOTS_I[0]) / (_KNOTS_V[1] - _KNOTS_V[0])
    slope_hi = (_KNOTS_I[-1] - _KNOTS_I[-2]) / (_KNOTS_V[-1] - _KNOTS_V[-2])
    out = np.where(v < lo, _KNOTS_I[0] + slope_lo * (v - lo), out)
    return np.where(v > hi, _KNOTS_I[-1] + slope_hi * (v - hi), out)


class TestLinearTableLawBitwise:
    """Masked extrapolation equals the two-``np.where`` formula bitwise."""

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=0, max_dims=2, max_side=12),
            elements=st.one_of(
                st.floats(min_value=-2.0, max_value=2.0),
                st.sampled_from([float(_KNOTS_V[0]), float(_KNOTS_V[-1])]),
            ),
        )
    )
    def test_matches_two_where_formula(self, v):
        got = LinearTableNonlinearity(_KNOTS_V, _KNOTS_I)(v)
        want = _two_where_law(v)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_python_float_input(self, v):
        got = LinearTableNonlinearity(_KNOTS_V, _KNOTS_I)(v)
        assert got.shape == () and got.tobytes() == _two_where_law(v).tobytes()
