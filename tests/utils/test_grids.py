"""Tests for grid containers and bracket refinement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from repro.utils.grids import (
    Grid2D,
    brentq_lanes,
    linear_grid,
    log_grid,
    refine_bracket,
)


class TestLinearGrid:
    def test_endpoints(self):
        g = linear_grid(0.0, 1.0, 11)
        assert g[0] == 0.0 and g[-1] == 1.0 and g.size == 11

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            linear_grid(0.0, 1.0, 1)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            linear_grid(1.0, 0.0, 5)


class TestLogGrid:
    def test_endpoints(self):
        g = log_grid(1.0, 100.0, 3)
        assert np.allclose(g, [1.0, 10.0, 100.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_grid(0.0, 1.0, 5)


class TestGrid2D:
    def _grid(self):
        x = np.linspace(0.0, 1.0, 11)
        y = np.linspace(0.0, 2.0, 21)
        xx, yy = np.meshgrid(x, y)
        return Grid2D(x=x, y=y, surfaces={"plane": 2.0 * xx + 3.0 * yy})

    def test_surface_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            Grid2D(
                x=np.linspace(0, 1, 4),
                y=np.linspace(0, 1, 5),
                surfaces={"bad": np.zeros((4, 5))},
            )

    def test_bilinear_exact_on_linear_surface(self):
        grid = self._grid()
        # Bilinear interpolation reproduces affine surfaces exactly.
        assert grid.interpolate("plane", 0.33, 1.27) == pytest.approx(
            2.0 * 0.33 + 3.0 * 1.27
        )

    def test_interpolation_clamps_outside(self):
        grid = self._grid()
        assert grid.interpolate("plane", -5.0, -5.0) == pytest.approx(0.0)

    def test_gradient_of_affine_surface(self):
        grid = self._grid()
        gx, gy = grid.gradient("plane", 0.5, 1.0)
        assert gx == pytest.approx(2.0, rel=1e-6)
        assert gy == pytest.approx(3.0, rel=1e-6)

    def test_meshgrid_shapes(self):
        grid = self._grid()
        xx, yy = grid.meshgrid()
        assert xx.shape == (21, 11)
        assert yy.shape == (21, 11)

    def test_add_surface_validates(self):
        grid = self._grid()
        with pytest.raises(ValueError):
            grid.add_surface("wrong", np.zeros((3, 3)))

    def test_nonmonotonic_axis_rejected(self):
        with pytest.raises(ValueError):
            Grid2D(x=np.array([0.0, 2.0, 1.0]), y=np.array([0.0, 1.0]))


class TestRefineBracket:
    def test_finds_root_of_cubic(self):
        root = refine_bracket(lambda x: x**3 - 2.0, 0.0, 2.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-10)

    def test_exact_root_at_endpoint(self):
        assert refine_bracket(lambda x: x, 0.0, 1.0) == 0.0

    def test_rejects_non_bracketing(self):
        with pytest.raises(ValueError, match="sign change"):
            refine_bracket(lambda x: x + 10.0, 0.0, 1.0)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_linear_root_recovered(self, c):
        root = refine_bracket(lambda x: x - c, -10.0, 10.0)
        assert root == pytest.approx(c, abs=1e-8)


def _lane_function(kind: str, p: float, r: float):
    """A monotone increasing scalar function with its root at ``r``."""
    if kind == "line":
        return lambda x: p * (x - r)
    if kind == "cubic":
        return lambda x: p * (x - r) ** 3 + 0.1 * (x - r)
    if kind == "tanh":
        return lambda x: float(np.tanh(p * (x - r)))
    return lambda x: float(np.expm1(p * (x - r)))


def _run_lanes(functions, xa, xb):
    """brentq_lanes over scalar functions; returns roots, per-lane calls
    and the number of lanes in each round's call."""
    calls = np.zeros(len(functions), dtype=int)
    rounds = []

    def func(x, lanes):
        calls[lanes] += 1
        rounds.append(len(lanes))
        return np.array([functions[lane](float(v)) for v, lane in zip(x, lanes)])

    fa = np.array([f(a) for f, a in zip(functions, xa)])
    fb = np.array([f(b) for f, b in zip(functions, xb)])
    roots = brentq_lanes(
        func, np.array(xa), np.array(xb), fa, fb, xtol=1e-13, rtol=8.9e-16
    )
    return roots, calls, rounds


#: One lane: function kind, steepness, root, bracket half-widths and
#: whether one bracket end sits exactly on the root (f == 0 there).
_LANE = st.tuples(
    st.sampled_from(["line", "cubic", "tanh", "expm1"]),
    st.floats(min_value=0.2, max_value=8.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.floats(min_value=0.01, max_value=3.0),
    st.sampled_from([None, "a", "b"]),
)


class TestBrentqLanes:
    """The lockstep port against scipy's brentq, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LANE, min_size=1, max_size=6))
    def test_every_lane_is_scipy_brentq_bitwise(self, lanes):
        functions, xa, xb = [], [], []
        for kind, p, r, below, above, zero_end in lanes:
            functions.append(_lane_function(kind, p, r))
            xa.append(r if zero_end == "a" else r - below)
            xb.append(r if zero_end == "b" else r + above)
        roots, calls, _ = _run_lanes(functions, xa, xb)
        for j, f in enumerate(functions):
            want, info = brentq(
                f, xa[j], xb[j], xtol=1e-13, rtol=8.9e-16, full_output=True
            )
            assert roots[j] == want
            # The bracket ends are the caller's: every other call brentq
            # makes, the lockstep port makes too, and no more.
            assert calls[j] == info.function_calls - 2

    def test_endpoint_root_returns_without_a_call(self):
        f = _lane_function("tanh", 2.0, 0.5)
        roots, calls, _ = _run_lanes([f, f], [0.5, -1.0], [2.0, 0.5])
        assert list(roots) == [0.5, 0.5]
        assert list(calls) == [0, 0]

    def test_lanes_leave_as_they_converge(self):
        functions = [
            _lane_function("line", 1.0, 0.3),
            _lane_function("tanh", 6.0, -0.7),
            _lane_function("cubic", 3.0, 1.1),
        ]
        xa, xb = [-2.0, -3.0, -2.0], [2.0, 3.0, 3.0]
        roots, calls, rounds = _run_lanes(functions, xa, xb)
        assert len(set(calls)) > 1
        assert rounds == sorted(rounds, reverse=True) and rounds[0] == 3
        for f, root, a, b in zip(functions, roots, xa, xb):
            assert root == brentq(f, a, b, xtol=1e-13, rtol=8.9e-16)

    def test_rejects_non_bracketing(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq_lanes(
                lambda x, lanes: x, np.array([1.0]), np.array([2.0]),
                np.array([1.0]), np.array([2.0]),
            )
