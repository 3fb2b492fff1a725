"""Tests for the one-pass lock-range predictor (Fig. 10 procedure)."""

import numpy as np
import pytest

from repro.core import TwoToneDF, predict_lock_range, solve_lock_states
from repro.core.averaging import SlowFlow
from repro.core.isolines import build_isoline_picture
from repro.core.lockrange import NoLockError, lock_range_by_frequency_scan
from repro.core.stability import classify_by_jacobian
from repro.nonlin import NegativeTanh
from repro.tank import ParallelRLC


@pytest.fixture(scope="module")
def setup():
    return (
        NegativeTanh(gm=2.5e-3, i_sat=1e-3),
        ParallelRLC(r=1000.0, l=100e-6, c=10e-9),
    )


@pytest.fixture(scope="module")
def lock_range(setup):
    tanh, tank = setup
    return predict_lock_range(tanh, tank, v_i=0.03, n=3)


class TestPredictLockRange:
    def test_brackets_center(self, setup, lock_range):
        _, tank = setup
        center = 3 * tank.center_frequency
        assert lock_range.injection_lower < center < lock_range.injection_upper

    def test_phi_d_symmetry(self, lock_range):
        # Appendix VI-B3: the lock range is symmetric in phase deviation.
        assert lock_range.phi_d_at_lower == pytest.approx(
            -lock_range.phi_d_at_upper, abs=1e-6
        )

    def test_phi_d_signs(self, lock_range):
        # Lower frequency <-> positive tank phase (inductive side).
        assert lock_range.phi_d_at_lower > 0.0
        assert lock_range.phi_d_at_upper < 0.0

    def test_amplitude_decreases_toward_edges(self, setup, lock_range):
        # Section IV-A: "A (and phi) decreases with increasing |w_c - w_i|".
        from repro.core import predict_natural_oscillation

        tanh, tank = setup
        natural = predict_natural_oscillation(tanh, tank)
        assert lock_range.amplitude_at_lower < natural.amplitude
        assert lock_range.amplitude_at_upper < natural.amplitude

    def test_consistent_with_pointwise_solver(self, setup, lock_range):
        # Locks exist just inside the predicted edges, none just outside.
        tanh, tank = setup
        margin = 3e-4
        inside_lo = lock_range.injection_lower * (1 + margin)
        outside_lo = lock_range.injection_lower * (1 - margin)
        inside_hi = lock_range.injection_upper * (1 - margin)
        outside_hi = lock_range.injection_upper * (1 + margin)
        assert solve_lock_states(tanh, tank, v_i=0.03, w_injection=inside_lo, n=3).locked
        assert not solve_lock_states(
            tanh, tank, v_i=0.03, w_injection=outside_lo, n=3
        ).locked
        assert solve_lock_states(tanh, tank, v_i=0.03, w_injection=inside_hi, n=3).locked
        assert not solve_lock_states(
            tanh, tank, v_i=0.03, w_injection=outside_hi, n=3
        ).locked

    def test_width_grows_with_injection(self, setup):
        tanh, tank = setup
        weak = predict_lock_range(tanh, tank, v_i=0.01, n=3)
        strong = predict_lock_range(tanh, tank, v_i=0.05, n=3)
        assert strong.width > weak.width

    def test_contains(self, setup, lock_range):
        _, tank = setup
        assert lock_range.contains(3 * tank.center_frequency)
        assert not lock_range.contains(3 * tank.center_frequency * 1.2)

    def test_samples_populated(self, lock_range):
        assert len(lock_range.samples) > 50
        stable = [p for p in lock_range.samples if p.stable]
        unstable = [p for p in lock_range.samples if not p.stable]
        assert stable and unstable

    def test_samples_are_locks_at_their_own_frequency(self, setup, lock_range):
        # Spot-check the invariant-curve interpretation: a sample point is
        # a lock state at the frequency its phi_d maps to.
        tanh, tank = setup
        sample = lock_range.samples[len(lock_range.samples) // 3]
        solution = solve_lock_states(
            tanh, tank, v_i=0.03, w_injection=3 * sample.w_i, n=3
        )
        amplitudes = [lock.amplitude for lock in solution.locks]
        assert any(abs(a - sample.amplitude) < 2e-3 for a in amplitudes)

    def test_grid_resolution_insensitivity(self, setup, lock_range):
        # Sub-grid refinement should make the edges nearly grid-independent.
        tanh, tank = setup
        coarse = predict_lock_range(tanh, tank, v_i=0.03, n=3, n_a=61, n_phi=121)
        assert coarse.injection_lower == pytest.approx(
            lock_range.injection_lower, rel=2e-5
        )
        assert coarse.injection_upper == pytest.approx(
            lock_range.injection_upper, rel=2e-5
        )

    def test_rejects_zero_injection(self, setup):
        tanh, tank = setup
        with pytest.raises(ValueError):
            predict_lock_range(tanh, tank, v_i=0.0, n=3)

    def test_fhil_special_case(self, setup):
        tanh, tank = setup
        fhil = predict_lock_range(tanh, tank, v_i=0.03, n=1)
        assert fhil.injection_lower < tank.center_frequency < fhil.injection_upper

    @pytest.mark.parametrize(
        "field, value", [("v_i", 0.04), ("n", 2), ("n_samples", 512), ("method", "dense")]
    )
    def test_mismatched_df_is_rejected_naming_the_field(self, setup, field, value):
        tanh, tank = setup
        requested = dict(v_i=0.03, n=3, n_samples=256, method="fft")
        df = TwoToneDF(tanh, **{**requested, field: value})
        with pytest.raises(ValueError, match=rf"solve: {field}={value!r} != "):
            predict_lock_range(
                tanh, tank, amplitude_window=(0.4, 1.6), df=df, **requested
            )


class TestDenseReferee:
    """``method="dense"`` runs the same solver on the exact quadrature."""

    @pytest.fixture(scope="class")
    def dense(self, setup):
        tanh, tank = setup
        return predict_lock_range(tanh, tank, v_i=0.03, n=3, method="dense")

    def test_stability_matches_the_reference_rule(self, setup, dense):
        # The batched trace/det rule, refereed by the scalar eigenvalue
        # classifier on the averaged flow at each sample's own frequency.
        tanh, tank = setup
        df = TwoToneDF(tanh, 0.03, 3, method="dense")
        assert dense.samples
        for p in dense.samples:
            flow = SlowFlow(df, tank, p.w_i)
            assert p.stable == classify_by_jacobian(flow, p.amplitude, p.phi).stable, p

    def test_edges_match_fft_path(self, dense, lock_range):
        # Same solver, two evaluators that agree to ~1e-18 A on this law.
        width = dense.width
        assert abs(dense.injection_lower - lock_range.injection_lower) < 1e-6 * width
        assert abs(dense.injection_upper - lock_range.injection_upper) < 1e-6 * width


@pytest.mark.parametrize(
    "entry, extra",
    [
        (predict_lock_range, {}),
        (build_isoline_picture, {}),
        (solve_lock_states, {"w_injection": 3.0e6}),
    ],
    ids=["predict_lock_range", "build_isoline_picture", "solve_lock_states"],
)
def test_inverted_amplitude_window_is_rejected(setup, entry, extra):
    # Every solver reads its grid from one rule, which checks the window.
    tanh, tank = setup
    with pytest.raises(ValueError, match="A_max > A_min"):
        entry(tanh, tank, v_i=0.03, n=3, amplitude_window=(1.6, 0.4), **extra)


class TestFrequencyScanParity:
    def test_scan_matches_one_pass(self, setup):
        # The naive per-frequency bisection must agree with the
        # invariant-curve shortcut (design-choice ablation, DESIGN.md).
        tanh, tank = setup
        one_pass = predict_lock_range(tanh, tank, v_i=0.03, n=3)
        scanned = lock_range_by_frequency_scan(
            tanh,
            tank,
            v_i=0.03,
            n=3,
            rel_tol=1e-5,
            n_a=81,
            n_phi=121,
        )
        assert scanned.injection_lower == pytest.approx(
            one_pass.injection_lower, rel=3e-5
        )
        assert scanned.injection_upper == pytest.approx(
            one_pass.injection_upper, rel=3e-5
        )

    def test_scan_raises_when_window_too_small(self, setup):
        # The scan window must bracket the lock range: if the oscillator
        # is still locked at the window edge, the bisection cannot start.
        tanh, tank = setup
        with pytest.raises(NoLockError, match="scan edge"):
            lock_range_by_frequency_scan(
                tanh, tank, v_i=0.03, n=3, rel_span=1e-4, n_a=61, n_phi=121
            )
