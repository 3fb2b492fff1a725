"""Batched sweep == scalar path, bit for bit and by property.

The engine's whole design rides on one claim: routing a group's points
through the shared amplitude window and an adopted stacked surface does
not change a single bit of ``predict_lock_range``'s answer.  These tests
pin that claim directly against the scalar entry point (not against
``run_sweep_pointwise``, which shares engine code).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import predict_lock_range
from repro.core.lockrange import NoLockError
from repro.sweep import SweepPoint, SweepSpec, run_sweep, run_sweep_pointwise
from repro.verify.scenarios import FAMILIES

#: Reduced characterisation grid: keeps each solve ~4x cheaper while
#: still exercising the full pipeline (both paths get the same grid).
FAST = dict(n_a=61, n_phi=121)


def _scalar_reference(point: SweepPoint, spec: SweepSpec):
    """What a scalar caller would get for this point (None = no lock)."""
    nonlinearity, tank = FAMILIES[point.family]()
    try:
        return predict_lock_range(
            nonlinearity,
            tank,
            v_i=point.v_i,
            n=point.n,
            n_a=spec.n_a,
            n_phi=spec.n_phi,
            n_samples=spec.n_samples,
            method=spec.method,
        )
    except NoLockError:
        return None


def _assert_matches_scalar(spec: SweepSpec, rel_tol: float = 1e-9):
    result = run_sweep(spec)
    for outcome in result.outcomes:
        reference = _scalar_reference(outcome.point, spec)
        if reference is None:
            assert outcome.status == "no-lock", outcome
            assert outcome.lock is None
            continue
        assert outcome.status == "ok", outcome
        width = reference.injection_upper - reference.injection_lower
        assert (
            abs(outcome.lock.injection_lower - reference.injection_lower)
            <= rel_tol * width
        )
        assert (
            abs(outcome.lock.injection_upper - reference.injection_upper)
            <= rel_tol * width
        )


class TestBitForBit:
    def test_tongue_matches_scalar_exactly(self):
        spec = SweepSpec.tongue(
            "tanh", 3, [0.02, 0.05], freq_count=3, escalate=False, **FAST
        )
        result = run_sweep(spec)
        for outcome in result.outcomes:
            reference = _scalar_reference(outcome.point, spec)
            # Not just within tolerance: the same floats.
            assert outcome.lock.injection_lower == reference.injection_lower
            assert outcome.lock.injection_upper == reference.injection_upper
            assert outcome.lock.samples == reference.samples

    def test_batched_matches_pointwise_runner(self):
        points = (
            SweepPoint(family="tanh", n=3, v_i=0.03),
            SweepPoint(family="tanh", n=3, v_i=0.6),  # deliberately no-lock
            SweepPoint(family="tanh", n=3, v_i=0.015, q_scale=0.5),
        )
        spec = SweepSpec(name="mixed", points=points, escalate=False, **FAST)
        batched = run_sweep(spec)
        pointwise = run_sweep_pointwise(spec)
        for b, p in zip(batched.outcomes, pointwise.outcomes):
            assert (b.status, b.locked) == (p.status, p.locked)
            if b.lock is None:
                assert p.lock is None
            else:
                assert b.lock.injection_lower == p.lock.injection_lower
                assert b.lock.injection_upper == p.lock.injection_upper


class TestPropertyTanh:
    @settings(max_examples=5, deadline=None)
    @given(
        v_i=st.floats(min_value=0.006, max_value=0.08),
        n=st.sampled_from([2, 3]),
    )
    def test_batched_width_matches_scalar(self, v_i, n):
        spec = SweepSpec(
            name="prop-tanh",
            points=(
                SweepPoint(family="tanh", n=n, v_i=v_i),
                SweepPoint(family="tanh", n=3, v_i=0.6),  # no-lock companion
            ),
            escalate=False,
            **FAST,
        )
        _assert_matches_scalar(spec)


@pytest.mark.tier2
class TestPropertySlowFamilies:
    """The diffpair and tunnel halves of the SPEED bench family trio.

    Each solve costs 0.3-0.8 s, so these run in the tier-2 lane with the
    verify matrix (``pytest -m tier2``).
    """

    @settings(max_examples=3, deadline=None)
    @given(v_i=st.floats(min_value=0.01, max_value=0.04))
    def test_diffpair(self, v_i):
        spec = SweepSpec(
            name="prop-diffpair",
            points=(SweepPoint(family="diffpair", n=3, v_i=v_i),),
            escalate=False,
            **FAST,
        )
        _assert_matches_scalar(spec)

    @settings(max_examples=3, deadline=None)
    @given(v_i=st.floats(min_value=0.01, max_value=0.03))
    def test_tunnel(self, v_i):
        spec = SweepSpec(
            name="prop-tunnel",
            points=(SweepPoint(family="tunnel", n=2, v_i=v_i),),
            escalate=False,
            **FAST,
        )
        _assert_matches_scalar(spec)
