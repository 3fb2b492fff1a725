"""Compiled-engine vs reference-loop equivalence and engine selection."""

import numpy as np
import pytest

from repro.experiments.circuits import (
    diffpair_oscillator,
    tanh_oscillator,
    tunnel_oscillator,
)
from repro.nonlin import NegativeTanh
from repro.odesim import (
    ENGINES,
    InjectionSpec,
    PulseSpec,
    default_engine,
    resolve_engine,
    set_default_engine,
    simulate_oscillator,
)
from repro.odesim.kernels import best_compiled_backend
from repro.tank import ParallelRLC

TANK = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
TANH = NegativeTanh(gm=2.5e-3, i_sat=1e-3)


def _pair(nonlinearity, tank, **kwargs):
    """(reference, auto) results of the same short transient."""
    ref = simulate_oscillator(nonlinearity, tank, engine="reference", **kwargs)
    fast = simulate_oscillator(nonlinearity, tank, engine="auto", **kwargs)
    return ref, fast


def _assert_equivalent(ref, fast):
    # The recording grid is computed identically on both paths; the
    # trajectories agree to integrator round-off (exactly equal grids,
    # near-exactly equal states).
    np.testing.assert_array_equal(ref.t, fast.t)
    scale = max(float(np.max(np.abs(ref.v))), 1e-300)
    np.testing.assert_allclose(fast.v, ref.v, rtol=0.0, atol=5e-12 * scale)
    scale_il = max(float(np.max(np.abs(ref.i_l))), 1e-300)
    np.testing.assert_allclose(fast.i_l, ref.i_l, rtol=0.0, atol=5e-12 * scale_il)


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("auto", "compiled", "reference")

    def test_resolve_explicit_beats_default(self):
        previous = set_default_engine("reference")
        try:
            assert resolve_engine(None) == "reference"
            assert resolve_engine("auto") == "auto"
        finally:
            set_default_engine(previous)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert default_engine() == "reference"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("spice")
        with pytest.raises(ValueError):
            set_default_engine("spice")

    def test_meta_records_engine_and_backend(self):
        period = 2.0 * np.pi / TANK.center_frequency
        ref = simulate_oscillator(TANH, TANK, t_end=3 * period, engine="reference")
        assert ref.meta["engine"] == "reference"
        assert ref.meta["backend"] == "reference"
        fast = simulate_oscillator(TANH, TANK, t_end=3 * period, engine="auto")
        assert fast.meta["engine"] == "auto"
        assert fast.meta["backend"] in ("c", "numpy")

    def test_compiled_engine_honest(self):
        period = 2.0 * np.pi / TANK.center_frequency
        if best_compiled_backend() is None:
            with pytest.raises(RuntimeError):
                simulate_oscillator(TANH, TANK, t_end=period, engine="compiled")
        else:
            result = simulate_oscillator(TANH, TANK, t_end=period, engine="compiled")
            assert result.meta["backend"] == "c"


class TestReferenceEquivalence:
    @pytest.mark.parametrize(
        "make_setup", [tanh_oscillator, diffpair_oscillator, tunnel_oscillator]
    )
    def test_injected_batch_all_families(self, make_setup):
        setup = make_setup()
        w_c = setup.tank.center_frequency
        period = 2.0 * np.pi / w_c
        ref, fast = _pair(
            setup.nonlinearity,
            setup.tank,
            t_end=40 * period,
            injection=InjectionSpec(
                v_i=setup.v_i, w=setup.n * w_c * np.array([0.995, 1.0, 1.005])
            ),
            steps_per_cycle=48,
            record_start=20 * period,
        )
        _assert_equivalent(ref, fast)

    def test_free_running_with_decimation(self):
        period = 2.0 * np.pi / TANK.center_frequency
        ref, fast = _pair(
            TANH, TANK, t_end=30 * period, record_every=7, record_start=3.2 * period
        )
        _assert_equivalent(ref, fast)

    def test_pulses(self):
        period = 2.0 * np.pi / TANK.center_frequency
        pulses = (
            PulseSpec(t_start=5 * period, duration=0.5 * period, current=5e-3),
            PulseSpec(t_start=12 * period, duration=0.75 * period, current=-3e-3),
        )
        ref, fast = _pair(TANH, TANK, t_end=25 * period, pulses=pulses)
        _assert_equivalent(ref, fast)

    def test_record_start_beyond_end_single_sample(self):
        period = 2.0 * np.pi / TANK.center_frequency
        ref, fast = _pair(TANH, TANK, t_end=2 * period, record_start=5 * period)
        assert ref.t.size == fast.t.size == 1
        _assert_equivalent(ref, fast)
