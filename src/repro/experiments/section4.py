"""Section IV experiments: the paper flow on its two real oscillators.

Section IV-A runs the flow on the cross-coupled BJT diff-pair
(Figs. 12-15, Table 1), Section IV-B on the tunnel diode at UHF scale
(Figs. 16-19, Table 2; ``f_c = 503.3 MHz``, 3rd-SHIL injection near
1.51 GHz):

1. extract ``i = f(v)`` by DC sweep and predict the natural oscillation
   from it (Figs. 12 and 16 — :func:`run_fig12`, :func:`run_fig16`),
2. validate the predicted amplitude by transient simulation (Figs. 13, 17),
3. predict the 3rd-SHIL lock range (Figs. 14, 18) and the n states
   (Figs. 15, 19),
4. compare predicted and simulated lock limits (Tables 1, 2).

Steps 2-4 run in four drivers shared by both oscillators; a
:class:`Section4Oscillator` record carries everything that differs
between them (labels, ids, law, frequency unit, simulation windows).

The analysed law is used on *both* sides — prediction and simulation — so
each comparison isolates the describing-function approximation itself,
exactly as the paper's NGSPICE-vs-MATLAB comparison does.  The diff-pair
law is the DC-sweep-extracted table; the appendix tunnel-diode law is
analytic, so its extraction step doubles as a simulator self-check (the
DC sweep must reproduce the model exactly).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core import (
    enumerate_states,
    predict_lock_range,
    predict_natural_oscillation,
    solve_lock_states,
)
from repro.experiments.circuits import (
    DIFFPAIR_IEE,
    TUNNEL_BIAS,
    OscillatorSetup,
    diffpair_extracted_law,
    diffpair_oscillator,
    tunnel_extraction_circuit,
    tunnel_law,
    tunnel_oscillator,
)
from repro.experiments.result import ExperimentResult
from repro.measure import (
    Waveform,
    measure_steady_state,
    run_states_experiment,
    simulate_lock_range,
)
from repro.nonlin import CrossCoupledDiffPair, TunnelDiode, extract_iv_curve
from repro.nonlin.base import Nonlinearity
from repro.odesim import simulate_oscillator
from repro.viz.ascii import render_waveform

__all__ = [
    "DIFFPAIR",
    "TUNNEL",
    "Section4Oscillator",
    "run_fig12",
    "run_fig16",
    "run_lock_range",
    "run_lock_states",
    "run_lock_table",
    "run_transient",
]


@dataclass(frozen=True)
class Section4Oscillator:
    """What the shared Section IV drivers vary on, for one oscillator.

    Attributes
    ----------
    label:
        Name in report titles (``"diff-pair"``).
    transient_id, lockrange_id, states_id, table_id:
        Experiment ids of the four shared drivers' results.
    setup, law:
        The oscillator and the law every figure of it analyses.
    unit, unit_hz:
        Frequency unit of the report rows (``"MHz"``, ``1e6``).
    settle_cycles, tail_cycles:
        Transient validation length and its recorded tail, in periods.
    table_windows:
        :func:`~repro.measure.simulate_lock_range` keyword arguments of
        the lock table, ``(quick, full)``.
    """

    label: str
    transient_id: str
    lockrange_id: str
    states_id: str
    table_id: str
    setup: Callable[[], OscillatorSetup]
    law: Callable[[], Nonlinearity]
    unit: str
    unit_hz: float
    settle_cycles: float
    tail_cycles: float
    table_windows: tuple[dict, dict]


DIFFPAIR = Section4Oscillator(
    label="diff-pair",
    transient_id="FIG13",
    lockrange_id="FIG14",
    states_id="FIG15",
    table_id="TAB1",
    setup=diffpair_oscillator,
    law=diffpair_extracted_law,
    unit="MHz",
    unit_hz=1e6,
    settle_cycles=600.0,
    tail_cycles=60.0,
    # Acquisition scales with Q (~78 here): generous windows keep the
    # near-edge lock decisions clean.
    table_windows=(
        dict(scan_rel_span=0.009, batch=10, rounds=2,
             settle_cycles=400.0, acquire_cycles=800.0, observe_cycles=300.0),
        dict(scan_rel_span=0.009, batch=12, rounds=3,
             settle_cycles=500.0, acquire_cycles=1200.0, observe_cycles=400.0),
    ),
)

TUNNEL = Section4Oscillator(
    label="tunnel diode",
    transient_id="FIG17",
    lockrange_id="FIG18",
    states_id="FIG19",
    table_id="TAB2",
    setup=tunnel_oscillator,
    law=tunnel_law,
    unit="GHz",
    unit_hz=1e9,
    settle_cycles=1800.0,
    tail_cycles=80.0,
    # Q ~ 316: start-up and acquisition take many hundreds of cycles.
    table_windows=(
        dict(scan_rel_span=0.0045, batch=10, rounds=2,
             settle_cycles=1200.0, acquire_cycles=2000.0, observe_cycles=500.0),
        dict(scan_rel_span=0.0045, batch=12, rounds=3,
             settle_cycles=1500.0, acquire_cycles=3000.0, observe_cycles=700.0),
    ),
)


def run_fig12() -> ExperimentResult:
    """Fig. 12: extracted diff-pair ``f(v)`` and the A = 0.505 V prediction."""
    setup = diffpair_oscillator()
    t0 = time.perf_counter()
    law = diffpair_extracted_law()
    extraction_time = time.perf_counter() - t0
    natural = predict_natural_oscillation(law, setup.tank)
    analytic = CrossCoupledDiffPair(i_ee=DIFFPAIR_IEE)
    grid = np.linspace(-0.3, 0.3, 201)
    max_dev = float(np.max(np.abs(law(grid) - analytic(grid))))
    result = ExperimentResult("FIG12", "diff-pair f(v) extraction + natural oscillation")
    result.add("extraction DC-sweep time (s)", extraction_time)
    result.add("f(0) (A)", float(law(np.asarray(0.0))))
    result.add("f'(0) (S)", float(law.derivative(np.asarray(0.0))))
    result.add("analytic -IEE/(4VT) (S)", -analytic.startup_gm())
    result.add("max |extracted-analytic| on +-0.3V (A)", max_dev)
    result.add(
        "BC clamp visible beyond tanh region",
        bool(abs(float(law(np.asarray(0.6)))) > 4.0 * analytic.saturation_current()),
    )
    result.add("predicted natural amplitude A (V)", natural.amplitude)
    result.add("paper's reported amplitude (V)", 0.505)
    result.add("oscillation frequency (Hz)", natural.frequency_hz)
    result.add("paper's reported frequency (MHz)", 0.5033)
    result.data["law"] = law
    result.data["natural"] = natural
    return result


def run_fig16() -> ExperimentResult:
    """Fig. 16: tunnel diode f(v), biasing, and the A = 0.199 V prediction."""
    setup = tunnel_oscillator()
    model = TunnelDiode()
    t0 = time.perf_counter()
    table = extract_iv_curve(tunnel_extraction_circuit(), "VX", 0.0, 0.6, 121)
    extraction_time = time.perf_counter() - t0
    extraction_err = table.max_abs_error_against(model)
    natural = predict_natural_oscillation(tunnel_law(), setup.tank)
    result = ExperimentResult("FIG16", "tunnel diode f(v) + natural oscillation")
    result.add("extraction DC-sweep time (s)", extraction_time)
    result.add("extraction max error vs model (A)", extraction_err)
    result.add("NDR peak voltage (V)", model.peak_voltage())
    result.add("NDR valley voltage (V)", model.valley_voltage())
    result.add("bias point (V)", TUNNEL_BIAS)
    result.add(
        "negative resistance at bias",
        bool(model.derivative(np.asarray(TUNNEL_BIAS)) < 0.0),
    )
    result.add("predicted natural amplitude A (V)", natural.amplitude)
    result.add("paper's reported amplitude (V)", 0.199)
    result.add("oscillation frequency (GHz)", natural.frequency_hz / 1e9)
    result.add("paper's reported frequency (GHz)", 0.5033)
    result.data["table"] = table
    result.data["natural"] = natural
    return result


def run_transient(osc: Section4Oscillator) -> ExperimentResult:
    """Figs. 13/17: transient simulation validating the predicted amplitude."""
    setup = osc.setup()
    law = osc.law()
    natural = predict_natural_oscillation(law, setup.tank)
    period = 2.0 * np.pi / setup.w_c
    sim = simulate_oscillator(
        law,
        setup.tank,
        t_end=osc.settle_cycles * period,
        record_start=(osc.settle_cycles - osc.tail_cycles) * period,
    )
    waveform = Waveform(sim.t, sim.v[:, 0])
    state = measure_steady_state(waveform)
    result = ExperimentResult(osc.transient_id, f"{osc.label} transient validation of A")
    result.add("predicted A (V)", natural.amplitude)
    result.add("simulated A (V)", state.amplitude)
    result.add("relative error", abs(state.amplitude - natural.amplitude) / natural.amplitude)
    result.add(f"simulated frequency ({osc.unit})", state.frequency_hz / osc.unit_hz)
    result.add("waveform THD (sinusoidal check)", state.thd)
    result.add("settled", state.settled)
    result.ascii_plot = render_waveform(
        waveform.t, waveform.x, title=f"{osc.label} steady-state oscillation (tail)"
    )
    result.data["waveform"] = waveform
    result.data["steady_state"] = state
    return result


def run_lock_range(osc: Section4Oscillator) -> ExperimentResult:
    """Figs. 14/18: predicted 3rd-SHIL lock range."""
    setup = osc.setup()
    law = osc.law()
    lock_range = predict_lock_range(law, setup.tank, v_i=setup.v_i, n=setup.n)
    natural = predict_natural_oscillation(law, setup.tank)
    unit, scale = osc.unit, osc.unit_hz
    result = ExperimentResult(osc.lockrange_id, f"{osc.label} SHIL lock-range prediction")
    result.add("injection |V_i| (V)", setup.v_i)
    result.add("sub-harmonic order n", setup.n)
    result.add(f"lower lock limit ({unit})", lock_range.injection_lower_hz / scale)
    result.add(f"upper lock limit ({unit})", lock_range.injection_upper_hz / scale)
    result.add(f"lock range width ({unit})", lock_range.width_hz / scale)
    result.add("boundary phi_d (rad)", lock_range.phi_d_at_lower)
    result.add("A at lock edge (V)", lock_range.amplitude_at_lower)
    result.add("A under lock < natural A", lock_range.amplitude_at_lower < natural.amplitude)
    result.data["lock_range"] = lock_range
    return result


def run_lock_states(osc: Section4Oscillator, quick: bool = False) -> ExperimentResult:
    """Figs. 15/19: the three SHIL states via pulse perturbation."""
    setup = osc.setup()
    law = osc.law()
    solution = solve_lock_states(
        law, setup.tank, v_i=setup.v_i, w_injection=setup.n * setup.w_c, n=setup.n
    )
    lock = solution.stable_locks[0]
    states = enumerate_states(lock.phi, setup.n)
    pulse_times = (
        (900.37, 1800.71, 2700.13) if quick else (1500.37, 3000.71, 4500.13, 6000.59)
    )
    experiment = run_states_experiment(
        law,
        setup.tank,
        v_i=setup.v_i,
        w_injection=setup.n * setup.w_c,
        n=setup.n,
        theoretical_states=states,
        pulse_times_cycles=pulse_times,
        acquire_cycles=500.0 if quick else 700.0,
        settle_cycles=250.0 if quick else 350.0,
    )
    result = ExperimentResult(osc.states_id, f"{osc.label} SHIL states via pulse kicks")
    result.add("predicted lock amplitude (V)", lock.amplitude)
    result.add("theoretical states (rad)", ", ".join(f"{s:.4f}" for s in states))
    for k, seg in enumerate(experiment.segments):
        result.add(
            f"segment {k}",
            f"state {seg.state_index}, phase {seg.phase:.4f} rad, "
            f"A {seg.amplitude:.4f} V, locked={seg.locked}",
        )
    result.add("distinct states observed", len(experiment.observed_states))
    result.add("all n states observed", experiment.all_states_observed)
    errors = experiment.state_spacing_errors()
    if errors.size:
        result.add("max |phase - theory| (rad)", float(np.max(errors)))
    result.data["experiment"] = experiment
    return result


def run_lock_table(osc: Section4Oscillator, quick: bool = False) -> ExperimentResult:
    """Tables 1/2: predicted vs simulated 3rd-SHIL lock limits, and the
    prediction's speed-up over the transient simulation."""
    setup = osc.setup()
    law = osc.law()
    t0 = time.perf_counter()
    predicted = predict_lock_range(law, setup.tank, v_i=setup.v_i, n=setup.n)
    t_pred = time.perf_counter() - t0
    t0 = time.perf_counter()
    window = osc.table_windows[0 if quick else 1]
    simulated = simulate_lock_range(law, setup.tank, v_i=setup.v_i, n=setup.n, **window)
    t_sim = time.perf_counter() - t0
    unit, scale = osc.unit, osc.unit_hz
    result = ExperimentResult(
        osc.table_id, f"{osc.label} lock limits: prediction vs simulation"
    )
    for side, limits in (("simulated", simulated), ("predicted", predicted)):
        result.add(f"{side} lower limit ({unit})", limits.injection_lower_hz / scale)
        result.add(f"{side} upper limit ({unit})", limits.injection_upper_hz / scale)
        result.add(f"{side} width ({unit})", limits.width_hz / scale)
    result.add(
        "lower-limit relative error",
        abs(predicted.injection_lower - simulated.injection_lower)
        / simulated.injection_lower,
    )
    result.add(
        "upper-limit relative error",
        abs(predicted.injection_upper - simulated.injection_upper)
        / simulated.injection_upper,
    )
    result.add("width ratio pred/sim", predicted.width_hz / simulated.width_hz)
    result.add("prediction time (s)", t_pred)
    result.add("simulation time (s)", t_sim)
    result.add("speedup (x)", t_sim / t_pred)
    result.data["predicted"] = predicted
    result.data["simulated"] = simulated
    return result
