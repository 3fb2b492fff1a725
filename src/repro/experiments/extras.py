"""Speedup measurement and the ablation experiments (DESIGN.md SPEED/ABL1/ABL2)."""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import adler_shil_lock_range, compute_ppv, ppv_lock_range
from repro.core import predict_lock_range
from repro.core.lockrange import lock_range_by_frequency_scan
from repro.core.natural import lock_grid
from repro.core.two_tone import TwoToneDF
from repro.experiments.circuits import (
    diffpair_oscillator,
    tanh_oscillator,
    tunnel_oscillator,
)
from repro.experiments.result import ExperimentResult
from repro.measure import simulate_lock_range
from repro.obs import metrics
from repro.perf import cache_sandbox

__all__ = [
    "run_speedup",
    "run_transient_bench",
    "run_sweep_bench",
    "run_ablation_grid",
    "run_ablation_baselines",
    "run_ablation_filtering",
]


#: The ``df.evaluations`` labels: the exact quadrature, the FFT surface and
#: the dense-grid spline fallback.
_EVALUATORS = ("dense", "fft", "fft-spline")


def _timed_prediction(setup, method: str):
    """One prediction: ``(lock range, wall seconds, {label: df evaluations})``."""
    before = {
        label: metrics.counter("df.evaluations", method=label) for label in _EVALUATORS
    }
    t0 = time.perf_counter()
    lock = predict_lock_range(
        setup.nonlinearity, setup.tank, v_i=setup.v_i, n=setup.n, method=method
    )
    seconds = time.perf_counter() - t0
    evaluations = {
        label: int(metrics.counter("df.evaluations", method=label) - before[label])
        for label in _EVALUATORS
    }
    return lock, seconds, evaluations


def compare_methods(setup) -> dict:
    """Cold dense vs cold FFT vs warm-cache timings for one oscillator.

    Returns a JSON-able record: wall-clock of ``predict_lock_range`` under
    both methods with the disk cache disabled (true cold), the
    ``df.evaluations`` each of those predictions made per evaluator (so a
    method's prediction provably ran on its own evaluator only), the
    maximum ``|I_1^fft - I_1^dense|`` over the characterisation grid, the
    relative lock-edge disagreement, and the warm re-characterisation time
    after the disk cache has been primed.
    """
    nonlinearity, tank = setup.nonlinearity, setup.tank
    v_i, n = setup.v_i, setup.n

    with cache_sandbox(disabled=True):
        fast, t_fft, fft_evaluations = _timed_prediction(setup, "fft")
        dense, t_dense, dense_evaluations = _timed_prediction(setup, "dense")
        # Max I_1 deviation over the exact grids the predictor consumed
        # (at its default resolution).
        _, amplitudes, phis = lock_grid(nonlinearity, tank, n_a=121, n_phi=241)
        tank_r = tank.peak_resistance
        g_fft = TwoToneDF(nonlinearity, v_i, n, method="fft").characterize(
            amplitudes, phis, tank_r
        )
        g_dense = TwoToneDF(nonlinearity, v_i, n, method="dense").characterize(
            amplitudes, phis, tank_r
        )
        i1_dev = float(
            np.max(
                np.hypot(
                    g_fft.surfaces["i1x"] - g_dense.surfaces["i1x"],
                    g_fft.surfaces["i1y"] - g_dense.surfaces["i1y"],
                )
            )
        )

    # Prime the disk cache, then time a fresh characterisation that can
    # only hit it (new TwoToneDF instance -> empty in-memory memo).
    TwoToneDF(nonlinearity, v_i, n).characterize(amplitudes, phis, tank.peak_resistance)
    t0 = time.perf_counter()
    TwoToneDF(nonlinearity, v_i, n).characterize(amplitudes, phis, tank.peak_resistance)
    t_warm = time.perf_counter() - t0

    edge_dev = max(
        abs(fast.injection_lower - dense.injection_lower),
        abs(fast.injection_upper - dense.injection_upper),
    ) / max(dense.injection_upper - dense.injection_lower, 1e-300)
    return {
        "oscillator": setup.name,
        "t_fft_cold_s": t_fft,
        "t_dense_cold_s": t_dense,
        "speedup_x": t_dense / t_fft,
        "fft_evaluations": fft_evaluations,
        "dense_evaluations": dense_evaluations,
        "max_i1_deviation_A": i1_dev,
        "edge_deviation_rel_width": float(edge_dev),
        "t_warm_characterize_s": t_warm,
        "width_hz_fft": fast.width_hz,
        "width_hz_dense": dense.width_hz,
    }


def run_speedup(quick: bool = False) -> ExperimentResult:
    """SPEED: wall-clock of the predictor vs transient-based extraction.

    The paper reports 25x (diff-pair) and 50x (tunnel) against NGSPICE;
    this bench measures the same ratio against this library's own
    transient path on the tanh demo oscillator (the circuits are
    frequency-scaled copies of each other dynamically, so the ratio is
    representative).  It also measures the FFT-factorised fast path
    against the dense-quadrature referee on all three paper oscillators,
    cold- and warm-cache.  The FIG10 and FIG14 rows are those figures'
    prediction paths.  The FIG18 row runs :func:`tunnel_oscillator`'s
    analytic law, while FIG18 and TAB2 predict on the 4097-point
    :func:`~repro.experiments.circuits.tunnel_law` table, whose surface
    misses the FFT convergence threshold, so those figures take the
    dense-grid fallback.
    """
    setup = tanh_oscillator()
    t0 = time.perf_counter()
    predicted = predict_lock_range(setup.nonlinearity, setup.tank, v_i=setup.v_i, n=setup.n)
    t_pred = time.perf_counter() - t0
    sim_kwargs = dict(scan_rel_span=0.01, batch=10, rounds=2) if quick else dict(
        scan_rel_span=0.01, batch=12, rounds=3
    )
    t0 = time.perf_counter()
    simulated = simulate_lock_range(
        setup.nonlinearity, setup.tank, v_i=setup.v_i, n=setup.n, **sim_kwargs
    )
    t_sim = time.perf_counter() - t0
    result = ExperimentResult("SPEED", "prediction vs simulation wall-clock")
    result.add("prediction time (s)", t_pred)
    result.add("simulation time (s)", t_sim)
    result.add("speedup (x)", t_sim / t_pred)
    result.add("paper's reported speedups", "25x (diff-pair), 50x (tunnel)")
    result.add("predicted width (Hz)", predicted.width_hz)
    result.add("simulated width (Hz)", simulated.width_hz)
    result.data["predicted"] = predicted
    result.data["simulated"] = simulated

    methods = {}
    for fig, make_setup in (
        ("FIG10", tanh_oscillator),
        ("FIG14", diffpair_oscillator),
        ("FIG18", tunnel_oscillator),
    ):
        record = compare_methods(make_setup())
        methods[fig] = record
        result.add(
            f"{fig} fft vs dense (cold)",
            f"{record['speedup_x']:.1f}x "
            f"({record['t_fft_cold_s']:.2f} s vs {record['t_dense_cold_s']:.2f} s), "
            f"max |dI_1| {record['max_i1_deviation_A']:.1e} A, "
            f"warm re-char {record['t_warm_characterize_s'] * 1e3:.0f} ms",
        )
        result.add(
            f"{fig} df evaluations",
            "; ".join(
                f"{method} prediction "
                + ", ".join(f"{count} {label}" for label, count in record[key].items())
                for method, key in (
                    ("fft", "fft_evaluations"),
                    ("dense", "dense_evaluations"),
                )
            ),
        )
    result.data["methods"] = methods
    return result


def _bench_transient_family(setup, sim_kwargs: dict) -> dict:
    """Lock-range bisection with the compiled engine vs the referee loop.

    Both runs use identical scan/refinement parameters, so the referee's
    bisection resolution bounds the allowed edge deviation; ``steps_s`` is
    RK4 state-updates per wall second (batch members x steps), read from
    the ``odesim.steps`` counter.
    """
    args = (setup.nonlinearity, setup.tank)
    kwargs = dict(v_i=setup.v_i, n=setup.n, **sim_kwargs)

    steps0 = metrics.counter("odesim.steps")
    t0 = time.perf_counter()
    ref = simulate_lock_range(*args, engine="reference", **kwargs)
    t_ref = time.perf_counter() - t0
    steps_ref = metrics.counter("odesim.steps") - steps0

    early0 = metrics.counter("odesim.early_exits")
    steps0 = metrics.counter("odesim.steps")
    t0 = time.perf_counter()
    fast = simulate_lock_range(*args, engine="auto", **kwargs)
    t_fast = time.perf_counter() - t0
    steps_fast = metrics.counter("odesim.steps") - steps0

    edge_dev = max(
        abs(fast.injection_lower - ref.injection_lower),
        abs(fast.injection_upper - ref.injection_upper),
    )
    return {
        "oscillator": setup.name,
        "t_reference_s": t_ref,
        "t_fast_s": t_fast,
        "speedup_x": t_ref / t_fast,
        "steps_s_reference": steps_ref / max(t_ref, 1e-12),
        "steps_s_fast": steps_fast / max(t_fast, 1e-12),
        "max_lock_edge_deviation_rad_s": float(edge_dev),
        "bisection_resolution_rad_s": float(ref.resolution),
        "width_hz_reference": ref.width_hz,
        "width_hz_fast": fast.width_hz,
    }


def run_transient_bench(quick: bool = False) -> ExperimentResult:
    """TRANSIENT: compiled stepping + early exit vs the reference loop.

    End-to-end lock-range bisection per oscillator family, once through
    the fast engine (compiled RK4 kernel, streaming early-exit
    classification) and once through the pure-Python referee
    (``engine="reference"``), asserting the measured lock edges agree
    within the bisection resolution.  ``quick`` drops the diff-pair
    family and one refinement round (the CI configuration).
    """
    from repro.odesim import best_compiled_backend

    sim_kwargs = dict(scan_rel_span=0.01, batch=12, rounds=2 if quick else 3)
    families = [tanh_oscillator, tunnel_oscillator]
    if not quick:
        families.insert(1, diffpair_oscillator)

    result = ExperimentResult("TRANSIENT", "fast transient engine vs referee")
    result.add("compiled backend", best_compiled_backend() or "numpy-fallback")
    oscillators = {}
    for make_setup in families:
        setup = make_setup()
        record = _bench_transient_family(setup, dict(sim_kwargs))
        oscillators[setup.name] = record
        result.add(
            f"{setup.name} fast vs reference",
            f"{record['speedup_x']:.1f}x "
            f"({record['t_fast_s']:.2f} s vs {record['t_reference_s']:.2f} s), "
            f"{record['steps_s_fast']:.3g} steps/s, "
            f"edge dev {record['max_lock_edge_deviation_rad_s']:.3g} rad/s "
            f"(resolution {record['bisection_resolution_rad_s']:.3g})",
        )
    result.data["oscillators"] = oscillators
    return result


def run_sweep_bench(quick: bool = False) -> ExperimentResult:
    """SWEEP: batched tongue-map sweep vs the scalar point loop.

    Runs the 32x32 tanh ``(V_i, w_i)`` Arnol'd-tongue grid through the
    batched engine, then times the scalar point loop on a measured subset
    — one point per ``V_i`` row (``quick``) or two (full) — and
    extrapolates to the full grid.  The extrapolation is exact by
    construction: the scalar cost of a tongue point is its lock-range
    solve, which does not depend on ``w_i``, so every point of a row
    costs the same.  Both paths run with the disk cache disabled — the
    comparison is the honest cold-path cost, and the batched advantage is
    purely in-process amortisation (one stacked pre-characterisation and
    one lock solve per ``V_i`` shared across the frequency axis).
    """
    from dataclasses import replace

    from repro.sweep import SweepSpec, build_plan, run_sweep, run_sweep_pointwise

    vi_count, freq_count = 32, 32
    spec = SweepSpec.tongue(
        "tanh",
        3,
        np.linspace(0.005, 0.06, vi_count),
        freq_rel_span=0.005,
        freq_count=freq_count,
        name="bench-tongue-tanh",
    )
    plan = build_plan(spec)

    with cache_sandbox(disabled=True):
        t0 = time.perf_counter()
        batched = run_sweep(spec)
        t_batch = time.perf_counter() - t0

        # Scalar subset: per_row points per V_i row, columns striding the
        # frequency axis so the subset still spans the tongue.
        per_row = 1 if quick else 2
        subset_indices = [
            row * freq_count + (row * 7 + k * 17) % freq_count
            for row in range(vi_count)
            for k in range(per_row)
        ]
        subset = replace(
            spec,
            points=tuple(spec.points[i] for i in subset_indices),
            name=f"{spec.name}-scalar-subset",
        )
        t0 = time.perf_counter()
        scalar = run_sweep_pointwise(subset)
        t_scalar_measured = time.perf_counter() - t0

    # Per-point agreement on the measured subset: statuses and locked
    # verdicts must match, lock widths must agree to the declared
    # tolerance (the batched path is bit-for-bit by construction).
    tolerance_rel = 1e-9
    max_dev = 0.0
    status_mismatches = 0
    for scalar_out, index in zip(scalar.outcomes, subset_indices):
        batch_out = batched.outcomes[index]
        if (scalar_out.status, scalar_out.locked) != (
            batch_out.status,
            batch_out.locked,
        ):
            status_mismatches += 1
            continue
        if scalar_out.lock is not None and batch_out.lock is not None:
            ref = max(abs(scalar_out.lock.width_hz), 1e-300)
            max_dev = max(
                max_dev,
                abs(batch_out.lock.width_hz - scalar_out.lock.width_hz) / ref,
            )

    points_total = len(spec.points)
    t_scalar_extrapolated = t_scalar_measured * points_total / len(subset_indices)
    record = {
        "grid": f"{vi_count}x{freq_count}",
        "t_batch_s": t_batch,
        "t_scalar_measured_s": t_scalar_measured,
        "scalar_points_measured": len(subset_indices),
        "points_total": points_total,
        "t_scalar_extrapolated_s": t_scalar_extrapolated,
        "speedup_x": t_scalar_extrapolated / max(t_batch, 1e-12),
        "max_width_deviation_rel": max_dev,
        "tolerance_rel": tolerance_rel,
        "status_mismatches": status_mismatches,
        "locked_points": sum(1 for o in batched.outcomes if o.locked is True),
        "unlocked_points": sum(1 for o in batched.outcomes if o.locked is False),
        "lock_solves": batched.lock_solves,
        "groups": batched.n_groups,
    }

    result = ExperimentResult("SWEEP", "batched tongue sweep vs scalar point loop")
    result.add("grid (V_i x w_i)", record["grid"])
    result.add(
        "plan", f"{plan.n_points} points -> {plan.n_lock_solves} lock solves"
    )
    result.add(
        "batched vs scalar",
        f"{record['speedup_x']:.1f}x ({t_batch:.2f} s vs "
        f"{t_scalar_extrapolated:.2f} s extrapolated from "
        f"{len(subset_indices)} measured points in {t_scalar_measured:.2f} s)",
    )
    result.add("max width deviation (rel)", record["max_width_deviation_rel"])
    result.add("status mismatches", record["status_mismatches"])
    result.add(
        "tongue",
        f"{record['locked_points']} locked / {record['unlocked_points']} "
        "unlocked points",
    )
    result.data["grids"] = {f"tanh-n3-{record['grid']}": record}
    return result


def run_ablation_grid() -> ExperimentResult:
    """ABL1: lock-limit error vs pre-characterisation resolution.

    Sweeps the ``(n_a, n_phi)`` grid and the Fourier sample count, using
    the finest setting as reference — quantifying the "minimal cost"
    claim for the pre-characterisation step.
    """
    setup = tanh_oscillator()
    reference = predict_lock_range(
        setup.nonlinearity,
        setup.tank,
        v_i=setup.v_i,
        n=setup.n,
        n_a=241,
        n_phi=481,
        n_samples=512,
    )
    result = ExperimentResult("ABL1", "grid-resolution ablation of the predictor")
    result.add(
        "reference (finest) range (Hz)",
        f"[{reference.injection_lower_hz:.2f}, {reference.injection_upper_hz:.2f}]",
    )
    configs = [
        (31, 61, 64),
        (61, 121, 128),
        (121, 241, 256),
        (181, 361, 384),
    ]
    for n_a, n_phi, n_samples in configs:
        t0 = time.perf_counter()
        lr = predict_lock_range(
            setup.nonlinearity,
            setup.tank,
            v_i=setup.v_i,
            n=setup.n,
            n_a=n_a,
            n_phi=n_phi,
            n_samples=n_samples,
        )
        elapsed = time.perf_counter() - t0
        err = max(
            abs(lr.injection_lower - reference.injection_lower),
            abs(lr.injection_upper - reference.injection_upper),
        ) / reference.injection_lower
        result.add(
            f"grid {n_a}x{n_phi}, {n_samples} samples",
            f"edge err {err:.2e} rel, {elapsed:.2f} s",
        )
        result.data[f"{n_a}x{n_phi}x{n_samples}"] = (err, elapsed)
    return result


def run_ablation_filtering() -> ExperimentResult:
    """ABL3: cost of the filtering assumption — DF vs harmonic balance vs sim.

    The describing-function method assumes the oscillator runs exactly at
    the tank centre; harmonic balance drops that assumption.  Comparing
    both against transient simulation on the Q = 10 demo oscillator
    quantifies the finite-Q error the graphical method accepts (and shows
    it is negligible at the Section IV oscillators' higher Q).
    """
    import numpy as np

    from repro.core import (
        hb_natural_oscillation,
        predict_natural_oscillation,
        solve_lock_states,
    )
    from repro.core.harmonic_balance import hb_lock_state
    from repro.measure import Waveform, detect_lock, measure_steady_state
    from repro.odesim import InjectionSpec, simulate_oscillator

    setup = tanh_oscillator()
    tank = setup.tank
    period = 2 * np.pi / tank.center_frequency
    result = ExperimentResult("ABL3", "filtering-assumption ablation (DF vs HB vs sim)")

    # Free-running frequency and amplitude.
    df = predict_natural_oscillation(setup.nonlinearity, tank)
    hb = hb_natural_oscillation(setup.nonlinearity, tank, k_max=7)
    sim = simulate_oscillator(
        setup.nonlinearity, tank, t_end=500 * period,
        record_start=420 * period, steps_per_cycle=128,
    )
    state = measure_steady_state(Waveform(sim.t, sim.v[:, 0]))
    result.add("simulated frequency (Hz)", state.frequency_hz)
    result.add("DF frequency (= f_c) error (Hz)", tank.center_frequency_hz - state.frequency_hz)
    result.add("HB frequency error (Hz)", hb.frequency_hz - state.frequency_hz)
    result.add("simulated amplitude (V)", state.amplitude)
    result.add("DF amplitude error (V)", df.amplitude - state.amplitude)
    result.add("HB amplitude error (V)", hb.amplitude - state.amplitude)
    result.add("HB-predicted voltage THD", hb.thd())
    result.add("simulated voltage THD", state.thd)

    # Locked phase at the centre injection.
    w_inj = 3 * tank.center_frequency
    sim2 = simulate_oscillator(
        setup.nonlinearity, tank, t_end=900 * period,
        injection=InjectionSpec(v_i=setup.v_i, w=np.array([w_inj])),
        record_start=600 * period, steps_per_cycle=128,
    )
    verdict = detect_lock(Waveform(sim2.t, sim2.v[:, 0]), w_inj, 3)
    solution = solve_lock_states(
        setup.nonlinearity, tank, v_i=setup.v_i, w_injection=w_inj, n=3
    )
    stable = solution.stable_locks[0]
    df_phase_err = float(
        np.min(np.abs(np.angle(np.exp(1j * (verdict.phase - stable.oscillator_phases)))))
    )
    hb_lock = hb_lock_state(
        setup.nonlinearity, tank, v_i=setup.v_i, w_injection=w_inj, n=3
    )
    hb_states = np.mod(
        hb_lock.fundamental_phase + 2 * np.pi * np.arange(3) / 3, 2 * np.pi
    )
    hb_phase_err = float(
        np.min(np.abs(np.angle(np.exp(1j * (verdict.phase - hb_states)))))
    )
    result.add("DF lock-phase error (rad)", df_phase_err)
    result.add("HB lock-phase error (rad)", hb_phase_err)
    result.data["df"] = df
    result.data["hb"] = hb
    result.data["sim_state"] = state
    result.data["phase_errors"] = (df_phase_err, hb_phase_err)
    return result


def run_ablation_baselines(quick: bool = False) -> ExperimentResult:
    """ABL2: graphical method vs invariant-curve-less scan, Adler and PPV.

    Four predictors of the same tanh-oscillator lock range, plus the
    simulated ground truth — the accuracy/insight trade the paper argues.
    """
    setup = tanh_oscillator()
    result = ExperimentResult("ABL2", "lock-range baselines comparison")

    t0 = time.perf_counter()
    graphical = predict_lock_range(setup.nonlinearity, setup.tank, v_i=setup.v_i, n=setup.n)
    t_graph = time.perf_counter() - t0
    result.add(
        "graphical (one pass)",
        f"[{graphical.injection_lower_hz:.1f}, {graphical.injection_upper_hz:.1f}] Hz, "
        f"{t_graph:.2f} s",
    )

    t0 = time.perf_counter()
    scanned = lock_range_by_frequency_scan(
        setup.nonlinearity,
        setup.tank,
        v_i=setup.v_i,
        n=setup.n,
        rel_tol=1e-5,
        n_a=81,
        n_phi=121,
    )
    t_scan = time.perf_counter() - t0
    result.add(
        "frequency-scan predictor (no invariant-curve shortcut)",
        f"[{scanned.injection_lower_hz:.1f}, {scanned.injection_upper_hz:.1f}] Hz, "
        f"{t_scan:.2f} s",
    )
    result.add("invariant-curve shortcut speedup (x)", t_scan / t_graph)

    adler = adler_shil_lock_range(setup.nonlinearity, setup.tank, v_i=setup.v_i, n=setup.n)
    result.add(
        "generalised Adler (fixed amplitude)",
        f"[{adler.injection_lower_hz:.1f}, {adler.injection_upper_hz:.1f}] Hz",
    )

    model = compute_ppv(setup.nonlinearity, setup.tank)
    lo, hi = ppv_lock_range(
        setup.nonlinearity, setup.tank, v_i=setup.v_i, n=setup.n, model=model
    )
    result.add(
        "PPV phase macromodel (ref [17])",
        f"[{lo / (2 * np.pi):.1f}, {hi / (2 * np.pi):.1f}] Hz",
    )

    if not quick:
        simulated = simulate_lock_range(
            setup.nonlinearity,
            setup.tank,
            v_i=setup.v_i,
            n=setup.n,
            scan_rel_span=0.01,
            batch=12,
            rounds=3,
        )
        result.add(
            "transient simulation (ground truth)",
            f"[{simulated.injection_lower_hz:.1f}, {simulated.injection_upper_hz:.1f}] Hz",
        )
        result.data["simulated"] = simulated
    result.data["graphical"] = graphical
    result.data["adler"] = adler
    result.data["ppv"] = (lo, hi)
    return result
