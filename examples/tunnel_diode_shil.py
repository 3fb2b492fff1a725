"""The paper's Section IV-B flow on the UHF tunnel diode oscillator.

Uses the appendix VI-C tunnel diode model biased at 0.25 V inside its
negative-differential-resistance region, reproduces the A = 0.199 V
natural oscillation at 503.3 MHz (Figs. 16-17), predicts the 3rd-SHIL
lock range near 1.51 GHz (Fig. 18 / Table 2), and demonstrates the three
lock states via pulse kicks (Fig. 19).

Run:  python examples/tunnel_diode_shil.py          (~1 min)
"""

import numpy as np

from repro.core import (
    enumerate_states,
    predict_lock_range,
    predict_natural_oscillation,
    solve_lock_states,
)
from repro.experiments.circuits import tunnel_law, tunnel_oscillator
from repro.measure import run_states_experiment
from repro.nonlin import TunnelDiode


def main() -> None:
    setup = tunnel_oscillator()
    tank = setup.tank
    model = TunnelDiode()
    print(f"tunnel diode: NDR between {model.peak_voltage():.3f} V and "
          f"{model.valley_voltage():.3f} V; biased at 0.25 V")
    print(f"tank: f_c = {tank.center_frequency_hz / 1e6:.1f} MHz, "
          f"Q = {tank.quality_factor:.0f}")

    law = tunnel_law()
    natural = predict_natural_oscillation(law, tank)
    print(f"natural oscillation: A = {natural.amplitude:.4f} V "
          f"(paper: 0.199 V) at {natural.frequency_hz / 1e9:.4f} GHz")

    lock_range = predict_lock_range(law, tank, v_i=setup.v_i, n=setup.n)
    print(f"3rd-SHIL lock range: [{lock_range.injection_lower_hz / 1e9:.6f}, "
          f"{lock_range.injection_upper_hz / 1e9:.6f}] GHz "
          f"(paper prediction: [1.507320, 1.512429] GHz)")

    # The three lock states (Fig. 19): kick the locked oscillator with
    # short current pulses and watch it settle into different phases.
    w_inj = setup.n * tank.center_frequency
    solution = solve_lock_states(law, tank, v_i=setup.v_i, w_injection=w_inj, n=setup.n)
    lock = solution.stable_locks[0]
    states = enumerate_states(lock.phi, setup.n)
    print(f"\ntheoretical state phases: "
          f"{', '.join(f'{s:.4f}' for s in states)} rad (spacing 2 pi / 3)")
    experiment = run_states_experiment(
        law, tank,
        v_i=setup.v_i, w_injection=w_inj, n=setup.n,
        theoretical_states=states,
        pulse_times_cycles=(900.37, 1800.71, 2700.13),
        acquire_cycles=500.0, settle_cycles=250.0,
    )
    for k, seg in enumerate(experiment.segments):
        print(f"  segment {k}: settled in state {seg.state_index} "
              f"(phase {seg.phase:.4f} rad, A = {seg.amplitude:.4f} V)")
    print(f"distinct states observed: {sorted(experiment.observed_states)}")


if __name__ == "__main__":
    main()
