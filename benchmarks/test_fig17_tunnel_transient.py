"""FIG17 bench: transient simulation validating the tunnel-diode amplitude."""

from repro.experiments import run_experiment


def test_fig17_tunnel_transient(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG17",), rounds=1, iterations=1)
    save_report(result)
    assert float(result.value("relative error")) < 1e-3
    assert result.value("settled") == "yes"
    state = result.data["steady_state"]
    assert state.thd < 0.02
    assert abs(state.frequency_hz / 1e9 - 0.5033) < 0.001
