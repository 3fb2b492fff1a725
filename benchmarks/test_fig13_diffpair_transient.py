"""FIG13 bench: transient simulation validating the diff-pair amplitude."""

from repro.experiments import run_experiment


def test_fig13_diffpair_transient(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG13",), rounds=1, iterations=1)
    save_report(result)
    # Fig. 13: settled sinusoidal oscillation at the predicted amplitude.
    assert float(result.value("relative error")) < 2e-3
    assert result.value("settled") == "yes"
    state = result.data["steady_state"]
    assert state.thd < 0.05  # the filtering assumption: low-distortion v
    assert abs(state.frequency_hz / 1e6 - 0.5033) < 0.002
