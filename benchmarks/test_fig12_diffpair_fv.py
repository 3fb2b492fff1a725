"""FIG12 bench: diff-pair f(v) extraction + natural-amplitude prediction."""

from repro.experiments import run_experiment


def test_fig12_diffpair_fv(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG12",), rounds=1, iterations=1)
    save_report(result)
    # Paper Fig. 12b: A = 0.505 V at 0.5033 MHz.
    predicted = float(result.value("predicted natural amplitude A (V)"))
    assert abs(predicted - 0.505) < 1e-3
    natural = result.data["natural"]
    assert abs(natural.frequency_hz - 503292.0) < 100.0
    # The extracted curve matches the analytic tanh inside its window but
    # adds the BC-clamp behaviour outside it.
    assert float(result.value("max |extracted-analytic| on +-0.3V (A)")) < 1e-5
    assert result.value("BC clamp visible beyond tanh region") == "yes"
