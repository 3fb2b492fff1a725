"""FIG14 bench: predicted 3rd-SHIL lock range of the diff-pair."""

from repro.experiments import run_experiment


def test_fig14_diffpair_lockrange(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG14",), rounds=1, iterations=1)
    save_report(result)
    # Paper Table 1 prediction: [1.501065, 1.518735] MHz.
    lower = float(result.value("lower lock limit (MHz)"))
    upper = float(result.value("upper lock limit (MHz)"))
    assert abs(lower - 1.501065) < 0.002
    assert abs(upper - 1.518735) < 0.002
    # Fig. 14's qualitative signature: A decreases toward the lock edge.
    assert result.value("A under lock < natural A") == "yes"
