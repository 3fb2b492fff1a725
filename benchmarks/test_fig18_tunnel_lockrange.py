"""FIG18 bench: predicted 3rd-SHIL lock range of the tunnel diode oscillator."""

from repro.experiments import run_experiment


def test_fig18_tunnel_lockrange(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG18",), rounds=1, iterations=1)
    save_report(result)
    # Paper Table 2 prediction: [1.507320, 1.512429] GHz.
    lower = float(result.value("lower lock limit (GHz)"))
    upper = float(result.value("upper lock limit (GHz)"))
    assert abs(lower - 1.507320) < 0.001
    assert abs(upper - 1.512429) < 0.001
    assert result.value("A under lock < natural A") == "yes"
