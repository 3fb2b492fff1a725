"""TAB2 bench: tunnel diode lock limits, prediction vs transient simulation.

Regenerates the paper's second table:

    | SHIL       | lower lock limit | upper lock limit | lock range Df |
    | Simulation | 1.507185 GHz     | 1.512293 GHz     | 0.005108 GHz  |
    | Prediction | 1.507320 GHz     | 1.512429 GHz     | 0.005109 GHz  |
"""

from repro.experiments import run_experiment


def test_table2_tunnel(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("TAB2",), kwargs={"quick": True}, rounds=1, iterations=1)
    save_report(result)
    assert float(result.value("lower-limit relative error")) < 2e-3
    assert float(result.value("upper-limit relative error")) < 2e-3
    assert 0.9 < float(result.value("width ratio pred/sim")) < 1.1
    assert float(result.value("speedup (x)")) > 10.0
