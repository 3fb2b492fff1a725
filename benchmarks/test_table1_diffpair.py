"""TAB1 bench: diff-pair lock limits, prediction vs transient simulation.

This regenerates the paper's first table:

    | SHIL       | lower lock limit | upper lock limit | lock range Df |
    | Simulation | 1.4998 MHz       | 1.5174 MHz       | 0.0176 MHz    |
    | Prediction | 1.501065 MHz     | 1.518735 MHz     | 0.01767 MHz   |

The shape assertions: prediction and simulation agree to ~1e-3 relative
on both edges, the widths match within a few percent, and the predictor
is 1-2 orders of magnitude faster.
"""

from repro.experiments import run_experiment


def test_table1_diffpair(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("TAB1",), kwargs={"quick": True}, rounds=1, iterations=1)
    save_report(result)
    assert float(result.value("lower-limit relative error")) < 2e-3
    assert float(result.value("upper-limit relative error")) < 2e-3
    assert 0.93 < float(result.value("width ratio pred/sim")) < 1.07
    assert float(result.value("speedup (x)")) > 10.0
