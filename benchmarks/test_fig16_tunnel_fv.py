"""FIG16 bench: tunnel diode f(v) + natural-amplitude prediction."""

from repro.experiments import run_experiment


def test_fig16_tunnel_fv(benchmark, save_report):
    result = benchmark.pedantic(run_experiment, args=("FIG16",), rounds=1, iterations=1)
    save_report(result)
    # Paper Fig. 16c: A = 0.199 V at 0.5033 GHz, bias inside the NDR.
    assert abs(float(result.value("predicted natural amplitude A (V)")) - 0.199) < 2e-3
    assert result.value("negative resistance at bias") == "yes"
    peak = float(result.value("NDR peak voltage (V)"))
    valley = float(result.value("NDR valley voltage (V)"))
    assert peak < 0.25 < valley
