"""SPEED bench: the paper's 25x/50x prediction-vs-simulation speedup claim,
plus the FFT-factorised fast path vs the dense-quadrature referee
(report in results/SPEED.txt)."""

from repro.experiments.extras import run_speedup


def test_speedup(benchmark, save_report, check_records):
    result = benchmark.pedantic(run_speedup, kwargs={"quick": True}, rounds=1, iterations=1)
    save_report(result)
    # "1-2 orders of magnitude faster": anything >= 10x reproduces the
    # claim's order of magnitude on this substrate.
    assert float(result.value("speedup (x)")) > 10.0
    predicted = result.data["predicted"]
    simulated = result.data["simulated"]
    assert abs(predicted.width_hz / simulated.width_hz - 1.0) < 0.1

    # FFT fast path vs dense referee on the three paper prediction paths.
    # Both run the one lock-range solver; ``method`` picks its I_1
    # evaluator, so the exact-quadrature counts say which path ran: the
    # fft prediction never calls the quadrature (FIG14's diffpair law
    # takes the dense-grid fallback, which does), and the dense referee
    # never touches an FFT surface or its spline fallback.
    methods = result.data["methods"]
    check_records(methods)
    for fig, record in methods.items():
        if fig != "FIG14":
            assert record["fft_evaluations"]["dense"] == 0, (fig, record)
        assert record["dense_evaluations"]["fft"] == 0, (fig, record)
        assert record["dense_evaluations"]["fft-spline"] == 0, (fig, record)
        assert record["max_i1_deviation_A"] <= 1e-12, (fig, record)
        assert record["t_warm_characterize_s"] < 0.1, (fig, record)
        assert record["edge_deviation_rel_width"] < 1e-4, (fig, record)
