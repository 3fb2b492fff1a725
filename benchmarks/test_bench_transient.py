"""TRANSIENT bench: compiled RK4 stepping + early-exit lock detection vs
the pure-Python referee loop on end-to-end lock-range bisection
(report in results/TRANSIENT.txt)."""

from repro.experiments.extras import run_transient_bench


def test_transient_engine(benchmark, save_report, check_records):
    result = benchmark.pedantic(
        run_transient_bench, kwargs={"quick": True}, rounds=1, iterations=1
    )
    save_report(result)
    oscillators = result.data["oscillators"]
    check_records(oscillators)
    # The gate: >= 5x end-to-end on at least two oscillator families, with
    # both measured lock edges identical to the referee's answer (same
    # scan parameters, so the bisections must take the same steps).
    assert len(oscillators) >= 2
    for name, record in oscillators.items():
        assert record["speedup_x"] >= 5.0, (name, record)
        assert record["max_lock_edge_deviation_rad_s"] == 0.0, (name, record)
        assert record["steps_s_fast"] > record["steps_s_reference"], (name, record)
