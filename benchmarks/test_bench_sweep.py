"""SWEEP bench: batched tongue-map engine (stacked pre-characterisation +
one lock solve per V_i) vs the scalar point loop on the 32x32 tanh
Arnol'd-tongue grid (report in results/SWEEP.txt)."""

from repro.experiments.extras import run_sweep_bench


def test_sweep_engine(benchmark, save_report, check_records):
    result = benchmark.pedantic(
        run_sweep_bench, kwargs={"quick": True}, rounds=1, iterations=1
    )
    save_report(result)
    grids = result.data["grids"]
    check_records(grids)
    # The gate: >= 5x over the scalar point loop on the 32x32 tongue,
    # with every measured point in exact status agreement and lock widths
    # bitwise equal to the scalar loop's, and the tongue non-degenerate
    # (both locked and unlocked cells present).
    for name, record in grids.items():
        assert record["speedup_x"] >= 5.0, (name, record)
        assert record["status_mismatches"] == 0, (name, record)
        assert record["max_width_deviation_rel"] == 0.0, (name, record)
        assert record["locked_points"] >= 1, (name, record)
        assert record["unlocked_points"] >= 1, (name, record)
