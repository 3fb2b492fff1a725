"""Benchmark harness helpers.

Each benchmark runs one experiment driver (see DESIGN.md's per-experiment
index), asserts the shape results the paper reports, and saves the
formatted report under ``benchmarks/results/<ID>.txt`` so the numbers are
inspectable after a ``--benchmark-only`` run (which captures stdout).

Heavy transient-validation benches run their driver once
(``benchmark.pedantic(rounds=1)``) — the interesting number is the
experiment's *internal* prediction-vs-simulation timing, not a re-run
distribution.
"""

from __future__ import annotations

import math
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_report(results_dir):
    """Write an ExperimentResult's report to results/<id>.txt and echo it."""

    def _save(result):
        path = results_dir / f"{result.experiment_id}.txt"
        text = result.format()
        path.write_text(text + "\n")
        print("\n" + text)
        return result

    return _save


@pytest.fixture
def check_records():
    """Assert every numeric field of every per-group record is finite and
    non-negative (a NaN timing or a negative deviation is a broken run)."""

    def _check(records: dict) -> None:
        assert records
        for name, record in records.items():
            for field, value in record.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    assert math.isfinite(value) and value >= 0.0, (name, field, value)

    return _check
