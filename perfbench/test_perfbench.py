"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import harness
import inputs
import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- seeded inputs ------------------------------------------------------------------

STREAMS = (inputs.predict_stream, inputs.tongue_stream, inputs.serve_stream)


@pytest.mark.parametrize("stream", STREAMS, ids=lambda s: s.__name__)
def test_same_seed_same_inputs(stream):
    assert list(itertools.islice(stream(7), 60)) == list(itertools.islice(stream(7), 60))


@pytest.mark.parametrize("stream", STREAMS, ids=lambda s: s.__name__)
def test_different_seeds_different_inputs(stream):
    first = list(itertools.islice(stream(1), 60))
    for seed in (2, 3, 1000):
        assert list(itertools.islice(stream(seed), 60)) != first


def test_paper_order_is_seeded():
    assert inputs.paper_order(5) == inputs.paper_order(5)
    assert {inputs.paper_order(seed) for seed in range(20)} == {
        ("tanh", "tunnel"),
        ("tunnel", "tanh"),
    }


def test_predict_inputs_are_distinct_and_balanced():
    drawn = list(itertools.islice(inputs.predict_stream(3), 3 * inputs.GRID_SIZE))
    assert len(set(drawn)) == len(drawn)
    for family in inputs.PREDICT_FAMILIES:
        assert sum(1 for f, _ in drawn if f == family) == inputs.GRID_SIZE


def test_serve_mix():
    jobs = list(itertools.islice(inputs.serve_stream(4), 400))
    tongues = [j for j in jobs if j["kind"] == "tongue"]
    assert len(tongues) == 100
    lockranges = [json.dumps(j, sort_keys=True) for j in jobs if j["kind"] == "lockrange"]
    repeats = len(lockranges) - len(set(lockranges))
    assert repeats == len(lockranges) // inputs.SERVE_REPEAT_EVERY


def test_grid_spans_forty_percent_around_the_paper_value():
    assert inputs.v_i_at(0) == pytest.approx(0.6 * inputs.PAPER_V_I)
    assert inputs.v_i_at(inputs.GRID_SIZE - 1) == pytest.approx(1.4 * inputs.PAPER_V_I)
    with pytest.raises(IndexError):
        inputs.v_i_at(inputs.GRID_SIZE)


def test_reference_table_covers_the_grid():
    edges = json.loads((HERE / "reference.json").read_text())["edges"]
    assert set(edges) == set(inputs.PREDICT_FAMILIES)
    for rows in edges.values():
        assert len(rows) == inputs.GRID_SIZE
        assert all(lower < upper for lower, upper in rows)


# -- statistics ---------------------------------------------------------------------


@pytest.mark.parametrize("n", list(range(1, 12)) + [20, 57, 100, 1000])
def test_tail_keeps_ten_samples_beyond(n):
    values = [float(v) for v in range(n)]
    got = harness.tail(values)
    if n <= harness.TAIL_BEYOND:
        assert got is None
        return
    percentile, value = got
    assert sum(1 for v in values if v > value) >= harness.TAIL_BEYOND
    # The highest such percentile: the next sample up has fewer beyond it.
    assert sum(1 for v in values if v > value + 1) < harness.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - harness.TAIL_BEYOND) / n)


def test_tail_with_ties_still_has_ten_beyond():
    values = [1.0] * 30 + [2.0] * 5 + [3.0] * 10
    _, value = harness.tail(values)
    assert sum(1 for v in values if v > value) >= harness.TAIL_BEYOND


def test_balanced_median_ignores_class_shares():
    few = [("a", 1.0)] * 3 + [("b", 3.0)] * 3
    many = [("a", 1.0)] * 30 + [("b", 3.0)] * 3
    assert harness.balanced_median(few) == harness.balanced_median(many) == 2.0


def test_overhead_ratio_uses_shared_classes():
    plain = [("a", 1.0), ("b", 2.0), ("c", 9.0)]
    spanned = [("a", 1.1), ("b", 2.2)]
    assert harness.overhead_ratio(plain, spanned) == pytest.approx(3.3 / 3.0)
    assert harness.overhead_ratio(plain, []) == 0.0


def test_tally_counts_failures():
    tally = harness.Tally()
    tally.attempt(True)
    tally.attempt(False, "bad edge")
    assert (tally.attempted, tally.failed, tally.error_rate) == (2, 1, 0.5)
    assert tally.failures == ["bad edge"]


def test_timed_loop_counts_exceptions_and_runs_at_least_once():
    tally = harness.Tally()

    def op(x):
        if x == 1:
            raise ValueError("boom")
        return x

    calibrations = []
    samples = harness.timed_loop(0.0, iter(range(5)), op, tally, calibrations)
    assert [s[0] for s in samples] == [0]
    samples = harness.timed_loop(10.0, iter(range(3)), op, tally, calibrations)
    assert [s[0] for s in samples] == [0, 2]
    assert tally.failed == 1 and tally.attempted == 4
    assert len(calibrations) == 4 and all(c > 0 for c in calibrations)


def test_speed_scale_reports_at_the_reference_speed():
    ref = harness.CALIBRATION_REF_S
    assert harness.speed_scale([ref] * 3) == 1.0
    # A machine running at half speed doubles every time: scaled back.
    assert harness.speed_scale([2 * ref, 2 * ref, 9 * ref]) == 0.5


def test_counter_total_sums_label_sets():
    deltas = harness.counter_diff(
        {"cache.hits": 1, "serve.rejected{reason=rate}": 1},
        {"cache.hits": 4, "serve.rejected{reason=rate}": 2, "serve.rejected{reason=quota}": 3,
         "serve.rejected_total": 9},
    )
    assert harness.counter_total(deltas, "cache.hits") == 3
    assert harness.counter_total(deltas, "serve.rejected") == 4


def test_comparable_needs_the_same_backend():
    assert harness.comparable({"compiled_backend": "c"}, {"compiled_backend": "c"})
    assert not harness.comparable({"compiled_backend": "c"}, {"compiled_backend": "numba"})


# -- BENCHMARK.json -------------------------------------------------------------------


def test_every_name_is_well_formed():
    doc = benchmark_json()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_json_round_trips_its_schema():
    text = (ROOT / "BENCHMARK.json").read_text()
    doc = json.loads(text)
    assert json.loads(json.dumps(doc)) == doc
    assert len(text.encode()) <= 64 * 1024
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_benchmark_json_matches_the_metric_tables():
    doc = benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        row[:3] for row in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in layers.LAYERS
    ]
    import workloads

    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_runs_fit_the_time_budget():
    """A full evaluation makes 4 + 22 x workloads runs, each of run_seconds
    plus set-up and checks, and must end within 3420 s."""
    doc = benchmark_json()
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 20) < 3420


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
