"""End-to-end observability: --trace/--log-json runs, `repro obs`, `repro cache`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import load_trace, validate_obs_report, validate_trace


@pytest.fixture
def traced_run(clean_obs, tmp_path, monkeypatch):
    """One lockrange run under --trace --log-json, in a scratch cwd, on an
    empty surface store (so the run builds its surfaces)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    code = main(
        [
            "--trace",
            "--log-json",
            "lockrange",
            "--oscillator",
            "tanh",
            "--vi",
            "0.05",
            "--n",
            "3",
        ]
    )
    assert code == 0
    return tmp_path


class TestTraceFlag:
    def test_trace_and_report_files_validate(self, traced_run):
        trace_path = traced_run / "TRACE.jsonl"
        report_path = traced_run / "OBS_REPORT.json"
        assert trace_path.is_file()
        assert report_path.is_file()
        assert validate_trace(trace_path) == []
        assert validate_obs_report(report_path) == []

    def test_spans_nest_under_the_cli_root(self, traced_run):
        _, spans = load_trace(traced_run / "TRACE.jsonl")
        by_name = {s["name"]: s for s in spans}
        root = by_name["cli.lockrange"]
        assert root["parent_id"] is None
        assert root["attrs"]["exit_code"] == 0
        # ladder -> rung -> lockrange -> phases, all under the root.
        assert by_name["ladder"]["parent_id"] == root["span_id"]
        assert by_name["lockrange"]["parent_id"] == by_name["rung"]["span_id"]
        assert by_name["characterize"]["depth"] > by_name["lockrange"]["depth"]

    def test_records_the_phase_spans(self, traced_run):
        _, spans = load_trace(traced_run / "TRACE.jsonl")
        assert {
            "characterize",
            "curve-extraction",
            "curve-solve",
            "edge-refine",
            "surface-build",
            "surface-cache-lookup",
        } <= {s["name"] for s in spans}

    def test_report_carries_run_context_and_counters(self, traced_run):
        payload = json.loads((traced_run / "OBS_REPORT.json").read_text())
        assert payload["exit_code"] == 0
        assert payload["trace_file"].endswith("TRACE.jsonl")
        assert "lockrange" in payload["argv"]
        counters = payload["metrics"]["counters"]
        assert counters["lockrange.solves{method=fft}"] == 1
        assert any(key.startswith("df.evaluations") for key in counters)
        assert counters["cache.misses"] >= 1

    def test_custom_trace_path(self, clean_obs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["--trace", "deep/run.jsonl", "natural", "--oscillator", "tanh"]
        )
        assert code == 0
        assert validate_trace(tmp_path / "deep" / "run.jsonl") == []


class TestObsCommand:
    def test_renders_tree_and_totals(self, traced_run, capsys):
        assert main(["obs", "TRACE.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "cli.lockrange" in out
        assert "lockrange" in out
        assert "per-span totals:" in out
        # Tree indentation: the solve span sits under the CLI root.
        tree_lines = [l for l in out.splitlines() if "* ladder" in l]
        assert tree_lines and tree_lines[0].startswith("  ")

    def test_validate_mode(self, traced_run, capsys):
        code = main(
            ["obs", "TRACE.jsonl", "--validate", "--obs-report", "OBS_REPORT.json"]
        )
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, clean_obs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text('{"trace": "nope"}\n')
        assert main(["obs", "bad.jsonl", "--validate"]) == 1

    def test_render_missing_file_fails_cleanly(self, clean_obs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["obs", "missing.jsonl"]) == 1

    def test_rendering_does_not_overwrite_the_trace(self, traced_run):
        # Regression: the obs positional must not collide with the global
        # --trace flag (which would re-enable tracing and clobber the file).
        before = (traced_run / "TRACE.jsonl").read_bytes()
        assert main(["obs", "TRACE.jsonl"]) == 0
        assert (traced_run / "TRACE.jsonl").read_bytes() == before


class TestLogJson:
    def test_warnings_become_json_lines(self, clean_obs, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # An out-of-range injection frequency drops per-point solves, which
        # record faults; under a ladder the first occurrence warns.
        main(
            [
                "--log-json",
                "locks",
                "--oscillator",
                "tanh",
                "--vi",
                "0.03",
                "--n",
                "3",
                "--finj",
                "490k",
            ]
        )
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines() if line]
        assert all("event" in r and "level" in r for r in records)


class TestCacheCommand:
    def test_stats_lists_counters_and_root(self, clean_obs, capsys):
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out
        assert "records on disk:" in out
        for stat in ("hits", "misses", "corrupt", "puts"):
            assert f"this process {stat}:" in out

    def test_clear_empties_the_store(self, clean_obs, capsys):
        # Populate the (test-session-scoped, isolated) cache first.
        main(["lockrange", "--oscillator", "tanh", "--vi", "0.05", "--n", "3"])
        capsys.readouterr()
        assert main(["cache", "--clear"]) == 0
        assert "cache cleared" in capsys.readouterr().out
        assert main(["cache", "--stats"]) == 0
        assert "records on disk: 0" in capsys.readouterr().out
