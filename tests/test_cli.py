"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_natural_defaults(self):
        args = build_parser().parse_args(["natural", "--oscillator", "tanh"])
        assert args.oscillator == "tanh"

    def test_locks_options(self):
        args = build_parser().parse_args(
            ["locks", "--oscillator", "tanh", "--vi", "0.05", "--n", "5"]
        )
        assert args.n == 5
        assert args.vi == "0.05"


class TestCommands:
    def test_natural_tanh(self, capsys):
        assert main(["natural", "--oscillator", "tanh"]) == 0
        out = capsys.readouterr().out
        assert "1.208" in out
        assert "stable" in out

    def test_natural_custom(self, capsys):
        code = main(
            ["natural", "--gm", "2.5m", "--isat", "1m",
             "--r", "1k", "--l", "100u", "--c", "10n"]
        )
        assert code == 0
        assert "159.2 kHz" in capsys.readouterr().out

    def test_custom_requires_full_tank(self):
        with pytest.raises(SystemExit):
            main(["natural", "--gm", "2.5m", "--isat", "1m", "--r", "1k"])

    def test_locks_inside_range(self, capsys):
        code = main(["locks", "--oscillator", "tanh", "--vi", "0.03", "--n", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert "multiple of n = 3" in out

    def test_locks_outside_range_exit_code(self, capsys):
        code = main(
            ["locks", "--oscillator", "tanh", "--vi", "0.03", "--n", "3",
             "--finj", "490k"]
        )
        assert code == 1
        assert "outside the lock range" in capsys.readouterr().out

    def test_lockrange_tanh(self, capsys):
        assert main(["lockrange", "--oscillator", "tanh"]) == 0
        out = capsys.readouterr().out
        assert "lock range width" in out
        assert "boundary tank phase" in out

    def test_experiment_dispatch(self, capsys):
        assert main(["experiment", "FIG6"]) == 0
        assert "RLC tank transfer function" in capsys.readouterr().out

    def test_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiment", "FIG99"])


class TestMethodAndProfile:
    def test_lockrange_method_dense(self, capsys):
        assert main(["lockrange", "--oscillator", "tanh", "--method", "dense"]) == 0
        assert "lock range width" in capsys.readouterr().out

    def test_locks_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["locks", "--oscillator", "tanh", "--method", "magic"]
            )


class TestCacheStats:
    def test_stats_report_legacy_records_separately(
        self, capsys, tmp_path, monkeypatch
    ):
        """Pre-fingerprint records show as 'legacy', not as missing coverage."""
        import numpy as np

        from repro.perf import default_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        store = default_store()
        store.put("tanh-n3", "ab" * 32, {"coefficients": np.arange(4.0)})
        # Strip the fingerprint from a second record: a legacy store from
        # before output fingerprints existed.
        legacy_key = "cd" * 32
        store.put("tanh-n3", legacy_key, {"coefficients": np.arange(3.0)})
        path = store.shard("tanh-n3").path_for(legacy_key)
        with np.load(path, allow_pickle=False) as record:
            meta = json.loads(str(record["__meta__"]))
            arrays = {
                name: record[name] for name in record.files if name != "__meta__"
            }
        meta.pop("fingerprint")
        np.savez(path, __meta__=np.asarray(json.dumps(meta)), **arrays)

        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "records with output fingerprint: 1/1" in out
        assert "legacy pre-fingerprint 1" in out

    def test_stats_and_clear_cover_sweep_records(self, capsys, tmp_path, monkeypatch):
        """A tongue sweep's records live in the one store --stats and --clear see."""
        from repro.sweep import SweepSpec, run_sweep

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        spec = SweepSpec.tongue(
            "tanh", 3, [0.02, 0.03], freq_count=3, n_a=41, n_phi=81, n_samples=256
        )
        run_sweep(spec)
        assert main(["cache", "--stats"]) == 0
        assert "records on disk: 2 " in capsys.readouterr().out
        assert main(["cache", "--clear"]) == 0
        assert "2 record(s) removed" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.npz"))
