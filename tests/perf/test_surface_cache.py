"""The store's per-shard disk tier and the default store: round-trips,
invalidation, hygiene."""

import json
import os

import numpy as np
import pytest

from repro.core.two_tone import TwoToneDF
from repro.nonlin import NegativeTanh
from repro.obs import metrics
from repro.perf import (
    SurfaceCache,
    array_hash,
    cache_sandbox,
    combine_keys,
    default_store,
    nonlinearity_fingerprint,
)

KEY_A = "ab" * 32
KEY_B = "cd" * 32


@pytest.fixture
def cache(tmp_path):
    return SurfaceCache(tmp_path / "cache")


@pytest.fixture
def counted():
    """``counted(stat)``: growth of the ``cache.<stat>`` counter in this test."""
    before = {
        stat: metrics.counter(f"cache.{stat}")
        for stat in ("hits", "misses", "puts", "corrupt")
    }
    return lambda stat: metrics.counter(f"cache.{stat}") - before[stat]


class TestRecordIO:
    def test_round_trip(self, cache, rng):
        arrays = {
            "real": rng.standard_normal((5, 7)),
            "cplx": rng.standard_normal(9) + 1j * rng.standard_normal(9),
        }
        meta = {"nonlinearity": "tanh", "n": 3}
        cache.put(KEY_A, arrays, meta)
        loaded, loaded_meta = cache.get(KEY_A)
        for name, array in arrays.items():
            assert np.array_equal(loaded[name], array)
        assert loaded_meta["nonlinearity"] == "tanh"
        assert loaded_meta["n"] == 3
        assert loaded_meta["schema"] == 1

    def test_miss_returns_none(self, cache, counted):
        assert cache.get(KEY_A) is None
        assert counted("misses") == 1

    def test_corrupt_record_is_a_miss_and_quarantined(self, cache, caplog, counted):
        cache.put(KEY_A, {"x": np.arange(4.0)})
        path = cache.path_for(KEY_A)
        path.write_bytes(b"not an npz file")
        with caplog.at_level("WARNING", logger="repro.perf.surface_cache"):
            assert cache.get(KEY_A) is None
        # Quarantined for post-mortem, invisible to future lookups.
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        assert counted("corrupt") == 1
        assert any("quarantined" in r.message for r in caplog.records)

    def test_truncated_record_is_a_miss_and_quarantined(self, cache, counted):
        cache.put(KEY_A, {"x": np.arange(64.0), "y": np.ones((8, 8))})
        path = cache.path_for(KEY_A)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])  # torn write / disk-full
        assert cache.get(KEY_A) is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        assert counted("corrupt") == 1
        # The slot is reusable: a recompute landing on the same key works.
        cache.put(KEY_A, {"x": np.arange(64.0), "y": np.ones((8, 8))})
        loaded, _ = cache.get(KEY_A)
        assert np.array_equal(loaded["x"], np.arange(64.0))

    def test_quarantined_record_not_counted_as_an_entry(self, cache):
        cache.put(KEY_A, {"x": np.arange(4.0)})
        cache.path_for(KEY_A).write_bytes(b"junk")
        assert cache.get(KEY_A) is None
        assert len(cache) == 0  # *.npz.corrupt is not a live record

    def test_schema_mismatch_is_a_miss(self, cache, monkeypatch, counted):
        cache.put(KEY_A, {"x": np.arange(4.0)})
        monkeypatch.setattr("repro.perf.surface_cache.SCHEMA_VERSION", 2)
        assert cache.get(KEY_A) is None
        # A stale-but-wellformed record is deleted silently, not quarantined.
        assert counted("corrupt") == 0

    def test_invalid_keys_rejected(self, cache):
        for bad in ("", "XYZ", "../escape", "ab/cd"):
            with pytest.raises(ValueError):
                cache.path_for(bad)

    def test_meta_name_reserved(self, cache):
        with pytest.raises(ValueError):
            cache.put(KEY_A, {"__meta__": np.arange(3.0)})


class TestEviction:
    def test_lru_bound(self, tmp_path):
        cache = SurfaceCache(tmp_path, max_entries=3)
        keys = [f"{i:02d}" * 32 for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, {"x": np.asarray([float(i)])})
        assert len(cache) == 3
        # The most recent records survive.
        assert cache.get(keys[-1]) is not None

    def test_record_evicted_by_another_process_is_skipped(self, tmp_path, monkeypatch):
        # Worker processes share one store: a record listed for eviction
        # may be unlinked by another process before its mtime is read.
        cache = SurfaceCache(tmp_path, max_entries=3)
        keys = [f"{i:02d}" * 32 for i in range(4)]
        for i, key in enumerate(keys[:3]):
            cache.put(key, {"x": np.asarray([float(i)])})
        listed = cache._records
        gone = cache.path_for("ff" * 32)
        monkeypatch.setattr(cache, "_records", lambda: listed() + [gone])
        cache.put(keys[3], {"x": np.asarray([3.0])})
        monkeypatch.undo()
        assert len(cache) == 3
        assert cache.get(keys[0]) is None and cache.get(keys[3]) is not None

    def test_clear(self, cache):
        cache.put(KEY_A, {"x": np.arange(3.0)})
        cache.put(KEY_B, {"x": np.arange(4.0)})
        assert cache.clear() == 2
        assert len(cache) == 0


class TestDisableSwitch:
    def test_no_cache_env(self, cache, monkeypatch):
        cache.put(KEY_A, {"x": np.arange(3.0)})
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache.get(KEY_A) is None
        cache.put(KEY_B, {"x": np.arange(3.0)})
        monkeypatch.delenv("REPRO_NO_CACHE")
        assert cache.get(KEY_A) is not None
        assert cache.get(KEY_B) is None


class TestCacheSandbox:
    def test_sets_both_variables_and_restores_them(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "outer")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        with cache_sandbox(tmp_path):
            assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path)
            assert "REPRO_NO_CACHE" not in os.environ
            assert default_store().root == tmp_path / "surfaces"
        assert os.environ["REPRO_CACHE_DIR"] == "outer"
        assert os.environ["REPRO_NO_CACHE"] == "1"

    def test_disabled_keeps_the_root_and_restores_absence(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "outer")
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        with pytest.raises(RuntimeError), cache_sandbox(disabled=True):
            assert os.environ["REPRO_CACHE_DIR"] == "outer"
            assert os.environ["REPRO_NO_CACHE"] == "1"
            raise RuntimeError("the block failed")
        assert "REPRO_NO_CACHE" not in os.environ


class TestDefaultCacheResolution:
    def test_follows_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        first = default_store()
        assert first.root == tmp_path / "a" / "surfaces"
        assert default_store() is first
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        second = default_store()
        assert second.root == tmp_path / "b" / "surfaces"
        assert second is not first

    def test_root_switch_forgets_in_process_records(self, tmp_path, monkeypatch):
        """Switching the root must make the same prediction cold again."""
        from repro.core.lockrange import predict_lock_range
        from repro.tank import ParallelRLC

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        nonlinearity = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        tank = ParallelRLC(r=1000.0, l=100e-6, c=10e-9)
        kwargs = dict(v_i=0.03, n=3, n_a=41, n_phi=81, n_samples=256)

        def rebuilds():
            builds = metrics.counter("sweep.surface_builds")
            misses = metrics.counter("cache.misses")
            predict_lock_range(nonlinearity, tank, **kwargs)
            return (
                metrics.counter("sweep.surface_builds") - builds,
                metrics.counter("cache.misses") - misses,
            )

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        assert rebuilds() == (1, 1)
        assert rebuilds() == (0, 0)  # warm: answered by the store
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        assert rebuilds() == (1, 1)


class TestFingerprint:
    def test_identical_laws_hash_equal(self):
        a = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        b = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        assert nonlinearity_fingerprint(a, 2.0) == nonlinearity_fingerprint(b, 2.0)

    def test_parameter_change_changes_hash(self):
        a = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        b = NegativeTanh(gm=2.6e-3, i_sat=1e-3)
        assert nonlinearity_fingerprint(a, 2.0) != nonlinearity_fingerprint(b, 2.0)

    def test_window_is_part_of_the_identity(self):
        a = NegativeTanh(gm=2.5e-3, i_sat=1e-3)
        assert nonlinearity_fingerprint(a, 2.0) != nonlinearity_fingerprint(a, 2.5)

    def test_array_hash_sensitive_to_content_and_layout(self, rng):
        x = rng.standard_normal(16)
        y = x.copy()
        assert array_hash(x) == array_hash(y)
        y[3] += 1e-16 + abs(y[3]) * 1e-15
        assert array_hash(x) != array_hash(y)
        assert array_hash(x) != array_hash(x.reshape(4, 4))

    def test_combine_keys_is_hex(self):
        key = combine_keys("tag", 3, 0.03, np.arange(5.0))
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)


class TestSurfaceCacheIntegration:
    """End-to-end: TwoToneDF persists surfaces and invalidates on change."""

    AMPS = np.linspace(0.4, 1.7, 10)

    def _df(self, gm=2.5e-3):
        return TwoToneDF(NegativeTanh(gm=gm, i_sat=1e-3), 0.03, 3, n_samples=512)

    def test_cross_instance_warm_start(self, tmp_path, monkeypatch, counted):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = self._df().surface(self.AMPS)
        store = default_store()
        assert len(store) == 1
        before_hits = counted("hits")
        warm = self._df().surface(self.AMPS)
        assert counted("hits") == before_hits + 1
        assert np.array_equal(warm.coefficients, cold.coefficients)

    def test_fingerprint_change_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._df(gm=2.5e-3).surface(self.AMPS)
        store = default_store()
        assert len(store) == 1
        self._df(gm=2.6e-3).surface(self.AMPS)
        # A different law must land in a different record, not reuse the old.
        assert len(store) == 2

    def test_record_is_inspectable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._df().surface(self.AMPS)
        record = default_store().records()[0]
        with np.load(record, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
        assert meta["schema"] == 1
