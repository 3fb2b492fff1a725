"""Tier-1 tests for the sharded surface-cache tier.

The satellite contract, verbatim: two threads asking for the same
uncharacterised shard key must produce exactly one characterisation
(observed through the ``cache.*`` metrics), the in-process LRU must
honour its byte budget, and a ``.corrupt`` shard must never wedge a
sweep.
"""

import threading

import numpy as np
import pytest

from repro.obs import metrics
from repro.perf import ShardedSurfaceCache, payload_fingerprint
from repro.perf.surface_cache import SCHEMA_VERSION


def _arrays(seed: int = 0, size: int = 64) -> dict:
    rng = np.random.default_rng(seed)
    return {"coefficients": rng.standard_normal(size)}


def _get_or_build(cache, shard, key, builder):
    """One key through ``get_or_build_many``; ``builder()`` -> ``(arrays, meta)``."""
    return cache.get_or_build_many(
        shard, {key: None}, lambda tokens: {key: builder()}
    )[key]


@pytest.fixture()
def cache(tmp_path):
    return ShardedSurfaceCache(tmp_path / "shards")


class TestShardLayout:
    def test_records_land_in_shard_dirs(self, cache, tmp_path):
        cache.put("tanh-n3-q1", "a" * 64, _arrays(), {"v_i": 0.03})
        cache.put("tunnel-n2-q1", "b" * 64, _arrays(1), {"v_i": 0.02})
        assert sorted(cache.shards()) == ["tanh-n3-q1", "tunnel-n2-q1"]
        assert (tmp_path / "shards" / "tanh-n3-q1").is_dir()

    def test_rejects_path_escaping_shard_names(self, cache):
        for bad in ("../evil", "a/b", ".hidden", ""):
            with pytest.raises(ValueError):
                cache.put(bad, "a" * 64, _arrays())

    def test_round_trip_meta_is_stamped(self, cache):
        arrays = _arrays()
        cache.put("s", "a" * 64, arrays, {"v_i": 0.03})
        got_arrays, meta = cache.get("s", "a" * 64)
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["fingerprint"] == payload_fingerprint(arrays)
        assert meta["v_i"] == 0.03
        np.testing.assert_array_equal(
            got_arrays["coefficients"], arrays["coefficients"]
        )


class TestSingleFlight:
    def test_two_threads_one_build(self, cache):
        builds_before = metrics.counter("cache.singleflight_builds")
        build_calls = []
        release = threading.Event()

        def builder():
            build_calls.append(threading.get_ident())
            release.wait(timeout=5.0)
            return _arrays(), {"v_i": 0.03}

        results = [None, None]

        def worker(slot):
            results[slot] = _get_or_build(cache, "s", "a" * 64, builder)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        # Give the loser time to park on the leader's flight, then let
        # the build finish.
        import time

        time.sleep(0.2)
        release.set()
        for t in threads:
            t.join(timeout=10.0)
        assert len(build_calls) == 1
        assert metrics.counter("cache.singleflight_builds") == builds_before + 1
        for arrays, meta in results:
            assert meta["fingerprint"] == payload_fingerprint(arrays)

    def test_get_or_build_many_builds_once_cold_zero_warm(self, cache):
        calls = []
        items = {"a" * 64: 0.01, "b" * 64: 0.02, "c" * 64: 0.03}
        key_of = {token: key for key, token in items.items()}

        def builder_many(tokens):
            calls.append(sorted(tokens))
            return {
                key_of[token]: (_arrays(int(token * 1000)), {"token": token})
                for token in tokens
            }
        cold = cache.get_or_build_many("s", items, builder_many)
        assert len(calls) == 1
        assert set(cold) == set(items)
        warm = cache.get_or_build_many("s", items, builder_many)
        assert len(calls) == 1  # nothing rebuilt
        assert set(warm) == set(items)

    def test_get_or_build_many_rejects_partial_builders(self, cache):
        def builder_many(tokens):
            return {}  # omits every requested key

        with pytest.raises((ValueError, KeyError)):
            cache.get_or_build_many("s", {"a" * 64: 1}, builder_many)


class TestLru:
    def test_byte_budget_eviction(self, tmp_path):
        # Each record is ~8 kB; budget of 20 kB holds two.
        cache = ShardedSurfaceCache(tmp_path / "shards", lru_bytes=20_000)
        evictions_before = metrics.counter("cache.lru_evictions")
        for index, key in enumerate(("a" * 64, "b" * 64, "c" * 64)):
            cache.put("s", key, _arrays(index, size=1024))
        stats = cache.lru_stats
        assert stats["entries"] <= 2
        assert stats["bytes"] <= 20_000
        assert metrics.counter("cache.lru_evictions") > evictions_before

    def test_oversized_records_bypass_lru(self, tmp_path):
        cache = ShardedSurfaceCache(tmp_path / "shards", lru_bytes=100)
        cache.put("s", "a" * 64, _arrays(size=1024))
        assert cache.lru_stats["entries"] == 0
        # Still served from disk.
        assert cache.get("s", "a" * 64) is not None


class TestCorruption:
    def test_corrupt_shard_record_recovers(self, tmp_path):
        # lru_bytes=0 disables the in-process tier, so every read goes
        # to disk and actually sees the corruption.
        cache = ShardedSurfaceCache(tmp_path / "shards", lru_bytes=0)
        key = "a" * 64
        cache.put("s", key, _arrays(), {"v_i": 0.03})
        path = cache.shard("s").path_for(key)
        path.write_bytes(b"not an npz")
        assert cache.get("s", key) is None
        assert path.with_suffix(path.suffix + ".corrupt").exists()

        # A lookup through get_or_build_many rebuilds — the sweep never wedges.
        rebuilt = []

        def builder():
            rebuilt.append(True)
            return _arrays(7), {"v_i": 0.03}

        arrays, meta = _get_or_build(cache, "s", key, builder)
        assert rebuilt == [True]
        assert meta["fingerprint"] == payload_fingerprint(arrays)
