"""Concurrency hardening for the sharded cache's single-flight tier.

The serve layer leans on ``get_or_build_many`` from worker subprocesses
and retrying dispatchers, so the failure modes here are harsher than a
polite builder exception: a caller cancelled mid-batch, a worker thread
that dies without unwinding its ``finally``, a leader that simply never
comes back.  None of them may leave the in-process LRU or the shard
directory wedged — every latch must be released or, past
``flight_timeout_s``, forcibly taken over by a waiter.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import metrics
from repro.perf import ShardedSurfaceCache


def _arrays(seed: int = 0, size: int = 32) -> dict:
    rng = np.random.default_rng(seed)
    return {"coefficients": rng.standard_normal(size)}


def _get_or_build(cache, shard, key, builder):
    """One key through ``get_or_build_many``; ``builder()`` -> ``(arrays, meta)``."""
    return cache.get_or_build_many(
        shard, {key: None}, lambda tokens: {key: builder()}
    )[key]


def _keys(n: int) -> list[str]:
    return [f"{i:02x}" + "f" * 62 for i in range(n)]


@pytest.fixture()
def cache(tmp_path):
    return ShardedSurfaceCache(tmp_path / "shards", flight_timeout_s=0.2)


class TestBuilderDeathReleasesFlights:
    def test_mid_build_failure_leaves_no_latch(self, cache):
        keys = _keys(4)

        def dying_builder(tokens):
            # Simulates a worker dying after characterising half the batch:
            # nothing is returned, the exception unwinds the harness.
            raise RuntimeError("worker died mid-build")

        with pytest.raises(RuntimeError, match="mid-build"):
            cache.get_or_build_many(
                "s", {k: i for i, k in enumerate(keys)}, dying_builder
            )
        assert cache.inflight_count == 0

        # The key space is not poisoned: a fresh call rebuilds everything.
        built = cache.get_or_build_many(
            "s",
            {k: i for i, k in enumerate(keys)},
            lambda tokens: {keys[t]: (_arrays(t), {"t": t}) for t in tokens},
        )
        assert set(built) == set(keys)
        assert cache.inflight_count == 0
        assert cache.lru_stats["entries"] == len(keys)

    def test_partial_put_before_death_is_kept(self, cache):
        keys = _keys(3)

        def half_then_die(tokens):
            # The builder managed one atomic put before dying.
            cache.put("s", keys[0], _arrays(0), {"t": 0})
            raise RuntimeError("died after one put")

        with pytest.raises(RuntimeError):
            cache.get_or_build_many(
                "s", {k: i for i, k in enumerate(keys)}, half_then_die
            )
        assert cache.inflight_count == 0
        # The completed record survives and is served without a rebuild.
        record = cache.get("s", keys[0])
        assert record is not None


class TestConcurrentCancellation:
    def test_cancelled_waiters_do_not_leak_latches(self, cache):
        """A leader holds the flight while waiters get cancelled around it."""
        key = _keys(1)[0]
        leader_in_build = threading.Event()
        release_leader = threading.Event()
        results = {}

        def slow_builder(tokens):
            leader_in_build.set()
            release_leader.wait(5.0)
            return {key: (_arrays(7), {})}

        def leader():
            results["leader"] = cache.get_or_build_many(
                "s", {key: 0}, slow_builder
            )

        class Cancelled(Exception):
            pass

        def cancelled_waiter():
            # A waiter that gets cancelled (raises) the moment it would
            # start waiting: guard the builder path so if it ever leads,
            # it unwinds like an asyncio cancellation would.
            def cancelling_builder(tokens):
                raise Cancelled()

            try:
                cache.get_or_build_many("s", {key: 0}, cancelling_builder)
            except Cancelled:
                pass

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        assert leader_in_build.wait(5.0)
        waiters = [threading.Thread(target=cancelled_waiter) for _ in range(4)]
        for w in waiters:
            w.start()
        time.sleep(0.05)
        release_leader.set()
        leader_thread.join(5.0)
        for w in waiters:
            w.join(5.0)
        assert not leader_thread.is_alive()
        assert cache.inflight_count == 0
        assert key in results["leader"]

    def test_overlapping_batches_with_one_dying_all_converge(self, cache):
        keys = _keys(6)
        items = {k: i for i, k in enumerate(keys)}
        errors = []
        done = []

        def make_builder(worker_id):
            def builder(tokens):
                if worker_id == 0:
                    raise RuntimeError("worker 0 died")
                return {keys[t]: (_arrays(t), {"w": worker_id}) for t in tokens}

            return builder

        def run(worker_id):
            try:
                done.append(
                    cache.get_or_build_many("s", items, make_builder(worker_id))
                )
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert all(not t.is_alive() for t in threads)
        assert cache.inflight_count == 0
        # At most worker 0 errored; every surviving batch is complete.
        assert len(errors) <= 1
        assert len(done) >= 3
        for batch in done:
            assert set(batch) == set(keys)
        # The shard directory holds only parseable records (no torn files).
        fresh = ShardedSurfaceCache(cache.root, flight_timeout_s=0.2)
        for k in keys:
            assert fresh.get("s", k) is not None


class TestLeakedLatchTakeover:
    def test_waiter_takes_over_a_dead_leaders_latch(self, cache):
        """A latch acquired but never released must not wedge waiters."""
        key = _keys(1)[0]
        # Simulate a leader that died without unwinding: acquire the
        # flight by hand and walk away.
        assert cache._acquire_flight("s", key) is None
        takeovers_before = metrics.counter("cache.singleflight_takeovers")

        t0 = time.monotonic()
        record = _get_or_build(
            cache, "s", key, lambda: (_arrays(3), {"rebuilt": True})
        )
        elapsed = time.monotonic() - t0
        assert record is not None
        arrays, meta = record
        assert meta.get("rebuilt") is True
        # Waited out one flight timeout, then took over — not forever.
        assert 0.15 <= elapsed < 5.0
        assert metrics.counter("cache.singleflight_takeovers") > takeovers_before
        assert cache.inflight_count == 0

    def test_takeover_wakes_all_parked_waiters(self, cache):
        key = _keys(1)[0]
        assert cache._acquire_flight("s", key) is None
        results = []

        def waiter():
            results.append(
                _get_or_build(
                    cache, "s", key, lambda: (_arrays(5), {"by": "waiter"})
                )
            )

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        elapsed = time.monotonic() - t0
        assert all(not t.is_alive() for t in threads)
        assert len(results) == 3
        # One takeover elected a new leader; the others re-probed the
        # stored record instead of serialising three timeouts.
        assert elapsed < 3 * cache.flight_timeout_s + 1.0
        assert cache.inflight_count == 0

    def test_live_leader_is_not_preempted_before_timeout(self, cache):
        """Waiters must trust a live flight for the full timeout window."""
        key = _keys(1)[0]
        builds = []
        release = threading.Event()
        in_build = threading.Event()

        def slow_build():
            in_build.set()
            builds.append(1)
            release.wait(5.0)
            return _arrays(9), {}

        leader = threading.Thread(
            target=lambda: _get_or_build(cache, "s", key, slow_build)
        )
        leader.start()
        assert in_build.wait(5.0)
        waiter_result = []
        waiter = threading.Thread(
            target=lambda: waiter_result.append(
                _get_or_build(cache, "s", key, slow_build)
            )
        )
        waiter.start()
        # Release inside the 0.2 s flight timeout: the waiter should get
        # the leader's record without ever building.
        time.sleep(0.05)
        release.set()
        leader.join(5.0)
        waiter.join(5.0)
        assert len(builds) == 1
        assert waiter_result and waiter_result[0] is not None
        assert cache.inflight_count == 0
