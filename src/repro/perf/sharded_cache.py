"""The surface store: sharded disk records, an in-process LRU, single-flight.

Every pre-characterised record reaches its caller through one
:class:`ShardedSurfaceCache`: the process-wide :func:`default_store`, or
the store a sweep was handed (current for the sweep via :func:`using_store`).
Records live at ``<root>/<shard>/<key[:2]>/<key>.npz``; the default root is
``<cache root>/surfaces`` (cache root ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro-shil``, else ``~/.cache/repro-shil``).  A shard
only groups one nonlinearity's records at one order — keys are content
addresses.  Each shard is a :class:`~repro.perf.surface_cache.SurfaceCache`
(atomic writes, schema check, quarantine) bounded to
``max_entries_per_shard`` records.  On top of the disk tier the store adds
an **in-process LRU** over deserialised records, bounded by a byte budget,
and **single-flight locking**: concurrent callers asking for the same
cold record produce exactly one build.  ``REPRO_NO_CACHE=1`` turns both
tiers off.

Metrics — the only cache statistics (``repro cache --stats``,
``--profile``, the fault harness): every lookup bumps exactly one of
``cache.hits`` (either tier answered) or ``cache.misses``; ``cache.puts``
and ``cache.corrupt`` count disk writes and quarantines;
``cache.lru_evictions`` and ``cache.singleflight_{builds,waits,takeovers}``
count the in-process machinery.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import pathlib
import threading
from collections import OrderedDict

import numpy as np

from repro.obs import metrics
from repro.perf.surface_cache import (
    DEFAULT_MAX_ENTRIES,
    SurfaceCache,
    _default_root,
    cache_disabled,
)
from repro.perf.timers import timed

__all__ = ["ShardedSurfaceCache", "default_store", "using_store"]

#: Byte budget of the in-process LRU: about 17 surfaces of the default
#: 121-amplitude grid.  Every process holding a store (a service has one
#: per worker) may fill it, so it is kept small; a disk hit costs ~1 ms.
_DEFAULT_LRU_BYTES = 8 * 2**20
#: How long a waiter trusts another caller's single-flight latch before
#: assuming the leader died without releasing it (a killed worker thread,
#: an interpreter-level cancellation that skipped the ``finally``) and
#: taking the build over itself.  Generous against real build times; the
#: takeover only costs a duplicate build, never correctness (disk puts
#: are atomic).
_DEFAULT_FLIGHT_TIMEOUT_S = 30.0


def _payload_nbytes(arrays: dict[str, np.ndarray]) -> int:
    return int(sum(np.asarray(a).nbytes for a in arrays.values()))


class ShardedSurfaceCache:
    """Per-shard disk caches plus a shared in-process LRU with single-flight.

    Parameters
    ----------
    root:
        Directory holding the shard subdirectories; defaults to
        ``<cache root>/surfaces`` (see the module docstring).
    max_entries_per_shard:
        Disk LRU bound applied to each shard independently.
    lru_bytes:
        Byte budget of the in-process record LRU (0 disables it).
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        *,
        max_entries_per_shard: int = DEFAULT_MAX_ENTRIES,
        lru_bytes: int = _DEFAULT_LRU_BYTES,
        flight_timeout_s: float = _DEFAULT_FLIGHT_TIMEOUT_S,
    ):
        self.root = (
            pathlib.Path(root) if root is not None else _default_root() / "surfaces"
        )
        if max_entries_per_shard < 1:
            raise ValueError("max_entries_per_shard must be >= 1")
        if lru_bytes < 0:
            raise ValueError("lru_bytes must be >= 0")
        if flight_timeout_s <= 0:
            raise ValueError("flight_timeout_s must be > 0")
        self.max_entries_per_shard = int(max_entries_per_shard)
        self.lru_bytes = int(lru_bytes)
        self.flight_timeout_s = float(flight_timeout_s)
        self._shards: dict[str, SurfaceCache] = {}
        # In-process LRU: (shard, key) -> (arrays, meta, nbytes).
        self._lru: OrderedDict[tuple[str, str], tuple[dict, dict, int]] = (
            OrderedDict()
        )
        self._lru_total = 0
        # Single-flight registry: (shard, key) -> Event set when the
        # leader's build (or failure) completes.
        self._flights: dict[tuple[str, str], threading.Event] = {}
        self._mutex = threading.Lock()

    # -- shard plumbing -------------------------------------------------------

    @staticmethod
    def _check_shard(shard: str) -> None:
        if not shard or not all(
            c.isalnum() or c in "-_." for c in shard
        ) or shard.startswith("."):
            raise ValueError(
                f"shard names must be filesystem-safe slugs, got {shard!r}"
            )

    def shard(self, shard: str) -> SurfaceCache:
        """The per-group disk cache backing one shard (created lazily)."""
        self._check_shard(shard)
        with self._mutex:
            cache = self._shards.get(shard)
            if cache is None:
                cache = SurfaceCache(
                    self.root / shard, max_entries=self.max_entries_per_shard
                )
                self._shards[shard] = cache
            return cache

    def shards(self) -> list[str]:
        """Shard names present on disk (plus any opened in-process)."""
        names = set(self._shards)
        if self.root.is_dir():
            names.update(p.name for p in self.root.iterdir() if p.is_dir())
        return sorted(names)

    # -- in-process LRU -------------------------------------------------------

    def _lru_get(self, shard: str, key: str):
        if self.lru_bytes <= 0 or cache_disabled():
            return None
        with self._mutex:
            entry = self._lru.get((shard, key))
            if entry is None:
                return None
            self._lru.move_to_end((shard, key))
            metrics.inc("cache.hits")
            arrays, meta, _ = entry
            return dict(arrays), dict(meta)

    def _lru_put(self, shard: str, key: str, arrays: dict, meta: dict) -> None:
        if self.lru_bytes <= 0 or cache_disabled():
            return
        nbytes = _payload_nbytes(arrays)
        if nbytes > self.lru_bytes:
            return  # one oversized record must not flush the whole tier
        with self._mutex:
            old = self._lru.pop((shard, key), None)
            if old is not None:
                self._lru_total -= old[2]
            self._lru[(shard, key)] = (dict(arrays), dict(meta), nbytes)
            self._lru_total += nbytes
            while self._lru_total > self.lru_bytes and self._lru:
                _, (_, _, evicted_bytes) = self._lru.popitem(last=False)
                self._lru_total -= evicted_bytes
                metrics.inc("cache.lru_evictions")

    @property
    def lru_stats(self) -> dict[str, int]:
        """Current in-process tier occupancy (entries, bytes)."""
        with self._mutex:
            return {"entries": len(self._lru), "bytes": self._lru_total}

    @property
    def inflight_count(self) -> int:
        """Single-flight latches currently held (0 when the tier is idle)."""
        with self._mutex:
            return len(self._flights)

    # -- record I/O -----------------------------------------------------------

    def get(self, shard: str, key: str):
        """Two-tier lookup: in-process LRU first, then the shard on disk."""
        with timed("surface-cache-lookup"):
            cached = self._lru_get(shard, key)
            if cached is not None:
                return cached
            record = self.shard(shard).get(key)
            if record is None:
                return None
            arrays, meta = record
            self._lru_put(shard, key, arrays, meta)
            return arrays, meta

    def put(self, shard: str, key: str, arrays: dict, meta: dict | None = None):
        """Store through both tiers; returns the stamped ``(arrays, meta)``.

        The disk write is atomic.  The in-process copy carries the same
        stamped meta the disk record does (schema version and payload
        fingerprint), so both tiers hand back identical records.
        """
        full_meta = self.shard(shard).put(key, arrays, meta)
        self._lru_put(shard, key, arrays, full_meta)
        return arrays, full_meta

    # -- whole-store maintenance ---------------------------------------------

    def records(self) -> list[pathlib.Path]:
        """Every record file on disk, across all shards."""
        return sorted(
            path for name in self.shards() for path in self.shard(name)._records()
        )

    def __len__(self) -> int:
        return len(self.records())

    def fingerprint_coverage(self) -> dict[str, int]:
        """:meth:`SurfaceCache.fingerprint_coverage` summed over every shard."""
        totals = dict.fromkeys(
            ("records", "fingerprinted", "legacy", "verified", "mismatched"), 0
        )
        for name in self.shards():
            for stat, count in self.shard(name).fingerprint_coverage().items():
                totals[stat] += count
        return totals

    def clear(self) -> int:
        """Remove every record from both tiers; returns the disk records removed."""
        with self._mutex:
            self._lru.clear()
            self._lru_total = 0
        return sum(self.shard(name).clear() for name in self.shards())

    # -- single-flight --------------------------------------------------------

    def _acquire_flight(self, shard: str, key: str) -> threading.Event | None:
        """Return ``None`` when this caller leads; else the event to wait on."""
        with self._mutex:
            event = self._flights.get((shard, key))
            if event is not None:
                metrics.inc("cache.singleflight_waits")
                return event
            self._flights[(shard, key)] = threading.Event()
            return None

    def _release_flight(self, shard: str, key: str) -> None:
        with self._mutex:
            event = self._flights.pop((shard, key), None)
        if event is not None:
            event.set()

    def _await_flight(self, shard: str, key: str, event: threading.Event) -> None:
        """Wait on another caller's flight, with a leaked-latch backstop.

        Normally the leader's ``finally`` releases the flight even when its
        build raises.  But a leader that dies *without* unwinding (a worker
        thread killed by its host process, an interpreter shutdown racing
        the build) would otherwise wedge every waiter forever on a latch
        nobody will ever set.  After ``flight_timeout_s`` the waiter stops
        trusting the latch: if it is still the registered flight, the
        waiter evicts it (waking any other waiters parked on it) and
        returns, at which point the caller's re-probe loop elects a new
        leader.  The cost of a wrong guess — a slow-but-alive leader — is
        one duplicate build against an atomic disk put, never corruption.
        """
        if event.wait(self.flight_timeout_s):
            return
        with self._mutex:
            if self._flights.get((shard, key)) is event:
                del self._flights[(shard, key)]
                metrics.inc("cache.singleflight_takeovers")
        # Wake any other waiters parked behind the same presumed-dead
        # leader so they re-probe too instead of waiting out their own
        # full timeouts.
        event.set()

    def get_or_build_many(self, shard: str, items: dict[str, object], builder_many):
        """Fetch records, building each missing one at most once across threads.

        Parameters
        ----------
        shard:
            Shard the records belong to.
        items:
            Mapping of cache key to an opaque per-item token (whatever the
            builder needs to identify the item — e.g. a ``v_i`` value).
        builder_many:
            Called once with the list of tokens still missing after the
            flights are held; must return ``{key: (arrays, meta)}`` for
            exactly those keys.

        Returns
        -------
        dict
            ``{key: (arrays, meta)}`` for every requested key, ``meta``
            stamped as stored.

        Flights for the missing keys are acquired in sorted-key order (a
        deterministic order cannot deadlock against another batch doing
        the same); a key whose flight had to be waited for is re-probed,
        since its leader has usually stored it by then.  The remainder is
        built in ONE ``builder_many`` call — this is what lets a sweep
        characterise a whole injection grid in one stacked FFT pass even
        with concurrent workers.  If that call raises, every flight is
        released and the next caller builds: a failed build never wedges
        a key.
        """
        results: dict[str, tuple[dict, dict]] = {}
        missing: list[str] = []
        for key in items:
            record = self.get(shard, key)
            if record is not None:
                results[key] = record
            else:
                missing.append(key)
        if not missing:
            return results

        held: list[str] = []
        try:
            for key in sorted(missing):
                waited = False
                while (event := self._acquire_flight(shard, key)) is not None:
                    self._await_flight(shard, key, event)
                    waited = True
                held.append(key)
                record = self.get(shard, key) if waited else None
                if record is not None:
                    results[key] = record
                    held.remove(key)
                    self._release_flight(shard, key)
            to_build = [key for key in missing if key in held]
            if to_build:
                metrics.inc("cache.singleflight_builds", len(to_build))
                built = builder_many([items[key] for key in to_build])
                if set(built) != set(to_build):
                    raise ValueError(
                        "builder_many must return exactly the requested keys; "
                        f"missing {sorted(set(to_build) - set(built))}, "
                        f"unrequested {sorted(set(built) - set(to_build))}"
                    )
                for key in to_build:
                    results[key] = self.put(shard, key, *built[key])
        finally:
            for key in held:
                self._release_flight(shard, key)
        return results


_STORE: contextvars.ContextVar[ShardedSurfaceCache | None] = contextvars.ContextVar(
    "repro_surface_store", default=None
)
_DEFAULT_STORE: ShardedSurfaceCache | None = None


def default_store() -> ShardedSurfaceCache:
    """The store surface records go through in the current context.

    Inside :func:`using_store` that is the store it was given; otherwise
    the process-wide store, re-created (with an empty LRU) whenever the
    resolved cache root changed — tests and the cold-path benchmark point
    ``REPRO_CACHE_DIR`` at fresh directories and must not be answered from
    an old root's in-process tier.
    """
    global _DEFAULT_STORE
    current = _STORE.get()
    if current is not None:
        return current
    root = _default_root() / "surfaces"
    if _DEFAULT_STORE is None or _DEFAULT_STORE.root != root:
        _DEFAULT_STORE = ShardedSurfaceCache(root)
    return _DEFAULT_STORE


def _forget_stores() -> None:
    # A forked child (a serve worker) starts with its own store: it must
    # not inherit the parent's in-process records, nor a mutex another
    # parent thread held at the fork.
    global _DEFAULT_STORE
    _DEFAULT_STORE = None
    _STORE.set(None)


os.register_at_fork(after_in_child=_forget_stores)


@contextlib.contextmanager
def using_store(store: ShardedSurfaceCache):
    """Make ``store`` what :func:`default_store` returns inside the block."""
    token = _STORE.set(store)
    try:
        yield store
    finally:
        _STORE.reset(token)
