"""The on-disk tier of one shard of the surface store.

:class:`~repro.perf.sharded_cache.ShardedSurfaceCache` is the one store
every caller sees; it keeps one :class:`SurfaceCache` per shard directory.
This module is that per-shard disk tier and nothing else.

Layout
------
One ``.npz`` file per record under the shard directory::

    <shard dir>/<key[:2]>/<key>.npz

where ``key`` is the sha256 content address of the record.  Each file
holds the record's numpy arrays plus a ``__meta__`` JSON blob (schema
version, payload fingerprint, human-readable provenance).  Records are
independent; deleting any file — or the whole directory — is always safe
and merely re-triggers pre-characterisation.

Setting ``REPRO_NO_CACHE=1`` disables reads and writes globally (every
lookup misses, every store is a no-op) — useful for benchmarking the cold
path and in sandboxed CI.

Eviction: a shard is bounded by ``max_entries``.  When a put would exceed
the bound the oldest records by modification time are removed — access
refreshes the mtime, so this is an LRU in practice.  Hits, misses, puts
and quarantines bump the ``cache.*`` registry counters of the same name.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import tempfile

import numpy as np

from repro.obs import get_logger, metrics
from repro.perf.fingerprint import payload_fingerprint

__all__ = ["SurfaceCache", "cache_disabled", "cache_sandbox"]

_log = get_logger(__name__)

#: Bump when the on-disk record layout changes; old records then miss.
SCHEMA_VERSION = 1

#: Records kept per shard before the oldest are evicted.
DEFAULT_MAX_ENTRIES = 128


def cache_disabled() -> bool:
    """True when ``REPRO_NO_CACHE`` requests a cache-free run."""
    return os.environ.get("REPRO_NO_CACHE", "").strip() not in ("", "0", "false")


@contextlib.contextmanager
def cache_sandbox(root=None, *, disabled: bool = False):
    """Run a block under its own cache environment, then restore the caller's.

    ``REPRO_CACHE_DIR`` points at ``root`` (left as it is when ``root`` is
    None) and ``REPRO_NO_CACHE`` is ``"1"`` when ``disabled``, else unset
    — so a sandboxed block sees a known cache state whatever the ambient
    one.  Both variables get their previous values (or absence) back on
    exit, exceptions included.
    """
    keys = ("REPRO_CACHE_DIR", "REPRO_NO_CACHE")
    saved = {key: os.environ.get(key) for key in keys}
    if root is not None:
        os.environ["REPRO_CACHE_DIR"] = str(root)
    if disabled:
        os.environ["REPRO_NO_CACHE"] = "1"
    else:
        os.environ.pop("REPRO_NO_CACHE", None)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _default_root() -> pathlib.Path:
    """The cache root: ``$REPRO_CACHE_DIR``, else the XDG/home cache dir."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro-shil"


class SurfaceCache:
    """Content-addressed ``.npz`` store for named numpy-array payloads.

    The cache is deliberately payload-agnostic: callers pass a mapping of
    array names to arrays plus a JSON-able ``meta`` dict, and get the same
    back.  (De)serialisation to richer objects lives with their owners —
    e.g. :class:`repro.core.two_tone.TwoToneSurface` — which keeps this
    module import-cycle-free and reusable for future cached artefacts.

    Parameters
    ----------
    root:
        The shard directory.
    max_entries:
        LRU bound on the number of records kept on disk.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        self.root = pathlib.Path(root)
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)

    @staticmethod
    def _count(stat: str) -> None:
        metrics.inc(f"cache.{stat}")

    # -- paths ----------------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of a record (whether or not it exists)."""
        self._check_key(key)
        return self.root / key[:2] / f"{key}.npz"

    @staticmethod
    def _check_key(key: str) -> None:
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")

    # -- record I/O -----------------------------------------------------------

    def get(self, key: str) -> tuple[dict[str, np.ndarray], dict] | None:
        """Load a record; returns ``(arrays, meta)`` or ``None`` on a miss.

        Two distinct unreadable-record paths, both of which count as a
        miss (the caller transparently recomputes):

        * **schema mismatch** — an old-layout record after a
          ``SCHEMA_VERSION`` bump; expected, silently removed;
        * **corruption** — a truncated write, bit rot, or a non-npz file
          squatting at the record path; the file is quarantined to
          ``<name>.npz.corrupt`` (preserving the evidence for inspection)
          with a logged warning, and ``cache.corrupt`` is bumped.
        """
        if cache_disabled():
            self._count("misses")
            return None
        path = self.path_for(key)
        if not path.is_file():
            self._count("misses")
            return None
        try:
            with np.load(path, allow_pickle=False) as record:
                meta = json.loads(str(record["__meta__"]))
                schema = meta.get("schema")
                arrays = {
                    name: record[name] for name in record.files if name != "__meta__"
                }
        except Exception as exc:
            self._quarantine(path, exc)
            self._count("misses")
            return None
        if schema != SCHEMA_VERSION:
            # Not corruption — just an older (or newer) writer's record.
            path.unlink(missing_ok=True)
            self._count("misses")
            return None
        try:
            path.touch()  # refresh mtime -> LRU recency
        except OSError:  # pragma: no cover - best effort only
            pass
        self._count("hits")
        return arrays, meta

    def put(
        self, key: str, arrays: dict[str, np.ndarray], meta: dict | None = None
    ) -> dict:
        """Store a record atomically (write to a temp file, then rename).

        Every record is stamped with a ``fingerprint`` meta field — the
        :func:`~repro.perf.fingerprint.payload_fingerprint` of the stored
        arrays — so readers can verify the payload still hashes to what
        was computed (records written before the field existed simply
        lack it; ``schema`` is unchanged because old records stay
        readable).  Returns the stamped meta, stored or not.
        """
        full_meta = {
            "schema": SCHEMA_VERSION,
            "fingerprint": payload_fingerprint(arrays),
            **(meta or {}),
        }
        if cache_disabled():
            return full_meta
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(arrays)
        if "__meta__" in payload:
            raise ValueError("'__meta__' is a reserved payload name")
        payload["__meta__"] = np.asarray(json.dumps(full_meta))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".npz"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._count("puts")
        self._evict()
        return full_meta

    def _quarantine(self, path: pathlib.Path, cause: Exception) -> None:
        """Move an unreadable record aside as ``<name>.corrupt``.

        Quarantined files keep the evidence for post-mortem inspection
        (they no longer match the ``*.npz`` record glob, so they are
        invisible to lookups, ``__len__`` and eviction) while the record
        slot is freed for a clean recompute.
        """
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:  # pragma: no cover - racing cleanup; drop instead
            path.unlink(missing_ok=True)
            quarantined = None
        self._count("corrupt")
        _log.warning(
            "cache.quarantined",
            file=path.name,
            quarantined=quarantined.name if quarantined is not None else "(removed)",
            fault="cache-corruption",
            error=type(cause).__name__,
            detail=str(cause),
        )

    # -- maintenance ----------------------------------------------------------

    def _records(self) -> list[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return [p for p in self.root.glob("??/*.npz") if p.is_file()]

    def __len__(self) -> int:
        return len(self._records())

    def _evict(self) -> None:
        records = self._records()
        excess = len(records) - self.max_entries
        if excess <= 0:
            return
        # Processes sharing the store evict concurrently: a record another
        # one removed after our listing is already gone, not an error.
        aged = []
        for record in records:
            try:
                aged.append((record.stat().st_mtime, record))
            except FileNotFoundError:
                excess -= 1
        aged.sort(key=lambda entry: entry[0])
        for _, stale in aged[: max(excess, 0)]:
            stale.unlink(missing_ok=True)

    def fingerprint_coverage(self) -> dict[str, int]:
        """How many on-disk records carry (and satisfy) output fingerprints.

        Returns counts for ``repro cache --stats``::

            {"records": N, "fingerprinted": F, "legacy": L,
             "verified": V, "mismatched": M}

        ``verified`` re-hashes each fingerprinted record's arrays and
        compares; a mismatch means the bytes on disk no longer hash to
        what was computed (bit rot that np.load alone cannot see).
        ``legacy`` counts records written before output fingerprints
        existed (their meta has no ``fingerprint`` field) — they are
        reported separately rather than against coverage, because an old
        record is not a missing fingerprint in *today's* write path.
        Unreadable records are skipped here — ordinary :meth:`get` traffic
        quarantines them.
        """
        counts = {
            "records": 0,
            "fingerprinted": 0,
            "legacy": 0,
            "verified": 0,
            "mismatched": 0,
        }
        for path in self._records():
            try:
                with np.load(path, allow_pickle=False) as record:
                    meta = json.loads(str(record["__meta__"]))
                    arrays = {
                        name: record[name]
                        for name in record.files
                        if name != "__meta__"
                    }
            except Exception:
                continue
            counts["records"] += 1
            stored = meta.get("fingerprint")
            if not stored:
                counts["legacy"] += 1
                continue
            counts["fingerprinted"] += 1
            if payload_fingerprint(arrays) == stored:
                counts["verified"] += 1
            else:
                counts["mismatched"] += 1
        return counts

    def clear(self) -> int:
        """Remove every record; returns how many were deleted."""
        records = self._records()
        for record in records:
            record.unlink(missing_ok=True)
        return len(records)

