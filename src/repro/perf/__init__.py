"""Performance subsystem: the surface store.

The paper's pitch is that describing-function surfaces are "pre-characterised
computationally, at minimal cost, for any given nonlinearity" — which only
pays off if the pre-characterisation is computed *once* and reused.  This
package supplies the plumbing that makes that true across processes:

* :mod:`repro.perf.fingerprint` — content-addressed identity for
  nonlinearities (a hash of the sampled I/V content, not of the Python
  object), plus stable hashes for grid arrays and stored payloads;
* :mod:`repro.perf.sharded_cache` — the one surface store
  (:func:`default_store`): records at
  ``<cache root>/surfaces/<shard>/<key[:2]>/<key>.npz``, at most 128 per
  shard (oldest evicted first), an 8 MiB in-process LRU and single-flight
  builds; ``REPRO_CACHE_DIR`` moves the root, ``REPRO_NO_CACHE=1`` turns
  the store off, and :func:`cache_sandbox` sets both for one block;
* :mod:`repro.perf.surface_cache` — its per-shard disk tier (atomic
  writes, schema check, quarantine of corrupt records).

Timing is not here: every timed block is a span of
:mod:`repro.obs.tracing`.
"""

from repro.perf.fingerprint import (
    array_hash,
    combine_keys,
    nonlinearity_fingerprint,
    payload_fingerprint,
)
from repro.perf.sharded_cache import ShardedSurfaceCache, default_store, using_store
from repro.perf.surface_cache import SurfaceCache, cache_disabled, cache_sandbox

__all__ = [
    "array_hash",
    "combine_keys",
    "nonlinearity_fingerprint",
    "payload_fingerprint",
    "cache_disabled",
    "cache_sandbox",
    "SurfaceCache",
    "ShardedSurfaceCache",
    "default_store",
    "using_store",
]
