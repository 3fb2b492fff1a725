"""Regenerate ``reference.json``: the lock-range edges every benchmark
input can produce, one scalar ``predict_lock_range`` call per grid point.

Run from the repository root (about five minutes on one core)::

    python3 perfbench/make_reference.py

Regenerate only on purpose: a change to the solver that moves an edge
by more than the stated tolerance must show as a failed check first.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile

import harness

harness.pin_thread_pools()

import inputs  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from repro.core.lockrange import predict_lock_range
    from repro.verify.scenarios import FAMILIES

    edges: dict[str, list[list[float]]] = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        for family in inputs.PREDICT_FAMILIES:
            nonlinearity, tank = FAMILIES[family]()
            rows = []
            for k in range(inputs.GRID_SIZE):
                lock = predict_lock_range(
                    nonlinearity, tank, v_i=inputs.v_i_at(k), n=inputs.ORDER
                )
                rows.append([lock.injection_lower, lock.injection_upper])
            edges[family] = rows
            print(f"{family}: {len(rows)} rows", flush=True)
    table = {
        "about": "predict_lock_range(family, v_i=inputs.v_i_at(k), n=3) edges "
        "[injection_lower, injection_upper] in rad/s, default solver settings",
        "grid_size": inputs.GRID_SIZE,
        "edges": edges,
    }
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
