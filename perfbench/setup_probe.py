"""One timed set-up of a workload in a fresh process; prints its seconds.

``run.py`` starts this several times per run and reports the median as
``setup_s``.  Usage: ``python3 perfbench/setup_probe.py <workload> <cache-dir>``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

from harness import pin_thread_pools  # noqa: E402

pin_thread_pools()
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> int:
    state = workloads.setup(sys.argv[1], pathlib.Path(sys.argv[2]))
    elapsed = time.perf_counter() - T0
    if state.host is not None:
        state.host.stop()
    print(json.dumps({"setup_s": elapsed, "backend": state.backend}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
