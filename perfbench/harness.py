"""Measurement plumbing shared by the workloads: run hygiene, statistics,
failure accounting, the machine fingerprint, memory and span arithmetic.

Nothing here imports the program under test at module level, so the
statistics can be tested without it and ``run.py`` can refuse to run
cleanly when the program's sources are missing.
"""

from __future__ import annotations

import math
import os
import pathlib
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Thread pools of every numerical library are pinned to one thread in the
#: benchmark process, its set-up probes and the service's worker children
#: (which inherit the environment), so CPU time matches wall time.
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Iterations of the calibration loop, and its median time on the machine
#: the benchmark was sized on (2-vCPU Intel Xeon VM, CPython 3.11.7).
CALIBRATION_LOOPS = 100_000
CALIBRATION_REF_S = 0.0116

#: One calibration per this much operation time, so the speed estimate
#: samples a run evenly in time whatever its operations cost.
CALIBRATION_EVERY_S = 0.25


def pin_thread_pools() -> None:
    """Pin the numerical thread pools; must run before numpy is imported."""
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def balanced_median(pairs) -> float:
    """Mean over classes of each class's median, from ``(class, value)``
    pairs, so the figure does not move with the share of each class (an
    oscillator family, a job kind) that one run happened to draw."""
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    if not groups:
        raise ValueError("median of no samples")
    return sum(median(v) for v in groups.values()) / len(groups)


def overhead_ratio(plain, spanned) -> float:
    """Traced over untraced ``balanced_median`` on the classes both sides saw."""
    plain, spanned = list(plain), list(spanned)
    shared = {k for k, _ in plain} & {k for k, _ in spanned}
    if not shared:
        return 0.0
    return balanced_median((k, v) for k, v in spanned if k in shared) / balanced_median(
        (k, v) for k, v in plain if k in shared
    )


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value)`` with the value an actual sample (the
    one with exactly ``TAIL_BEYOND`` larger samples above it), or ``None``
    when the sample is too small to support any tail percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return 100.0 * rank / n, float(ordered[rank - 1])


def describe_latencies(values) -> str:
    """``p50 ...; p<q> ...; N=...`` with the tail rule applied."""
    parts = [f"p50 {median(values):.4f} s"]
    t = tail(values)
    if t is None:
        parts.append(f"no tail (needs > {TAIL_BEYOND} samples)")
    else:
        parts.append(f"p{math.floor(t[0])} {t[1]:.4f} s")
    parts.append(f"N={len(values)}")
    return "; ".join(parts)


# -- failure accounting -------------------------------------------------------


@dataclass
class Tally:
    """Attempted operations and checks, and every failure with its reason."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def attempt(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason or "failed")
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def calibration_s() -> float:
    """Time one fixed pure-Python loop that shares no code with the program.

    The machines this benchmark runs on change speed by up to a third from
    one minute to the next (other tenants on the same host).  The loop,
    timed between operations, tracks that speed; ``speed_scale`` turns it
    into the factor that reports a run's times at the reference speed.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def speed_scale(calibrations) -> float:
    """``CALIBRATION_REF_S`` over the run's median calibration time: the
    factor taking a time measured in this run to the reference speed."""
    return CALIBRATION_REF_S / median(calibrations)


def timed_loop(seconds: float, items, op, tally: Tally, calibrations: list,
               *, before=None, after=None):
    """Run ``op(item)`` over ``items`` until ``seconds`` of wall time passed.

    Always runs at least one operation.  Before each one it times
    ``calibration_s`` into ``calibrations``, once per ``CALIBRATION_EVERY_S``
    of the previous operation's latency (at least once).  Returns one
    ``(item, output, latency_s, index, cpu_s)`` sample for every
    operation that returned (``cpu_s`` is the calling thread's CPU
    time); an exception counts as a failed operation.  ``before`` and
    ``after`` bracket each operation outside its timed region.
    """
    samples = []
    start = time.perf_counter()
    latency = 0.0
    for index, item in enumerate(items):
        if index and time.perf_counter() - start >= seconds:
            break
        for _ in range(max(1, round(latency / CALIBRATION_EVERY_S))):
            calibrations.append(calibration_s())
        if before is not None:
            before(index)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            output = op(item)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            tally.attempt(False, f"{item!r}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if after is not None:
                after(index)
        latency = time.perf_counter() - t0
        samples.append((item, output, latency, index, time.thread_time() - c0))
        tally.attempt(True)
    return samples


# -- machine fingerprint and memory -------------------------------------------


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(backend: str | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "compiled_backend": backend or "numpy-fallback",
    }


def comparable(a: dict, b: dict) -> bool:
    """Runs compare only on the same compiled transient backend."""
    return a.get("compiled_backend") == b.get("compiled_backend")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def live_children() -> list[str]:
    """Process ids of this process's live children (Linux ``/proc``)."""
    pids = []
    for children in pathlib.Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(children.read_text().split())
        except OSError:
            continue
    return pids


def children_peak_rss_mb() -> float:
    """Summed peak RSS of this process's live children."""
    total_kb = 0
    for pid in live_children():
        try:
            status = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# -- spans ------------------------------------------------------------------------


class Spans:
    """Index over one tracer buffer (``tracer.records()``)."""

    def __init__(self, records: list[dict]):
        self.records = list(records)
        self.by_id = {rec["span_id"]: rec for rec in self.records}
        self.children: dict[int, list[dict]] = {}
        for rec in self.records:
            self.children.setdefault(rec.get("parent_id"), []).append(rec)

    def named(self, name: str) -> list[dict]:
        return [rec for rec in self.records if rec["name"] == name]

    def kids(self, rec: dict) -> list[dict]:
        return self.children.get(rec["span_id"], [])

    def under(self, rec: dict, name: str) -> list[dict]:
        """Every descendant of ``rec`` called ``name``."""
        found, stack = [], list(self.kids(rec))
        while stack:
            child = stack.pop()
            if child["name"] == name:
                found.append(child)
            stack.extend(self.kids(child))
        return found


def counter_diff(before: dict, after: dict) -> dict:
    """Per-key growth between two ``metrics.snapshot()["counters"]``."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}


def counter_total(deltas: dict, name: str) -> float:
    """Sum of a counter over all its label sets (``name`` or ``name{...}``)."""
    return sum(v for k, v in deltas.items() if k == name or k.startswith(name + "{"))
