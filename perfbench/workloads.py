"""The four workloads: set-up, the measured loop, output checks, layer split.

Every workload drives the program only through its public entry points
(``predict_lock_range``, ``predict_natural_oscillation``,
``TwoToneDF.characterize``, ``extract_level_curves``, ``SweepSpec.tongue``
with ``run_sweep``, ``simulate_lock_range``, ``ServiceThread`` with
``ServeClient``, and the ``repro.obs`` tracer and metrics registry).
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import layers
from harness import (
    Spans,
    Tally,
    balanced_median,
    children_peak_rss_mb,
    counter_diff,
    counter_total,
    describe_latencies,
    median,
    calibration_s,
    overhead_ratio,
    self_peak_rss_mb,
    speed_scale,
    timed_loop,
)

HERE = pathlib.Path(__file__).resolve().parent

FAMILIES_OF = {
    "predict-cold": inputs.PREDICT_FAMILIES,
    "tongue-sweep": inputs.TONGUE_FAMILIES,
    "serve-mixed": inputs.SERVE_FAMILIES,
    "paper-speedup": inputs.TONGUE_FAMILIES,
}

#: Service shape of serve-mixed: one worker and one closed-loop client per
#: core of the two-core machine the benchmark was sized on.
SERVE_WORKERS = 2
SERVE_CLIENTS = 2

#: Tracer windows of a traced serve-mixed run (alternately off and on).
SERVE_TRACE_WINDOWS = 8

#: Calibration loops timed before and again after serve-mixed's loop.
SERVE_CALIBRATIONS = 10

#: Edges must match reference.json to this fraction of the edge frequency.
#: A lock-range edge is the golden-section maximum of phi_d along the
#: T_f = 1 curve, refined to 1e-10 rad, so the refinement itself moves the
#: edge by far less than double-precision roundoff of the edge frequency.
#: What remains is roundoff: a different libm, FFT or BLAS build changes
#: I_1 in its last bits (~1e-16 relative), and the level-curve, Newton and
#: tan(phi_d)/2Q steps amplify that by the problem's conditioning.  1e-9
#: leaves 1e7 of headroom over unit roundoff, yet is 1e-7..3e-7 of the lock
#: width -- a thousand times below the 1e-4-of-width gap between the fft
#: and dense methods, so any change to the numerical method shows.
TABLE_TOLERANCE_REL = 1e-9

#: The layer split of a traced prediction must cover its wall time except
#: for this share (bookkeeping between the layers).
PREDICT_RESIDUE = 0.05

#: paper-speedup's width gate: prediction within 10% of the transient width.
WIDTH_GATE = 0.1


@dataclass
class Setup:
    backend: str | None
    oscillators: dict
    host: object = None
    warmup_s: float = 0.0


@dataclass
class Outcome:
    """What one workload run measured."""

    tally: Tally
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


# -- set-up ---------------------------------------------------------------------


def setup(workload: str, cache_dir: pathlib.Path) -> Setup:
    """Imports, C-kernel compile into ``cache_dir``, oscillators, service.

    Everything a workload's first operation would otherwise pay for.
    """
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    import repro.core.lockrange  # noqa: F401
    from repro.odesim import best_compiled_backend
    from repro.verify.scenarios import FAMILIES

    if workload in ("tongue-sweep", "serve-mixed"):
        import repro.sweep  # noqa: F401
    elif workload == "paper-speedup":
        import repro.measure.lockrange_sim  # noqa: F401

    backend = best_compiled_backend()
    oscillators = {family: FAMILIES[family]() for family in FAMILIES_OF[workload]}
    state = Setup(backend, oscillators)
    if workload == "serve-mixed":
        from repro.serve import ServeConfig, ServiceThread

        state.host = ServiceThread(ServeConfig(workers=SERVE_WORKERS)).start()
        t0 = time.perf_counter()
        try:
            _warm_up(state.host.port)
        except Exception:
            state.host.stop()
            raise
        state.warmup_s = time.perf_counter() - t0
    return state


def _warm_up(port: int) -> None:
    """One concurrent natural-oscillation job per worker (no surface work)."""
    from repro.serve import ServeClient

    replies = []

    def submit(family: str) -> None:
        replies.append(
            ServeClient(port=port).submit({"kind": "natural", "family": family}, wait=True)
        )

    threads = [
        threading.Thread(target=submit, args=(inputs.SERVE_FAMILIES[i % 2],))
        for i in range(SERVE_WORKERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    if len(replies) != SERVE_WORKERS or any(
        status != 200 or body.get("status") != "completed" for status, body in replies
    ):
        raise RuntimeError(f"service warm-up failed: {replies}")


def prime(workload: str, state: Setup, work_dir: pathlib.Path) -> None:
    """Run each family's kind of operation once, off the measured inputs
    and in a throwaway cache, so lazy imports, first-call code paths and
    the allocator are warm before timing starts while every measured
    lookup still misses.  (serve-mixed's workers are warmed in ``setup``.)"""
    import shutil

    from repro.core.lockrange import predict_lock_range

    if workload == "serve-mixed":
        return
    saved = os.environ["REPRO_CACHE_DIR"]
    scratch = work_dir / "prime"
    os.environ["REPRO_CACHE_DIR"] = str(scratch)
    try:
        for family, (nonlinearity, tank) in state.oscillators.items():
            if workload == "tongue-sweep":
                from repro.sweep import SweepSpec, run_sweep

                spec = SweepSpec.tongue(family, inputs.ORDER, [0.5 * inputs.PAPER_V_I],
                                        freq_count=inputs.TONGUE_COLUMNS)
                run_sweep(spec, cache=_spanning_cache(scratch / "sweep"))
            else:
                predict_lock_range(nonlinearity, tank, v_i=0.5 * inputs.PAPER_V_I,
                                   n=inputs.ORDER)
    finally:
        os.environ["REPRO_CACHE_DIR"] = saved
        shutil.rmtree(scratch, ignore_errors=True)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())["edges"]


def _edge_problem(reference: dict, family: str, k: int, lower: float, upper: float) -> str:
    want_lower, want_upper = reference[family][k]
    for what, have, want in (("lower", lower, want_lower), ("upper", upper, want_upper)):
        if not abs(have - want) <= TABLE_TOLERANCE_REL * abs(want):
            return f"{family} k={k}: {what} edge {have!r} != reference {want!r}"
    return ""


class _Traced:
    """Turn the tracer on around chosen operations; keep their spans and
    the counter growth that happened while it was on."""

    def __init__(self):
        from repro.obs import metrics, tracer

        self.tracer = tracer
        self.metrics = metrics
        self.batches: list[list[dict]] = []
        self.counters: dict = {}
        self._before: dict = {}

    def start(self) -> None:
        self._before = dict(self.metrics.snapshot()["counters"])
        self.tracer.enable()

    def stop(self) -> None:
        self.batches.append(self.tracer.records())
        self.tracer.clear()
        after = self.metrics.snapshot()["counters"]
        for key, grew in counter_diff(self._before, after).items():
            self.counters[key] = self.counters.get(key, 0) + grew


def _is_traced(index: int) -> bool:
    """Operations alternate in pairs (off, off, on, on, ...): a pattern that
    does not line up with the families' turns, so both sides see every
    family, in the same cache state, and their latency ratio is the
    tracing overhead."""
    return (index // 2) % 2 == 1


def _alternating(seconds, items, op, tally, calibrations, traced: _Traced):
    def before(i):
        if _is_traced(i):
            traced.start()

    def after(i):
        if _is_traced(i):
            traced.stop()

    samples = timed_loop(
        seconds, items, op, tally, calibrations, before=before, after=after
    )
    plain = [s for s in samples if not _is_traced(s[3])]
    spanned = [s for s in samples if _is_traced(s[3])]
    return samples, plain, spanned


def _at_reference_speed(out: Outcome, calibrations, latency_s: float,
                        throughput: float) -> dict:
    """The gated end-to-end figures, at the reference machine speed.

    The raw figures and the speed factor go on the human-readable lines.
    """
    scale = speed_scale(calibrations)
    out.notes.append(
        f"raw latency_p50_s {latency_s:.6g} s, raw throughput_per_s {throughput:.6g}; "
        f"machine speed factor {scale:.4f} (calibration median "
        f"{median(calibrations) * 1e3:.3f} ms, N={len(calibrations)})"
    )
    return {"latency_p50_s": latency_s * scale, "throughput_per_s": throughput / scale}


# -- predict-cold ---------------------------------------------------------------


def predict_cold(state: Setup, seed: int, seconds: float, trace: bool,
                 work_dir: pathlib.Path) -> Outcome:
    from repro.core.lockrange import predict_lock_range

    reference = load_reference()
    tally = Tally()
    stream = inputs.predict_stream(seed)

    def undecomposed(item):
        family, k = item
        nonlinearity, tank = state.oscillators[family]
        return predict_lock_range(nonlinearity, tank, v_i=inputs.v_i_at(k), n=inputs.ORDER)

    def decomposed(item):
        family, k = item
        nonlinearity, tank = state.oscillators[family]
        return decomposed_prediction(nonlinearity, tank, inputs.v_i_at(k))

    out = Outcome(tally)
    calibrations: list[float] = []
    if not trace:
        samples = timed_loop(seconds, stream, undecomposed, tally, calibrations)
    else:
        traced = _Traced()
        samples, plain, spanned = _alternating(
            seconds, stream, decomposed, tally, calibrations, traced
        )
        out.per_layer = layers.per_layer(traced.batches, traced.counters, len(spanned))
        out.per_layer["obs.trace_overhead_ratio"] = overhead_ratio(
            ((s[0][0], s[2]) for s in plain), ((s[0][0], s[2]) for s in spanned)
        )
        covered = layers.covered_time(traced.batches)
        op_wall = sum(s[2] for s in spanned)
        residue = 1.0 - covered / op_wall if op_wall else 0.0
        out.per_layer["obs.uncovered_ratio"] = residue
        tally.attempt(
            residue <= PREDICT_RESIDUE,
            f"layer split leaves {residue:.1%} of the prediction wall time "
            f"uncovered (> {PREDICT_RESIDUE:.0%})",
        )
        # The decomposed pipeline must reproduce the one-call answer
        # bitwise: checked on the first traced input of each family.
        seen = set()
        for item, lock, *_ in spanned:
            if item[0] in seen:
                continue
            seen.add(item[0])
            whole = undecomposed(item)
            tally.attempt(
                (whole.injection_lower, whole.injection_upper)
                == (lock.injection_lower, lock.injection_upper),
                f"{item}: decomposed pipeline differs from predict_lock_range",
            )
    for (family, k), lock, *_ in samples:
        problem = _edge_problem(reference, family, k, lock.injection_lower, lock.injection_upper)
        tally.attempt(not problem, problem)
    latencies = [s[2] for s in samples]
    by_family = {
        f: [s[2] for s in samples if s[0][0] == f] for f in inputs.PREDICT_FAMILIES
    }
    out.notes.append(f"predict_s: {describe_latencies(latencies)}; CPU "
                     f"{balanced_median((s[0][0], s[4]) for s in samples):.4f} s")
    out.notes.append(
        "per family p50 (min): "
        + ", ".join(f"{f} {median(v):.4f} s ({min(v):.4f} s, N={len(v)})"
                    for f, v in by_family.items() if v)
    )
    out.end_to_end = _at_reference_speed(
        out, calibrations,
        balanced_median((s[0][0], s[2]) for s in samples),
        len(samples) / sum(latencies),
    )
    return out


def decomposed_prediction(nonlinearity, tank, v_i: float):
    """``predict_lock_range`` taken apart into its public stages, each in a
    ``bench.*`` span: natural solve, pre-characterisation, curve
    extraction, then the lock solve on the injected DF and window."""
    from repro.core.curves import extract_level_curves
    from repro.core.lockrange import predict_lock_range
    from repro.core.natural import predict_natural_oscillation
    from repro.core.two_tone import TwoToneDF
    from repro.obs import trace

    defaults = inspect.signature(predict_lock_range).parameters
    n_a = defaults["n_a"].default
    n_phi = defaults["n_phi"].default
    with trace("bench.natural"):
        natural = predict_natural_oscillation(nonlinearity, tank)
    window = (0.3 * natural.amplitude, 1.4 * natural.amplitude)
    df = TwoToneDF(nonlinearity, v_i, inputs.ORDER)
    amplitudes = np.linspace(window[0], window[1], n_a)
    half_cell = np.pi / (n_phi - 1)
    phis = np.linspace(half_cell, 2.0 * np.pi + half_cell, n_phi)
    with trace("bench.characterize"):
        grid = df.characterize(amplitudes, phis, tank.peak_resistance)
    with trace("bench.curves"):
        extract_level_curves(grid, "tf", 1.0)
    with trace("bench.lockrange"):
        return predict_lock_range(
            nonlinearity, tank, v_i=v_i, n=inputs.ORDER, df=df, amplitude_window=window
        )


# -- tongue-sweep -----------------------------------------------------------------


def _spanning_cache(root: pathlib.Path):
    """A sharded surface tier at ``root`` with benchmark spans around the
    engine's batched lookup and the stacked build it triggers."""
    from repro.obs import trace
    from repro.perf import ShardedSurfaceCache

    class SpanningCache(ShardedSurfaceCache):
        def get_or_build_many(self, shard, items, builder_many):
            def build(missing):
                with trace("bench.sweep.surface_build"):
                    return builder_many(missing)

            with trace("bench.sweep.surface_cache"):
                return super().get_or_build_many(shard, items, build)

    return SpanningCache(root)


def tongue_sweep(state: Setup, seed: int, seconds: float, trace: bool,
                 work_dir: pathlib.Path) -> Outcome:
    from repro.core.lockrange import predict_lock_range
    from repro.sweep import SweepSpec, run_sweep

    reference = load_reference()
    tally = Tally()
    maps = itertools.count()

    def op(item):
        family, rows = item
        spec = SweepSpec.tongue(
            family,
            inputs.ORDER,
            [inputs.v_i_at(k) for k in rows],
            freq_count=inputs.TONGUE_COLUMNS,
        )
        # Every map starts from an empty surface tier: one stacked build
        # plus one lock solve per row, whatever rows earlier maps drew.
        return run_sweep(spec, cache=_spanning_cache(work_dir / f"sweep-{next(maps)}"))

    out = Outcome(tally)
    stream = inputs.tongue_stream(seed)
    calibrations: list[float] = []
    if not trace:
        samples = timed_loop(seconds, stream, op, tally, calibrations)
    else:
        traced = _Traced()
        samples, plain, spanned = _alternating(
            seconds, stream, op, tally, calibrations, traced
        )
        out.per_layer = layers.per_layer(traced.batches, traced.counters, len(spanned))
        out.per_layer["obs.trace_overhead_ratio"] = overhead_ratio(
            ((s[0][0], s[2]) for s in plain), ((s[0][0], s[2]) for s in spanned)
        )
        op_wall = sum(s[2] for s in spanned)
        covered = layers.covered_time(traced.batches)
        out.per_layer["obs.uncovered_ratio"] = 1.0 - covered / op_wall if op_wall else 0.0

    points = 0
    for (family, rows), result, *_ in samples:
        points += result.n_points
        by_vi = {}
        for outcome in result.outcomes:
            if outcome.status != "ok":
                tally.attempt(False, f"{family} point {outcome.point}: {outcome.status}")
                continue
            by_vi[outcome.point.v_i] = outcome.lock
        for k in rows:
            lock = by_vi.get(inputs.v_i_at(k))
            if lock is None:
                continue
            problem = _edge_problem(
                reference, family, k, lock.injection_lower, lock.injection_upper
            )
            tally.attempt(not problem, problem)
    # Batched rows must equal the scalar call bitwise: two seeded rows.
    rng = np.random.default_rng([seed, 5])
    for index in rng.choice(len(samples), size=min(2, len(samples)), replace=False):
        (family, rows), result, *_ = samples[int(index)]
        k = rows[int(rng.integers(len(rows)))]
        nonlinearity, tank = state.oscillators[family]
        scalar = predict_lock_range(
            nonlinearity, tank, v_i=inputs.v_i_at(k), n=inputs.ORDER
        )
        batched = next(
            o.lock for o in result.outcomes if o.point.v_i == inputs.v_i_at(k)
        )
        tally.attempt(
            (scalar.injection_lower, scalar.injection_upper)
            == (batched.injection_lower, batched.injection_upper),
            f"{family} k={k}: batched row differs from scalar predict_lock_range",
        )
    latencies = [s[2] for s in samples]
    out.notes.append(f"tongue map ({inputs.TONGUE_ROWS}x{inputs.TONGUE_COLUMNS}) s: "
                     f"{describe_latencies(latencies)}; CPU "
                     f"{balanced_median((s[0][0], s[4]) for s in samples):.4f} s")
    out.notes.append(f"sweep_points_per_s: {points / sum(latencies):.2f} "
                     f"({points} points in {sum(latencies):.2f} s of maps)")
    out.end_to_end = _at_reference_speed(
        out, calibrations,
        balanced_median((s[0][0], s[2]) for s in samples),
        points / sum(latencies),
    )
    return out


# -- serve-mixed -----------------------------------------------------------------


def serve_mixed(state: Setup, seed: int, seconds: float, trace: bool,
                work_dir: pathlib.Path) -> Outcome:
    """Closed loop: SERVE_CLIENTS threads, each submitting its next job only
    when the previous one reached a terminal status."""
    from repro.serve import ServeClient

    tally = Tally()
    out = Outcome(tally)
    stream = inputs.serve_stream(seed)
    lock = threading.Lock()
    results = []  # (job, status, body, latency, window at submit, window at reply)
    traced = _Traced() if trace else None
    window = [0]  # odd windows are traced

    def client() -> None:
        session = ServeClient(port=state.host.port, timeout_s=60.0)
        while time.perf_counter() - start < seconds:
            with lock:
                job = next(stream)
                opened = window[0]
            t0 = time.perf_counter()
            try:
                status, body = session.submit(job, wait=True)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                status, body = None, {"error": f"{type(exc).__name__}: {exc}"}
            latency = time.perf_counter() - t0
            with lock:
                results.append((job, status, body, latency, opened, window[0]))

    # The machine's speed is probed just before and just after the loop:
    # probing during it would compete with the workers for the cores.
    calibrations = [calibration_s() for _ in range(SERVE_CALIBRATIONS)]
    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    if traced is not None:
        # Jobs overlap, so the tracer cannot follow single jobs: it is
        # switched in alternating time windows instead, and only jobs that
        # ran entirely inside one window count on either side.
        for _ in range(SERVE_TRACE_WINDOWS - 1):
            time.sleep(seconds / SERVE_TRACE_WINDOWS)
            with lock:
                window[0] += 1
                if window[0] % 2:
                    traced.start()
                else:
                    traced.stop()
    for t in threads:
        t.join(timeout=seconds + 120.0)
    wall = time.perf_counter() - start
    calibrations += [calibration_s() for _ in range(SERVE_CALIBRATIONS)]
    if traced is not None and window[0] % 2:
        traced.stop()
    out.notes.append(f"service workers peak RSS {children_peak_rss_mb():.1f} MB")
    peak = self_peak_rss_mb() + children_peak_rss_mb()
    if any(t.is_alive() for t in threads):
        tally.attempt(False, "a client thread did not finish")

    t0 = time.perf_counter()
    _check_served(state, results, tally)
    out.notes.append(f"in-process answers for the checks took {time.perf_counter() - t0:.2f} s")
    latencies = [r[3] for r in results]
    jobs_ok = sum(1 for r in results if r[1] == 200)
    kinds = {k: sum(1 for r in results if r[0]["kind"] == k) for k in ("lockrange", "tongue")}
    out.notes.append(f"serve_s: {describe_latencies(latencies)}")
    out.notes.append(f"jobs: {kinds}, HTTP 200: {jobs_ok}, wall {wall:.2f} s")
    out.end_to_end = _at_reference_speed(
        out, calibrations,
        balanced_median((r[0]["kind"], r[3]) for r in results),
        len(results) / wall,
    )
    out.end_to_end["peak_rss_mb"] = peak
    if traced is not None:
        # Window 0 also holds the service's first surface builds.
        whole = [r for r in results if r[4] == r[5] and r[4] > 0]
        spanned = [r for r in whole if r[4] % 2]
        plain = [r for r in whole if not r[4] % 2]
        out.per_layer = layers.per_layer(traced.batches, traced.counters, len(spanned))
        out.per_layer.update(_serve_layers(traced.batches, spanned, traced.counters))
        out.per_layer["obs.trace_overhead_ratio"] = overhead_ratio(
            ((r[0]["kind"], r[3]) for r in plain), ((r[0]["kind"], r[3]) for r in spanned)
        )
    return out


def _check_served(state: Setup, results, tally: Tally) -> None:
    """Every job completed, undegraded, and equals the in-process answer."""
    from repro.core.lockrange import predict_lock_range
    from repro.serve import parse_job
    from repro.sweep import SweepSpec, run_sweep

    expected: dict[str, dict] = {}
    for job, status, body, *_ in results:
        name = f"{job['kind']} {job['family']} v_i={job['v_i']!r}"
        if status != 200 or body.get("status") != "completed" or body.get("degraded"):
            tally.attempt(False, f"{name}: HTTP {status} {body.get('status')} "
                                 f"{body.get('error') or body.get('reason') or ''}")
            continue
        key = json.dumps(job, sort_keys=True)
        if key not in expected:
            spec = parse_job(job)
            nonlinearity, tank = state.oscillators[spec.family]
            if spec.kind == "lockrange":
                lock = predict_lock_range(
                    nonlinearity, tank, v_i=spec.v_i, n=spec.n, n_a=spec.n_a,
                    n_phi=spec.n_phi, n_samples=spec.n_samples, method=spec.method,
                )
                expected[key] = {
                    "injection_lower_hz": lock.injection_lower_hz,
                    "injection_upper_hz": lock.injection_upper_hz,
                    "width_hz": lock.width_hz,
                }
            else:
                sweep = run_sweep(
                    SweepSpec.tongue(
                        spec.family, spec.n,
                        np.linspace(spec.v_i / spec.vi_count, spec.v_i, spec.vi_count),
                        freq_rel_span=spec.freq_rel_span, freq_count=spec.freq_count,
                        method=spec.method, n_a=spec.n_a, n_phi=spec.n_phi,
                        n_samples=spec.n_samples,
                    )
                )
                expected[key] = {
                    "points": sweep.n_points,
                    "counts": sweep.counts(),
                    "locked_points": sum(1 for o in sweep.outcomes if o.locked),
                }
        result = body.get("result") or {}
        want = expected[key]
        have = {name_: result.get(name_) for name_ in want}
        tally.attempt(have == want, f"{name}: served {have} != in-process {want}")


def _serve_layers(batches, spanned, counters) -> dict:
    """Request -> job -> attempt -> worker split of the stitched traces."""
    http, attempt_over, worker, queue = [], [], [], []
    for records in batches:
        spans = Spans(records)
        jobs = {}
        for rec in spans.named("serve.job"):
            jobs.setdefault(rec.get("trace_id"), []).append(rec)
            queue.append(float(rec.get("attrs", {}).get("queue_wait_s", 0.0)))
            for attempt in spans.under(rec, "serve.attempt"):
                solve = sum(
                    k["dur_s"] for k in spans.kids(attempt) if k.get("process") == "worker"
                )
                worker.append(solve)
                attempt_over.append(attempt["dur_s"] - solve)
        for rec in spans.named("serve.request"):
            if rec.get("attrs", {}).get("path") != "/v1/jobs":
                continue
            for job in jobs.get(rec.get("trace_id"), []):
                http.append(rec["dur_s"] - job["dur_s"])

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "serve.queue_wait_s": mean(queue),
        "serve.http_overhead_s": mean(http),
        "serve.attempt_overhead_s": mean(attempt_over),
        "serve.worker_solve_s": mean(worker),
        "serve.rejected": counter_total(counters, "serve.rejected"),
        "serve.retries": counter_total(counters, "serve.retried"),
        "serve.degraded": counter_total(counters, "serve.degraded"),
        "obs.uncovered_ratio": (
            1.0 - sum(r["dur_s"] for b in batches for r in b
                      if r["name"] == "serve.request"
                      and r.get("attrs", {}).get("path") == "/v1/jobs")
            / sum(r[3] for r in spanned)
            if spanned
            else 0.0
        ),
    }


# -- paper-speedup --------------------------------------------------------------


def paper_speedup(state: Setup, seed: int, seconds: float, trace: bool,
                  work_dir: pathlib.Path) -> Outcome:
    """Paper Tables 1-2: cold prediction vs transient simulation per row."""
    from repro.core.lockrange import predict_lock_range
    from repro.measure.lockrange_sim import simulate_lock_range
    from repro.obs import trace as span

    tally = Tally()
    out = Outcome(tally)
    order = inputs.paper_order(seed)
    fresh = itertools.count()

    def rows():
        while True:
            yield from order

    def op(family):
        nonlinearity, tank = state.oscillators[family]
        # A fresh cache directory makes every prediction cold.
        saved = os.environ["REPRO_CACHE_DIR"]
        os.environ["REPRO_CACHE_DIR"] = str(work_dir / f"cold-{next(fresh)}")
        try:
            t0 = time.perf_counter()
            with span("bench.predict"):
                predicted = predict_lock_range(
                    nonlinearity, tank, v_i=inputs.PAPER_V_I, n=inputs.ORDER
                )
            t_pred = time.perf_counter() - t0
        finally:
            os.environ["REPRO_CACHE_DIR"] = saved
        t0 = time.perf_counter()
        with span("bench.simulate"):
            simulated = simulate_lock_range(
                nonlinearity, tank, v_i=inputs.PAPER_V_I, n=inputs.ORDER,
                **inputs.SIM_SETTINGS,
            )
        return predicted, simulated, t_pred, time.perf_counter() - t0

    calibrations: list[float] = []
    if not trace:
        samples = timed_loop(seconds, rows(), op, tally, calibrations)
    else:
        traced = _Traced()
        samples, plain, spanned = _alternating(
            seconds, rows(), op, tally, calibrations, traced
        )
        out.per_layer = layers.per_layer(traced.batches, traced.counters, len(spanned))
        out.per_layer["obs.trace_overhead_ratio"] = overhead_ratio(
            ((s[0], s[2]) for s in plain), ((s[0], s[2]) for s in spanned)
        )
        sim_wall = sum(s[1][3] for s in spanned)
        odesim_s = sum(r["dur_s"] for b in traced.batches for r in b
                       if r["name"] == "odesim.transient")
        out.per_layer["obs.uncovered_ratio"] = 1.0 - odesim_s / sim_wall if sim_wall else 0.0

    pred = {f: [s[1][2] for s in samples if s[0] == f] for f in order}
    sim = {f: [s[1][3] for s in samples if s[0] == f] for f in order}
    width_err = 0.0
    for family, (predicted, simulated, _, _), *_ in samples:
        err = abs(predicted.width_hz / simulated.width_hz - 1.0)
        width_err = max(width_err, err)
        tally.attempt(err < WIDTH_GATE,
                      f"{family}: predicted width off the transient width by {err:.1%}")
    ran = [f for f in order if sim[f]]
    prediction_s = sum(median(pred[f]) for f in ran)
    simulation_s = sum(median(sim[f]) for f in ran)
    out.notes.append(
        "rows: " + ", ".join(
            f"{f} prediction {median(pred[f]):.4f} s, simulation {median(sim[f]):.3f} s "
            f"(N={len(sim[f])})" for f in ran
        )
    )
    out.notes.append(
        f"prediction_s {prediction_s:.4f}, simulation_s {simulation_s:.3f}, "
        f"prediction_vs_simulation_x {simulation_s / prediction_s:.1f} "
        f"(sum over rows of per-row medians), width_err_vs_transient {width_err:.4f}"
    )
    out.end_to_end = _at_reference_speed(
        out, calibrations,
        balanced_median((s[0], s[1][3]) for s in samples),
        len(samples) / sum(s[1][3] for s in samples),
    )
    if trace:
        out.per_layer["measure.prediction_vs_simulation_x"] = simulation_s / prediction_s
        out.per_layer["measure.width_err_vs_transient"] = width_err
    return out


#: Workload name -> ``runner(state, seed, seconds, trace, work_dir)``.
RUNNERS = {
    "predict-cold": predict_cold,
    "tongue-sweep": tongue_sweep,
    "serve-mixed": serve_mixed,
    "paper-speedup": paper_speedup,
}
WORKLOADS = tuple(RUNNERS)
