"""The metric tables and the per-layer arithmetic of the traced run.

``END_TO_END`` and ``LAYERS`` are the single source of the metric names:
``BENCHMARK.json`` lists the same names (a test holds them equal), and
each layer metric names the end-to-end metric it should move and on
which workload, as the traced run prints it.

Layer numbers come from three sources, none of them new instrumentation
inside the program: spans the benchmark opens around its own calls into a
layer (``bench.*``), the spans the program already emits (``lockrange``,
``characterize``, ``surface-build``, ``curve-solve``, ``sweep.group``,
``ladder``/``rung``, ``odesim.transient``, ``serve.request``/``serve.job``/
``serve.attempt`` and the worker spans grafted under them), and counter
deltas of the ``repro.obs`` metrics registry.  Time metrics are seconds
per workload operation (a prediction, a tongue map, a served job or a
transient simulation) unless the name says otherwise.
"""

from __future__ import annotations

from harness import Spans, counter_total, median

#: (name, unit, better, what it is on each workload)
END_TO_END = (
    ("setup_s", "s", "lower",
     "median of 3 fresh set-ups: imports, C-kernel compile into an empty "
     "cache, and for serve-mixed service boot plus one warm-up job per worker"),
    ("latency_p50_s", "s", "lower",
     "class-balanced median time of one operation at the reference machine "
     "speed: a cold prediction (predict-cold), a tongue map (tongue-sweep), "
     "submit to terminal status of a job (serve-mixed), a transient "
     "lock-range simulation (paper-speedup)"),
    ("throughput_per_s", "1/s", "higher",
     "operations per second of operation time (serve-mixed: of wall time) at "
     "the reference machine speed; tongue-sweep counts grid points"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the benchmark process plus the service's "
     "worker children"),
)

#: (name, unit, better, layer, end-to-end metric it should move, workload)
LAYERS = (
    ("natural.solve_s", "s", "lower", "core.natural", "latency_p50_s", "predict-cold"),
    ("natural.calls", "count", "lower", "core.natural", "latency_p50_s", "predict-cold"),
    ("two_tone.characterize_s", "s", "lower", "core.two_tone", "latency_p50_s", "predict-cold"),
    ("two_tone.surface_build_s", "s", "lower", "core.two_tone", "latency_p50_s", "predict-cold"),
    ("two_tone.dense_build_s", "s", "lower", "core.two_tone", "latency_p50_s (diffpair tail)", "predict-cold"),
    ("two_tone.df_evaluations", "count", "lower", "core.two_tone", "latency_p50_s", "predict-cold"),
    ("cache.hit_ratio", "ratio", "higher", "perf", "latency_p50_s", "serve-mixed"),
    ("cache.lookup_s", "s", "lower", "perf", "latency_p50_s", "serve-mixed"),
    ("cache.puts", "count", "lower", "perf", "latency_p50_s", "serve-mixed"),
    ("curves.extract_s", "s", "lower", "core.curves", "throughput_per_s", "tongue-sweep"),
    ("lockrange.curve_solve_s", "s", "lower", "core.lockrange", "throughput_per_s", "tongue-sweep"),
    ("lockrange.edge_refine_s", "s", "lower", "core.lockrange", "throughput_per_s", "tongue-sweep"),
    ("lockrange.samples", "count", "lower", "core.lockrange", "throughput_per_s", "tongue-sweep"),
    ("sweep.surface_build_s", "s", "lower", "sweep", "throughput_per_s", "tongue-sweep"),
    ("sweep.lock_solve_s", "s", "lower", "sweep", "throughput_per_s", "tongue-sweep"),
    ("sweep.points_per_lock_solve", "count", "higher", "sweep", "throughput_per_s", "tongue-sweep"),
    ("ladder.rungs_per_job", "count", "lower", "robust", "latency_p50_s", "serve-mixed"),
    ("ladder.escalations", "count", "lower", "robust", "latency_p50_s", "serve-mixed"),
    ("odesim.steps_per_s", "1/s", "higher", "odesim", "latency_p50_s", "paper-speedup"),
    ("odesim.early_exit_ratio", "ratio", "higher", "odesim", "latency_p50_s", "paper-speedup"),
    ("measure.sim_lockrange_s", "s", "lower", "measure", "latency_p50_s", "paper-speedup"),
    ("measure.prediction_vs_simulation_x", "x", "higher", "measure", "latency_p50_s", "paper-speedup"),
    ("measure.width_err_vs_transient", "ratio", "lower", "measure", "correctness gate (< 0.1)", "paper-speedup"),
    ("serve.queue_wait_s", "s", "lower", "serve", "latency_p50_s", "serve-mixed"),
    ("serve.http_overhead_s", "s", "lower", "serve", "latency_p50_s", "serve-mixed"),
    ("serve.attempt_overhead_s", "s", "lower", "serve", "latency_p50_s", "serve-mixed"),
    ("serve.worker_solve_s", "s", "lower", "serve", "throughput_per_s", "serve-mixed"),
    ("serve.rejected", "count", "lower", "serve", "throughput_per_s", "serve-mixed"),
    ("serve.retries", "count", "lower", "serve", "throughput_per_s", "serve-mixed"),
    ("serve.degraded", "count", "lower", "serve", "throughput_per_s", "serve-mixed"),
    ("obs.trace_overhead_ratio", "ratio", "lower", "obs", "every metric of the traced run", "all"),
    ("obs.uncovered_ratio", "ratio", "lower", "obs", "trust in the layer split", "all"),
)

#: Spans whose time counts as layer time when checking the layer split
#: covers an operation's wall time.
COVERING = (
    "bench.natural",
    "bench.characterize",
    "bench.curves",
    "bench.sweep.surface_cache",
    "characterize",
    "curve-extraction",
    "curve-solve",
    "edge-refine",
)


def self_time(spans: Spans, rec: dict) -> float:
    return rec["dur_s"] - sum(kid["dur_s"] for kid in spans.kids(rec))


def _ancestors(spans: Spans, rec: dict):
    parent = spans.by_id.get(rec.get("parent_id"))
    while parent is not None:
        yield parent
        parent = spans.by_id.get(parent.get("parent_id"))


def _solves_own_natural(spans: Spans, rec: dict) -> bool:
    """A ``lockrange`` span whose call solved the natural oscillation itself
    (no window injected by the benchmark's pipeline or the sweep engine)."""
    return not any(
        a["name"] in ("bench.lockrange", "sweep.group") for a in _ancestors(spans, rec)
    )


def per_layer(batches: list[list[dict]], counters: dict, ops: int) -> dict:
    """Layer metrics from traced span batches and counter snapshots.

    ``batches`` are tracer buffers (span ids are only unique within one);
    ``counters`` is the counter growth during the traced operations;
    ``ops`` is the number of traced operations.  The
    workload-specific metrics (serve, measure, obs) are filled by the
    workload itself.
    """
    ops = max(int(ops), 1)
    sums: dict[str, float] = {}
    natural_s = natural_calls = 0.0
    lock_samples = sweep_lock_s = 0.0
    rungs = ladders = 0
    steps_batch = steps_early = 0.0
    for records in batches:
        spans = Spans(records)
        for rec in spans.records:
            sums[rec["name"]] = sums.get(rec["name"], 0.0) + rec["dur_s"]
            name = rec["name"]
            if name == "bench.natural":
                natural_s += rec["dur_s"]
                natural_calls += 1
            elif name == "sweep.group":
                # The group's own time is its natural solve (its children
                # are the surface lookup/build and the per-V_i solves).
                natural_s += self_time(spans, rec)
                natural_calls += 1
            elif name == "lockrange":
                lock_samples += float(rec.get("attrs", {}).get("samples", 0))
                if any(a["name"] == "sweep.group" for a in _ancestors(spans, rec)):
                    sweep_lock_s += rec["dur_s"]
                if _solves_own_natural(spans, rec):
                    natural_s += self_time(spans, rec)
                    natural_calls += 1
            elif name == "ladder":
                ladders += 1
                rungs += len(spans.under(rec, "rung"))
            elif name == "odesim.transient":
                attrs = rec.get("attrs", {})
                steps_batch += float(attrs.get("batch", 0))
                steps_early += float(attrs.get("early_exits", 0))

    def total(name: str) -> float:
        return sums.get(name, 0.0)

    def delta(name: str) -> float:
        return counter_total(counters, name)

    hits = delta("cache.hits") + delta("cache.lru_hits")
    lookups = hits + delta("cache.misses")
    lock_solves = delta("sweep.lock_solves")
    sim_s = total("bench.simulate")
    return {
        "natural.solve_s": natural_s / ops,
        "natural.calls": natural_calls / ops,
        "two_tone.characterize_s": total("characterize") / ops,
        "two_tone.surface_build_s": total("surface-build") / ops,
        "two_tone.dense_build_s": total("dense-grid-build") / ops,
        "two_tone.df_evaluations": delta("df.evaluations") / ops,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookup_s": (
            total("surface-cache-lookup")
            + total("bench.sweep.surface_cache")
            - total("bench.sweep.surface_build")
        ) / ops,
        "cache.puts": delta("cache.puts") / ops,
        "curves.extract_s": total("curve-extraction") / ops,
        "lockrange.curve_solve_s": total("curve-solve") / ops,
        "lockrange.edge_refine_s": total("edge-refine") / ops,
        "lockrange.samples": lock_samples / ops,
        "sweep.surface_build_s": total("bench.sweep.surface_build") / ops,
        "sweep.lock_solve_s": sweep_lock_s / ops,
        "sweep.points_per_lock_solve": (
            delta("sweep.points") / lock_solves if lock_solves else 0.0
        ),
        "ladder.rungs_per_job": rungs / ladders if ladders else 0.0,
        "ladder.escalations": float(rungs - ladders),
        "odesim.steps_per_s": delta("odesim.steps") / sim_s if sim_s else 0.0,
        "odesim.early_exit_ratio": steps_early / steps_batch if steps_batch else 0.0,
        "measure.sim_lockrange_s": (
            median(r["dur_s"] for b in batches for r in b if r["name"] == "bench.simulate")
            if sim_s
            else 0.0
        ),
    }


def covered_time(batches: list[list[dict]]) -> float:
    """Time spent inside named layers, each instant counted once.

    Sums every span named in ``COVERING`` that has no ancestor also named
    there: the benchmark's own pipeline spans, the sweep's surface tier and
    the leaf layers of each lock-range solve.  What stays uncovered is
    bookkeeping between layers (and, on tongue-sweep, the engine's natural
    solve, which has no span of its own).
    """
    total = 0.0
    for records in batches:
        spans = Spans(records)
        for rec in spans.records:
            if rec["name"] in COVERING and not any(
                a["name"] in COVERING for a in _ancestors(spans, rec)
            ):
                total += rec["dur_s"]
    return total
