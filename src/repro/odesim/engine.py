"""Chunked transient engine: compiled stepping, preallocated recording,
streaming monitors and batch compaction.

This module is the seam between the physics
(:func:`repro.odesim.oscillator.simulate_oscillator` defines *what* is
integrated) and the machinery that makes long runs fast (*how* it is
integrated).  Three pieces:

**Engine selection.**  ``"auto"`` (the default) runs the fastest available
path — the compiled kernels of :mod:`repro.odesim.kernels` when the
nonlinearity is kernel-compilable, the fused-numpy fallback otherwise.
``"compiled"`` insists on the generated-C backend and raises when it is
not available — use it in benchmarks so a missing toolchain fails loudly
instead of silently measuring the fallback.
``"reference"`` forces the original Python-callback RK4 loop, which is the
referee every fast path is validated against.  The process-wide default
comes from ``$REPRO_ENGINE`` or :func:`set_default_engine`; the CLI's
global ``--engine`` flag maps onto the latter.

**Chunked recording runs** (:func:`run_prepared`).  The reference loop
appends to Python lists sample by sample; here the recorded step indices
are computed up front from the same predicate (``(step+1) % record_every
== 0`` and ``(step+1)*dt >= record_start``), the output arrays are
preallocated exactly, and the kernel integrates in chunks — skipping the
per-step state write entirely for chunks that contain no recorded sample
(the settle phase of a lock-range run).

**Streaming monitored runs** (:func:`run_streaming`).  Lock classification
does not need full trajectories: a monitor (e.g.
:class:`repro.measure.lockdetect.StreamingLockDetector`) watches chunk
samples as integration proceeds and retires batch members whose verdict is
already certain.  Retired members are *compacted out* of the state arrays,
so the remaining integration narrows; when every member is decided the run
stops early.  Members that survive to the end get their observation window
recorded into a preallocated buffer so the caller can apply the exact
referee verdict to them.

Every run emits an ``odesim.transient`` span with the engine/backend and
early-exit statistics, plus ``odesim.steps`` / ``odesim.early_exits``
counters (DESIGN.md §10).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics, trace
from repro.odesim import kernels

__all__ = [
    "ENGINES",
    "default_engine",
    "set_default_engine",
    "resolve_engine",
    "run_prepared",
    "run_streaming",
    "StreamingResult",
]

ENGINES = ("auto", "compiled", "reference")

#: Steps per kernel call; large enough to amortise call overhead, small
#: enough that the per-chunk scratch stays cache-friendly.
DEFAULT_CHUNK_STEPS = 4096

_engine_override: str | None = None


def default_engine() -> str:
    """Process-wide engine: the override, else ``$REPRO_ENGINE``, else auto."""
    if _engine_override is not None:
        return _engine_override
    env = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if env in ENGINES:
        return env
    return "auto"


def set_default_engine(name: str | None) -> str | None:
    """Set the process-wide engine; ``None`` reverts to the environment.

    Returns the previous override (``None`` when there was none), so
    callers can restore it.
    """
    global _engine_override
    if name is not None and name not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {name!r}")
    previous = _engine_override
    _engine_override = name
    return previous


def resolve_engine(engine: str | None = None) -> str:
    """Validate an explicit engine choice or fall back to the default."""
    if engine is None:
        return default_engine()
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def _kernel_backend(engine: str) -> str:
    """Map an engine choice onto a kernel backend request."""
    if engine == "compiled":
        backend = kernels.best_compiled_backend()
        if backend is None:
            raise RuntimeError(
                "engine 'compiled' requested but no compiled kernel backend "
                "is available (no working C compiler); use "
                "engine 'auto' for the fused-numpy fallback"
            )
        return backend
    return "auto"


def _recorded_steps(
    n_steps: int, record_every: int, record_start: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """1-based completed-step indices the reference loop would record.

    The time comparison uses the identical float expression the loops use
    (``float(step) * dt``), so the recorded set matches the referee even
    when ``record_start`` lands within rounding of a sample time.
    """
    ks = np.arange(record_every, n_steps + 1, record_every, dtype=np.int64)
    t_ks = ks.astype(float) * dt
    keep = t_ks >= record_start
    return ks[keep], t_ks[keep]


def run_prepared(nonlinearity, prep, engine: str, span=None):
    """Integrate a prepared transient on the fast path.

    ``prep`` is the :class:`repro.odesim.oscillator._PreparedTransient`
    built by :func:`simulate_oscillator`; the result is bit-compatible in
    *shape and time axis* with the reference loop and agrees with it in
    values to floating-point round-off.
    """
    from repro.odesim.oscillator import SimulationResult

    stepper = kernels.build_stepper(
        nonlinearity,
        v_i2=prep.v_i2,
        phase=prep.phase,
        pulses=prep.pulses,
        inv_c=prep.inv_c,
        inv_l=prep.inv_l,
        inv_rc=prep.inv_rc,
        h=prep.dt,
        backend=_kernel_backend(engine),
    )

    batch = prep.batch
    n_steps = prep.n_steps
    dt = prep.dt
    ks, t_ks = _recorded_steps(
        n_steps, prep.record_every, prep.record_start, dt
    )
    include0 = 0.0 >= prep.record_start
    n_rec = int(ks.size) + (1 if include0 else 0)

    v = np.empty(batch)
    i_l = np.empty(batch)
    v[:] = prep.v0
    i_l[:] = prep.i_l0
    w = np.ascontiguousarray(prep.w_inj, dtype=float)

    t_out = np.empty(max(n_rec, 1))
    v_out = np.empty((max(n_rec, 1), batch))
    il_out = np.empty((max(n_rec, 1), batch))
    off = 0
    if include0:
        t_out[0] = 0.0
        v_out[0] = v
        il_out[0] = i_l
        off = 1
    if ks.size:
        t_out[off:] = t_ks

    chunk = max(DEFAULT_CHUNK_STEPS, 1)
    buf_v = np.empty((chunk, batch))
    buf_il = np.empty((chunk, batch))
    s0 = 0
    ri = 0  # cursor into ks
    while s0 < n_steps:
        k = min(chunk, n_steps - s0)
        hi = int(np.searchsorted(ks, s0 + k, side="right"))
        if hi > ri:
            ov = buf_v[:k]
            oi = buf_il[:k]
            stepper.step(v, i_l, w, s0, k, ov, oi)
            local = ks[ri:hi] - s0 - 1
            v_out[off + ri : off + hi] = ov[local]
            il_out[off + ri : off + hi] = oi[local]
            ri = hi
        else:
            # Settle phase: advance state without per-step writes.
            stepper.step(v, i_l, w, s0, k, None, None)
        s0 += k

    if n_rec == 0:
        # Referee fallback: an empty recording yields the final state.
        t_out[0] = float(n_steps) * dt
        v_out[0] = v
        il_out[0] = i_l
        n_rec = 1

    if span is not None and span.recording:
        span.set(backend=stepper.backend, n_rec=n_rec)

    return SimulationResult(
        t=t_out[:n_rec].copy() if n_rec < t_out.size else t_out,
        v=v_out[:n_rec],
        i_l=il_out[:n_rec],
        w_injection=prep.w_inj if prep.has_injection else np.zeros(batch),
        dt=dt,
        meta={**prep.meta, "engine": engine, "backend": stepper.backend},
    )


@dataclass
class StreamingResult:
    """Outcome of a monitored streaming run.

    Attributes
    ----------
    t_obs:
        Shared observation-window time axis (``record_start`` onward,
        every step), identical to the referee's recorded axis.
    v_obs:
        Observation samples, shape ``(t_obs.size, batch)``.  Only columns
        with ``observed[j] = True`` (members never retired by the monitor)
        contain a complete record; retired members' columns stop where
        they were retired.
    observed:
        Per-member flag: the full observation window was recorded.
    steps_done, steps_full:
        Member-steps actually integrated vs the no-early-exit total; their
        ratio is the early-exit saving.
    n_early:
        Members retired before the end of the run.
    backend:
        Kernel backend that executed the run.
    """

    t_obs: np.ndarray
    v_obs: np.ndarray
    observed: np.ndarray
    steps_done: int
    steps_full: int
    n_early: int
    backend: str
    meta: dict = field(default_factory=dict)


def run_streaming(
    nonlinearity,
    tank,
    *,
    w: np.ndarray,
    v_i: float,
    phase: float = 0.0,
    v0: float,
    i_l0: float,
    steps_per_cycle: int,
    t_total: float,
    observe_start: float,
    monitor,
    check_interval: float,
    engine: str | None = None,
) -> StreamingResult:
    """Integrate a batch with early-exit monitoring and compaction.

    The time grid matches :func:`simulate_oscillator` exactly (``dt`` from
    the fastest tone, ``n_steps = ceil(t_total / dt)``); the observation
    window (every step with ``t >= observe_start``) is recorded for
    members the monitor never retires, so callers can re-judge them with
    the exact referee pipeline.

    ``monitor`` must expose ``update(t_chunk, v_chunk, active) ->
    bool-mask`` marking members (local indices into ``active``) whose
    verdict is now final; retired members stop being integrated.
    """
    engine = resolve_engine(engine)
    if engine == "reference":
        raise ValueError(
            "run_streaming is a fast-path driver; the reference engine "
            "classifies through full simulate_oscillator records"
        )
    w = np.ascontiguousarray(np.atleast_1d(w), dtype=float)
    batch = w.size
    w_c = tank.center_frequency
    w_fast = max(float(np.max(w)), w_c)
    dt = (2.0 * np.pi / w_fast) / steps_per_cycle
    n_steps = int(np.ceil(t_total / dt))

    r, l, c = tank.r, tank.l, tank.c
    stepper = kernels.build_stepper(
        nonlinearity,
        v_i2=2.0 * v_i,
        phase=phase,
        pulses=(),
        inv_c=1.0 / c,
        inv_l=1.0 / l,
        inv_rc=1.0 / (r * c),
        h=dt,
        backend=_kernel_backend(engine),
    )

    ks, t_ks = _recorded_steps(n_steps, 1, observe_start, dt)
    n_obs = int(ks.size)
    first_rec = int(ks[0]) if n_obs else n_steps + 1

    v = np.full(batch, float(v0))
    i_l = np.full(batch, float(i_l0))
    active = np.arange(batch)
    w_act = w.copy()

    t_obs = t_ks
    v_obs = np.empty((n_obs, batch))

    chunk = max(1, int(round(check_interval / dt)))
    # Kernel chunk buffers must be C-contiguous (k, n_active); reallocated
    # on compaction (rare), reused between.
    buf_v = np.empty((chunk, batch))
    buf_il = np.empty((chunk, batch))
    steps_done = 0
    s0 = 0
    with trace("odesim.transient") as span:
        while s0 < n_steps and active.size:
            if buf_v.shape[1] != active.size:
                buf_v = np.empty((chunk, active.size))
                buf_il = np.empty((chunk, active.size))
            k = min(chunk, n_steps - s0)
            ov = buf_v[:k]
            oi = buf_il[:k]
            stepper.step(v, i_l, w_act, s0, k, ov, oi)
            steps_done += k * active.size
            t_chunk = np.arange(s0 + 1, s0 + k + 1, dtype=float) * dt

            # Scatter the recorded part of this chunk into the window.
            lo = max(first_rec, s0 + 1)
            hi = s0 + k
            if lo <= hi and n_obs:
                rows = slice(lo - first_rec, hi - first_rec + 1)
                v_obs[rows, active] = ov[lo - s0 - 1 : hi - s0, :]

            decided = np.asarray(
                monitor.update(t_chunk, ov, active), dtype=bool
            )
            if decided.any():
                keep = ~decided
                v = np.ascontiguousarray(v[keep])
                i_l = np.ascontiguousarray(i_l[keep])
                w_act = np.ascontiguousarray(w_act[keep])
                active = active[keep]
            s0 += k

        observed = np.zeros(batch, dtype=bool)
        observed[active] = s0 >= n_steps
        steps_full = n_steps * batch
        n_early = batch - int(active.size)
        metrics.inc("odesim.steps", steps_done)
        metrics.inc("odesim.early_exits", n_early)
        if span.recording:
            span.set(
                engine=engine,
                backend=stepper.backend,
                batch=batch,
                n_steps=n_steps,
                steps_done=steps_done,
                steps_full=steps_full,
                early_exits=n_early,
                early_exit_saving=1.0 - steps_done / steps_full,
            )

    return StreamingResult(
        t_obs=t_obs,
        v_obs=v_obs,
        observed=observed,
        steps_done=steps_done,
        steps_full=steps_full,
        n_early=n_early,
        backend=stepper.backend,
    )
