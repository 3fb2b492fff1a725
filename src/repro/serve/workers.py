"""Crash-isolated worker pool: solve jobs run in subprocesses.

A solve that segfaults, gets OOM-killed, or is deliberately murdered by
the chaos harness must never take the service down — so every job runs in
a forked worker subprocess talking to the service over a pipe.  The pool
gives the service three guarantees:

* **isolation** — a dying worker surfaces as :class:`WorkerCrashError`
  (fault kind ``worker-crash``), the pool replaces the corpse, and the
  service retries or degrades; the event loop never sees the crash;
* **deadlines** — the parent enforces the job's wall-clock budget from
  the outside (``conn.poll`` slices on an executor thread); an overrun
  kills the worker and surfaces :class:`WorkerStallError`
  (``worker-stall``) — a wedged native routine cannot be cancelled any
  other way;
* **health** — a periodic ping sweep over idle workers replaces any that
  died quietly, so capacity self-heals between jobs too.

The job payload protocol is plain dicts (fork start method, nothing
exotic to pickle); :func:`execute_job` is the single entry point the
worker runs, importable so tests can exercise it in-process.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time

from repro.obs import metrics

__all__ = [
    "WorkerCrashError",
    "WorkerStallError",
    "WorkerPool",
    "execute_job",
]


class WorkerCrashError(RuntimeError):
    """A worker subprocess died mid-job (fault kind ``worker-crash``)."""


class WorkerStallError(RuntimeError):
    """A worker overran the job's budget and was killed (``worker-stall``)."""


# -- the code that runs inside a worker --------------------------------------


def lockrange_to_dict(lock) -> dict:
    """JSON form of a :class:`~repro.core.lockrange.LockRange`."""
    return {
        "outcome": "locked",
        "n": int(lock.n),
        "v_i": float(lock.v_i),
        "injection_lower_hz": float(lock.injection_lower_hz),
        "injection_upper_hz": float(lock.injection_upper_hz),
        "width_hz": float(lock.width_hz),
        "phi_d_at_lower": float(lock.phi_d_at_lower),
        "phi_d_at_upper": float(lock.phi_d_at_upper),
        "amplitude_at_lower": float(lock.amplitude_at_lower),
        "amplitude_at_upper": float(lock.amplitude_at_upper),
    }


def _apply_chaos(chaos: dict, attempt: int) -> None:
    """Honour a job's chaos block (only present when the service allows it).

    ``die_attempts`` hard-kills the worker on the named attempts — the
    crash-isolation drill; ``stall_s`` sleeps past the deadline — the
    stall-detection drill.  ``os._exit`` is deliberate: a real crash does
    not unwind ``finally`` blocks either.
    """
    die_attempts = chaos.get("die_attempts") or []
    if attempt in die_attempts:
        os._exit(17)
    stall_s = chaos.get("stall_s")
    if stall_s:
        time.sleep(float(stall_s))


def execute_job(payload: dict, progress=None) -> dict:
    """Run one job payload to a reply dict (runs inside the worker).

    Replies are always one of:

    * ``{"ok": True, "result": {...}, "fault_kinds": [...],
      "recovered_via": ...}`` — including the *typed* negative answers
      (``no-lock`` / ``no-oscillation`` outcomes): the solver proving no
      lock exists is a completed answer, not a failure;
    * ``{"ok": False, "fault_kind": ..., "message": ..., "fault_kinds":
      [...]}`` — a typed fault the service maps onto its retry /
      degradation machinery.

    ``progress``, when given, receives one dict per progress event —
    ladder rung transitions (``{"event": "rung-start"/"rung-done", ...}``)
    and sweep point ticks (``{"event": "point", "done": d, "total": t}``)
    — which the worker loop relays over the pipe as interim messages.
    """
    from repro.core.lockrange import NoLockError
    from repro.core.natural import NoOscillationError
    from repro.robust import NumericalFaultError
    from repro.robust.ladder import (
        ladder_progress,
        robust_natural,
        robust_predict_lock_range,
    )
    from repro.verify.scenarios import build_oscillator

    chaos = payload.get("chaos") or {}
    if chaos:
        _apply_chaos(chaos, int(payload.get("attempt", 1)))

    kind = payload["kind"]
    family = payload["family"]
    budget_s = payload.get("budget_s")
    deadline = time.monotonic() + float(budget_s) if budget_s else None
    nonlinearity, tank = build_oscillator(family, float(payload.get("q_scale", 1.0)))
    with ladder_progress(progress):
        try:
            if kind == "lockrange":
                robust = robust_predict_lock_range(
                    nonlinearity,
                    tank,
                    v_i=float(payload["v_i"]),
                    n=int(payload["n"]),
                    n_a=int(payload["n_a"]),
                    n_phi=int(payload["n_phi"]),
                    n_samples=int(payload["n_samples"]),
                    method=payload.get("method", "fft"),
                    deadline=deadline,
                )
                result = lockrange_to_dict(robust.value)
                diagnostics = robust.diagnostics
            elif kind == "natural":
                robust = robust_natural(
                    nonlinearity,
                    tank,
                    n_samples=int(payload["n_samples"]),
                    deadline=deadline,
                )
                natural = robust.value
                result = {
                    "outcome": "oscillates",
                    "amplitude": float(natural.amplitude),
                    "frequency_hz": float(natural.frequency_hz),
                }
                diagnostics = robust.diagnostics
            elif kind == "tongue":
                result = _run_tongue(payload, progress)
                diagnostics = None
            else:  # pragma: no cover - parse_job rejects unknown kinds
                raise ValueError(f"unknown job kind {kind!r}")
        except NoLockError as exc:
            return {
                "ok": True,
                "result": {"outcome": "no-lock", "message": str(exc)},
                "fault_kinds": _exc_fault_kinds(exc, "no-lock"),
                "recovered_via": None,
            }
        except NoOscillationError as exc:
            return {
                "ok": True,
                "result": {"outcome": "no-oscillation", "message": str(exc)},
                "fault_kinds": _exc_fault_kinds(exc, "no-oscillation"),
                "recovered_via": None,
            }
        except NumericalFaultError as exc:
            return {
                "ok": False,
                "fault_kind": exc.fault.kind,
                "message": str(exc),
                "fault_kinds": _exc_fault_kinds(exc, exc.fault.kind),
            }
    return {
        "ok": True,
        "result": result,
        "fault_kinds": (
            [f.kind for f in diagnostics.faults] if diagnostics else []
        ),
        "recovered_via": diagnostics.recovered_via if diagnostics else None,
    }


def _exc_fault_kinds(exc: BaseException, primary: str) -> list[str]:
    diagnostics = getattr(exc, "diagnostics", None)
    kinds = [f.kind for f in diagnostics.faults] if diagnostics else []
    if primary not in kinds:
        kinds.append(primary)
    return kinds


def _run_tongue(payload: dict, progress=None) -> dict:
    """A bounded tongue-map sweep through the batched engine + shard cache."""
    import numpy as np

    from repro.sweep import SweepSpec, run_sweep

    vi_count = int(payload["vi_count"])
    v_i_max = float(payload["v_i"])
    v_is = np.linspace(v_i_max / vi_count, v_i_max, vi_count)
    spec = SweepSpec.tongue(
        payload["family"],
        int(payload["n"]),
        v_is,
        freq_rel_span=float(payload["freq_rel_span"]),
        freq_count=int(payload["freq_count"]),
        q_scale=float(payload.get("q_scale", 1.0)),
        method=payload.get("method", "fft"),
        n_a=int(payload["n_a"]),
        n_phi=int(payload["n_phi"]),
        n_samples=int(payload["n_samples"]),
    )
    on_point = None
    if progress is not None:
        on_point = lambda done, total: progress(  # noqa: E731
            {"event": "point", "done": int(done), "total": int(total)}
        )
    result = run_sweep(spec, progress=on_point)
    return {
        "outcome": "tongue",
        "spec": spec.name,
        "points": result.n_points,
        "counts": result.counts(),
        "locked_points": sum(1 for o in result.outcomes if o.locked),
        "surface_builds": result.surface_builds,
        "wall_s": result.wall_s,
    }


def _run_one_job(conn, payload: dict) -> dict:
    """Execute one job with full telemetry capture (inside the worker).

    Each job starts from a clean registry, so the post-job snapshot *is*
    the exact per-job metrics delta the parent merges into its own
    registry.  When the payload carries a ``trace`` envelope the worker's
    tracer records a span tree rooted at the inherited
    ``(trace_id, span_id)`` context, shipped back in the reply under
    ``telemetry`` together with the worker's unix epoch so the parent can
    stitch it onto its own timeline.  Progress events stream out as
    interim ``{"progress": ...}`` pipe messages while the job runs.
    """
    from repro.obs import metrics as worker_metrics
    from repro.obs import tracer

    def relay(event: dict) -> None:
        try:
            conn.send({"progress": event})
        except (BrokenPipeError, OSError):
            pass

    context = payload.get("trace") or None
    worker_metrics.reset()
    if context:
        tracer.enable()
    try:
        try:
            if context:
                with tracer.ambient(
                    context["trace_id"], context.get("span_id")
                ):
                    reply = execute_job(payload, progress=relay)
            else:
                reply = execute_job(payload, progress=relay)
        except BaseException as exc:  # noqa: BLE001 - the loop must survive
            reply = {
                "ok": False,
                "fault_kind": "unexpected-error",
                "message": f"{type(exc).__name__}: {exc}",
                "fault_kinds": ["unexpected-error"],
            }
        telemetry: dict = {"metrics": worker_metrics.snapshot()}
        if context:
            tracer.disable()
            telemetry["spans"] = tracer.records()
            telemetry["epoch_unix_s"] = tracer.epoch_unix
        reply["telemetry"] = telemetry
        return reply
    finally:
        tracer.clear()
        worker_metrics.reset()


def _worker_main(conn) -> None:
    """The worker loop: recv an op, do it, send the reply, repeat."""
    # The fork inherits the parent's tracer and metrics mid-flight: drop
    # both and re-badge the process, so worker telemetry is collected per
    # job and shipped back explicitly instead of interleaving into the
    # service's own buffers.
    try:
        from repro.obs import metrics as worker_metrics
        from repro.obs import tracer

        tracer.clear()
        tracer.reset_context()
        tracer.set_process("worker")
        worker_metrics.reset()
    except Exception:
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        op = message.get("op")
        if op == "exit":
            break
        if op == "ping":
            conn.send({"ok": True, "pong": True})
            continue
        if op == "job":
            reply = _run_one_job(conn, message.get("payload") or {})
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break


# -- the parent-side pool -----------------------------------------------------


class _Worker:
    __slots__ = ("process", "conn", "worker_id")

    def __init__(self, process, conn, worker_id: int):
        self.process = process
        self.conn = conn
        self.worker_id = worker_id


class WorkerPool:
    """Fixed-size pool of forked solve workers with automatic replacement."""

    def __init__(self, size: int, *, poll_slice_s: float = 0.05):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = int(size)
        self.poll_slice_s = float(poll_slice_s)
        self.restarts = 0
        self._ctx = multiprocessing.get_context("fork")
        self._idle: asyncio.Queue[_Worker] = asyncio.Queue()
        self._workers: list[_Worker] = []
        self._graveyard: list[_Worker] = []
        self._next_id = 0
        self._closed = False

    def start(self) -> None:
        for _ in range(self.size):
            worker = self._spawn()
            self._workers.append(worker)
            self._idle.put_nowait(worker)

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        self._next_id += 1
        return _Worker(process, parent_conn, self._next_id)

    def _replace(self, worker: _Worker, reason: str) -> _Worker:
        """Kill/retire a worker and bring up its replacement.

        The old connection is *not* closed here: a leftover executor
        thread may still be inside ``conn.poll`` on it, and closing the fd
        under that thread races.  The corpse goes to the graveyard and is
        reaped (joined, conn closed) by the next health sweep.
        """
        if worker.process.is_alive():
            worker.process.kill()
        self._graveyard.append(worker)
        try:
            self._workers.remove(worker)
        except ValueError:  # pragma: no cover - defensive
            pass
        self.restarts += 1
        metrics.inc("serve.worker_restarts", reason=reason)
        replacement = self._spawn()
        self._workers.append(replacement)
        return replacement

    @property
    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.process.is_alive())

    async def run_job(self, payload: dict, timeout_s: float, progress=None) -> dict:
        """Dispatch one job to an idle worker, enforcing ``timeout_s``.

        Raises :class:`WorkerCrashError` when the worker dies mid-job and
        :class:`WorkerStallError` when the budget runs out (the worker is
        killed and replaced in both cases).  Cancellation also kills the
        worker — there is no way to abort a solve in flight short of that
        — and re-raises.

        ``progress`` receives each interim ``{"progress": ...}`` event the
        worker streams over the pipe before its final reply; callback
        exceptions are swallowed (progress is best-effort).  Interim
        messages do not extend the deadline — only the final reply stops
        the clock.
        """
        worker = await self._idle.get()
        loop = asyncio.get_running_loop()
        try:
            if not worker.process.is_alive():
                worker = self._replace(worker, "found-dead")
            try:
                worker.conn.send({"op": "job", "payload": payload})
            except (BrokenPipeError, OSError) as exc:
                worker = self._replace(worker, "crash")
                raise WorkerCrashError(
                    f"worker pipe broke on dispatch: {exc}"
                ) from exc
            deadline = time.monotonic() + max(float(timeout_s), 0.01)
            try:
                while True:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        worker = self._replace(worker, "stall")
                        raise WorkerStallError(
                            f"worker overran its {timeout_s:.3g} s budget "
                            "and was killed"
                        )
                    ready = await loop.run_in_executor(
                        None, worker.conn.poll, min(self.poll_slice_s, remaining)
                    )
                    if ready:
                        try:
                            message = worker.conn.recv()
                        except (EOFError, OSError) as exc:
                            code = worker.process.exitcode
                            worker = self._replace(worker, "crash")
                            raise WorkerCrashError(
                                f"worker died mid-job (exit code {code})"
                            ) from exc
                        if isinstance(message, dict) and "ok" not in message:
                            # Interim progress event, not the final reply.
                            if progress is not None and "progress" in message:
                                try:
                                    progress(message["progress"])
                                except Exception:
                                    pass
                            continue
                        return message
                    if not worker.process.is_alive():
                        code = worker.process.exitcode
                        worker = self._replace(worker, "crash")
                        raise WorkerCrashError(
                            f"worker died mid-job (exit code {code})"
                        )
            except asyncio.CancelledError:
                worker = self._replace(worker, "cancelled")
                raise
        finally:
            if not self._closed:
                self._idle.put_nowait(worker)

    async def _ping(self, worker: _Worker, timeout_s: float = 2.0) -> bool:
        if not worker.process.is_alive():
            return False
        loop = asyncio.get_running_loop()
        try:
            worker.conn.send({"op": "ping"})
            deadline = time.monotonic() + timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                ready = await loop.run_in_executor(
                    None, worker.conn.poll, min(self.poll_slice_s, remaining)
                )
                if ready:
                    reply = worker.conn.recv()
                    return bool(reply.get("pong"))
        except (BrokenPipeError, EOFError, OSError):
            return False

    async def health_check(self) -> int:
        """One health sweep: reap the graveyard, ping + replace idle corpses.

        Returns the number of workers replaced.  Busy workers are left
        alone — :meth:`run_job` already detects their death inline.
        """
        for corpse in list(self._graveyard):
            corpse.process.join(timeout=0)
            if corpse.process.exitcode is not None:
                self._graveyard.remove(corpse)
                try:
                    corpse.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        replaced = 0
        for _ in range(self._idle.qsize()):
            try:
                worker = self._idle.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - sized loop
                break
            if not await self._ping(worker):
                worker = self._replace(worker, "health-check")
                replaced += 1
            self._idle.put_nowait(worker)
        metrics.gauge("serve.workers_alive", self.alive_count)
        return replaced

    def shutdown(self) -> None:
        """Stop every worker (graceful exit op, then the hammer)."""
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send({"op": "exit"})
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers + self._graveyard:
            worker.process.join(timeout=max(deadline - time.monotonic(), 0.05))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers.clear()
        self._graveyard.clear()
