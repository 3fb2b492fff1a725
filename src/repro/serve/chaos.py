"""Service-layer chaos suite: kill, stall, flood, corrupt, garble.

Each scenario boots a **real** service (worker subprocesses, HTTP front,
the lot) inside an isolated temporary cache directory, injects one
production failure, and grades the declared contract:

* ``serve-worker-kill`` — the worker is murdered mid-solve
  (``os._exit``); the service must retry on a fresh worker and complete;
* ``serve-slow-solve-stall`` — the solve sleeps past the job deadline;
  the stalled worker must be killed and the job answered *degraded*
  (coarse generalised-Adler estimate), never hung;
* ``serve-queue-flood`` — a burst overfills the bounded queue and a
  throttled tenant overruns its bucket; every rejection must be a typed
  429/503 with ``Retry-After``, and every *admitted* job must still
  terminate;
* ``serve-corrupt-cache-shard`` — a warm surface-store record is truncated
  on disk; the resubmitted job must quarantine and recompute, not fail;
* ``serve-malformed-spec`` — garbage JSON, unknown kinds/fields, and an
  oversized body must all bounce as typed 400/413, never a traceback.

Every scenario additionally asserts the recovery invariants: ``/readyz``
returns 200 afterwards and ``service.unhandled_errors`` is empty — chaos
may cost latency and answers, never the service.  Outcomes reuse the
PR 3 :class:`~repro.robust.injection.FaultOutcome` record with
``layer="service"`` and land in the same (v2) FAULTS_REPORT.json.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

from repro.perf import cache_sandbox, default_store
from repro.robust.injection import FaultOutcome, FaultReport
from repro.serve.admission import TenantPolicy
from repro.serve.client import ServeClient, ServeUnavailableError
from repro.serve.service import ServeConfig, ServiceThread

__all__ = ["ServeScenario", "serve_scenarios", "run_serve_fault_matrix"]

#: A small, fast lock-range job every scenario can afford.
_QUICK_JOB = {
    "kind": "lockrange",
    "family": "tanh",
    "n": 3,
    "v_i": 0.03,
    "n_a": 61,
    "n_phi": 121,
    "n_samples": 256,
    "deadline_s": 60.0,
}

_GENEROUS = TenantPolicy(rate_per_s=500.0, burst=200, max_in_flight=64)


@dataclass(frozen=True)
class ServeScenario:
    """One injected service-layer failure plus its declared contract."""

    scenario_id: str
    description: str
    expectation: str  # "recover" | "degrade" | "typed-rejection"
    expected_fault: str
    run: Callable[["ServeScenario"], FaultOutcome]


@contextlib.contextmanager
def _isolated_host(config: ServeConfig):
    """A live service thread inside its own REPRO_CACHE_DIR sandbox."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") as tmp:
        with cache_sandbox(tmp), ServiceThread(config) as host:
            client = ServeClient(port=host.port, tenant="chaos")
            yield host, client, pathlib.Path(tmp)


def _recovery_problems(host, client) -> list[str]:
    """The invariants every scenario must leave behind."""
    problems = []
    status, verdict = client.ready()
    if status != 200 or not verdict.get("ready"):
        problems.append(f"/readyz not clean after chaos: {status} {verdict}")
    if host.service.unhandled_errors:
        problems.append(
            f"unhandled exceptions escaped: {host.service.unhandled_errors}"
        )
    try:
        fleet = client.parsed_metrics()
    except (ValueError, ServeUnavailableError) as exc:
        problems.append(f"/metricz prometheus scrape broken after chaos: {exc}")
    else:
        if not any(key.startswith("repro_serve_") for key in fleet):
            problems.append("prometheus exposition lost its serve.* samples")
    return problems


def _outcome(
    scenario: ServeScenario,
    ok: bool,
    detail: str,
    *,
    fault_kinds: list[str] | None = None,
    recovered_via: str | None = None,
) -> FaultOutcome:
    return FaultOutcome(
        scenario=scenario.scenario_id,
        expectation=scenario.expectation,
        expected_fault=scenario.expected_fault,
        ok=ok,
        detail=detail,
        fault_kinds=fault_kinds or [],
        recovered_via=recovered_via,
        layer="service",
    )


# -- scenarios ----------------------------------------------------------------


def _run_worker_kill(scenario: ServeScenario) -> FaultOutcome:
    """Worker dies on attempt 1 -> retry with backoff on a fresh worker."""
    config = ServeConfig(
        workers=1, queue_limit=4, allow_chaos=True, tenants={"default": _GENEROUS}
    )
    with _isolated_host(config) as (host, client, _tmp):
        job = dict(_QUICK_JOB, chaos={"die_attempts": [1]})
        status, record = client.submit(job, wait=True)
        problems = _recovery_problems(host, client)
        # The restart must also be visible on the wire, not just white-box:
        # the Prometheus scrape carries the restart counter and the merged
        # worker-side solver metrics from the completing attempt.
        try:
            fleet = client.parsed_metrics()
        except (ValueError, ServeUnavailableError):
            fleet = {}
        restarts_scraped = sum(
            value
            for key, value in fleet.items()
            if key.startswith("repro_serve_worker_restarts_total")
        )
        if restarts_scraped < 1:
            problems.append("worker restart not visible in /metricz scrape")
        if not any(key.startswith("repro_df_evaluations_") for key in fleet):
            problems.append("worker-side solver metrics missing from scrape")
        ok = (
            status == 200
            and record.get("status") == "completed"
            and record.get("attempts") == 2
            and "worker-crash" in record.get("fault_kinds", [])
            and host.service.pool.restarts >= 1
            and not problems
        )
        return _outcome(
            scenario,
            ok,
            f"attempt 1 killed (exit 17), attempt {record.get('attempts')} "
            f"completed after {host.service.pool.restarts} worker restart(s)"
            + ("; " + "; ".join(problems) if problems else ""),
            fault_kinds=record.get("fault_kinds", []),
            recovered_via="retry",
        )


def _run_slow_solve_stall(scenario: ServeScenario) -> FaultOutcome:
    """Solve sleeps 30 s against a 0.7 s deadline -> killed + degraded."""
    config = ServeConfig(
        workers=1, queue_limit=4, allow_chaos=True, tenants={"default": _GENEROUS}
    )
    with _isolated_host(config) as (host, client, _tmp):
        job = dict(_QUICK_JOB, deadline_s=0.7, chaos={"stall_s": 30})
        started = time.monotonic()
        status, record = client.submit(job, wait=True)
        wall = time.monotonic() - started
        problems = _recovery_problems(host, client)
        result = record.get("result") or {}
        ok = (
            status == 200
            and record.get("status") == "degraded"
            and record.get("degraded") is True
            and record.get("degraded_mode") == "coarse-estimate"
            and "worker-stall" in record.get("fault_kinds", [])
            and result.get("estimator") == "adler-shil"
            and wall < 10.0  # the 30 s stall must NOT be waited out
            and not problems
        )
        return _outcome(
            scenario,
            ok,
            f"stalled worker killed after the 0.7 s budget, degraded to the "
            f"{record.get('degraded_mode')} answer in {wall:.2f} s"
            + ("; " + "; ".join(problems) if problems else ""),
            fault_kinds=record.get("fault_kinds", []),
            recovered_via=record.get("degraded_mode"),
        )


def _run_queue_flood(scenario: ServeScenario) -> FaultOutcome:
    """Burst past the queue bound and a tenant bucket -> typed 429/503."""
    config = ServeConfig(
        workers=1,
        queue_limit=2,
        allow_chaos=True,
        tenants={
            "default": _GENEROUS,
            "throttled": TenantPolicy(rate_per_s=0.2, burst=1, max_in_flight=4),
        },
    )
    with _isolated_host(config) as (host, client, _tmp):
        # Pin the only worker down so the queue actually fills.
        status, first = client.submit(
            dict(_QUICK_JOB, deadline_s=8.0, chaos={"stall_s": 2.5})
        )
        admitted = [first["job_id"]]
        time.sleep(0.1)
        saturated = []
        for index in range(8):
            status, body = client.submit(
                dict(_QUICK_JOB, v_i=0.01 + 0.002 * index, deadline_s=8.0)
            )
            if status == 503:
                saturated.append(body)
            elif status == 202:
                admitted.append(body["job_id"])
        throttled_client = ServeClient(port=host.port, tenant="throttled")
        status_a, body_a = throttled_client.submit(dict(_QUICK_JOB, v_i=0.021))
        status_b, rate_limited = throttled_client.submit(dict(_QUICK_JOB, v_i=0.022))
        if status_a == 202:
            admitted.append(body_a["job_id"])

        deadline = time.monotonic() + 60.0
        states: list[str] = []
        while time.monotonic() < deadline:
            states = [client.status(j)[1].get("status") for j in admitted]
            if all(s in ("completed", "degraded", "dead-lettered") for s in states):
                break
            time.sleep(0.25)
        problems = _recovery_problems(host, client)
        rejections_typed = saturated and all(
            b.get("error") == "queue-full"
            and b.get("fault_kind") == "queue-saturated"
            and b.get("retry_after_s", 0) > 0
            for b in saturated
        )
        ok = (
            bool(rejections_typed)
            and status_b == 429
            and rate_limited.get("error") == "rate-limited"
            and rate_limited.get("retry_after_s", 0) > 0
            and all(s in ("completed", "degraded", "dead-lettered") for s in states)
            and not problems
        )
        return _outcome(
            scenario,
            ok,
            f"{len(saturated)} typed 503 queue-full rejection(s) with "
            f"Retry-After, 1 typed 429 rate-limit, {len(admitted)} admitted "
            f"job(s) all terminal ({','.join(sorted(set(states)))})"
            + ("; " + "; ".join(problems) if problems else ""),
            fault_kinds=["queue-saturated"],
        )


def _run_corrupt_cache_shard(scenario: ServeScenario) -> FaultOutcome:
    """Truncate a warm store record -> quarantine + recompute."""
    config = ServeConfig(
        workers=1, queue_limit=4, allow_chaos=True, tenants={"default": _GENEROUS}
    )
    tongue = {
        "kind": "tongue",
        "family": "tanh",
        "n": 3,
        "v_i": 0.03,
        "vi_count": 2,
        "freq_count": 3,
        "n_a": 41,
        "n_phi": 81,
        "n_samples": 256,
        "deadline_s": 120.0,
    }
    with _isolated_host(config) as (host, client, tmp):
        status, warm = client.submit(tongue, wait=True)
        if status != 200 or warm.get("status") != "completed":
            return _outcome(
                scenario, False, f"warm-up tongue job failed: {status} {warm}"
            )
        records = default_store().records()
        if not records:
            return _outcome(
                scenario, False, "warm-up left no shard record to corrupt"
            )
        target = records[0]
        payload = target.read_bytes()
        target.write_bytes(payload[: max(16, len(payload) // 3)])
        # A different deadline does not change the fingerprint, so resubmit
        # with a different grid point to defeat the stale-result cache.  The
        # worker that wrote the record still holds it in memory; killing the
        # first attempt puts the job on a replacement worker, which — like
        # any process meeting a corrupted record — reads it from disk.
        status, again = client.submit(
            dict(tongue, freq_count=4, chaos={"die_attempts": [1]}), wait=True
        )
        quarantined = list(target.parent.glob("*.npz.corrupt"))
        problems = _recovery_problems(host, client)
        ok = (
            status == 200
            and again.get("status") == "completed"
            and not again.get("degraded")
            and len(quarantined) == 1
            and not problems
        )
        return _outcome(
            scenario,
            ok,
            f"truncated {target.name}: resubmitted job "
            f"{again.get('status')} on a replacement worker, "
            f"quarantined={len(quarantined)}"
            + ("; " + "; ".join(problems) if problems else ""),
            fault_kinds=["cache-corruption"] if ok else [],
            recovered_via="recompute",
        )


def _run_malformed_spec(scenario: ServeScenario) -> FaultOutcome:
    """Garbage in -> typed 400/413 out, service untouched."""
    import http.client

    config = ServeConfig(workers=1, queue_limit=4, tenants={"default": _GENEROUS})
    with _isolated_host(config) as (host, client, _tmp):
        checks: list[tuple[str, bool]] = []

        status, body = client.request("POST", "/v1/jobs", None)
        checks.append(("empty body -> 400 malformed-spec",
                       status == 400 and body.get("fault_kind") == "malformed-spec"))

        connection = http.client.HTTPConnection("127.0.0.1", host.port, timeout=10)
        connection.request(
            "POST", "/v1/jobs", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        garbage = json.loads(response.read().decode())
        connection.close()
        checks.append(("non-JSON body -> 400 malformed-spec",
                       response.status == 400
                       and garbage.get("fault_kind") == "malformed-spec"))

        status, body = client.submit({"kind": "frobnicate", "family": "tanh"})
        checks.append(("unknown kind -> 400 naming the field",
                       status == 400 and body.get("field") == "kind"))

        status, body = client.submit(dict(_QUICK_JOB, bogus_knob=1))
        checks.append(("unknown field -> 400 naming the field",
                       status == 400 and body.get("field") == "bogus_knob"))

        status, body = client.submit(dict(_QUICK_JOB, chaos={"stall_s": 1}))
        checks.append(("chaos without --allow-chaos -> 400",
                       status == 400 and body.get("field") == "chaos"))

        status, body = client.submit(dict(_QUICK_JOB, padding="x" * 100_000))
        checks.append(("oversized body -> 413",
                       status == 413 and body.get("error") == "body-too-large"))

        # The service still does real work afterwards.
        status, record = client.submit(_QUICK_JOB, wait=True)
        checks.append(("real job still completes",
                       status == 200 and record.get("status") == "completed"))

        problems = _recovery_problems(host, client)
        failed = [name for name, passed in checks if not passed]
        ok = not failed and not problems
        return _outcome(
            scenario,
            ok,
            f"{sum(p for _, p in checks)}/{len(checks)} malformed-input "
            "probes answered with typed rejections"
            + (f"; failed: {failed}" if failed else "")
            + ("; " + "; ".join(problems) if problems else ""),
            fault_kinds=["malformed-spec"],
        )


def serve_scenarios() -> list[ServeScenario]:
    """The service-layer scenario matrix."""
    return [
        ServeScenario(
            "serve-worker-kill",
            "worker subprocess hard-killed mid-solve (os._exit)",
            "recover",
            "worker-crash",
            _run_worker_kill,
        ),
        ServeScenario(
            "serve-slow-solve-stall",
            "solve sleeps 30 s against a 0.7 s deadline",
            "degrade",
            "worker-stall",
            _run_slow_solve_stall,
        ),
        ServeScenario(
            "serve-queue-flood",
            "submission burst past the queue bound and a tenant bucket",
            "typed-rejection",
            "queue-saturated",
            _run_queue_flood,
        ),
        ServeScenario(
            "serve-corrupt-cache-shard",
            "warm surface-store record truncated mid-file",
            "recover",
            "cache-corruption",
            _run_corrupt_cache_shard,
        ),
        ServeScenario(
            "serve-malformed-spec",
            "garbage/oversized/unknown job payloads",
            "typed-rejection",
            "malformed-spec",
            _run_malformed_spec,
        ),
    ]


def run_serve_fault_matrix(progress=None) -> FaultReport:
    """Run every service-layer scenario; outcomes land in a FaultReport.

    Each scenario owns a fresh service and cache sandbox, so verdicts are
    order-independent; a scenario that *raises* is itself a failure (the
    harness, like the service, must not die).
    """
    outcomes: list[FaultOutcome] = []
    for scenario in serve_scenarios():
        if progress is not None:
            progress(scenario.scenario_id)
        try:
            outcomes.append(scenario.run(scenario))
        except Exception as exc:  # noqa: BLE001 - graded, not fatal
            outcomes.append(
                _outcome(
                    scenario, False, f"unexpected {type(exc).__name__}: {exc}"
                )
            )
    return FaultReport(mode="serve", outcomes=outcomes)
