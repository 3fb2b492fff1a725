"""Minimal asyncio HTTP/1.1 front end of the job service (stdlib only).

One connection, one request, ``Connection: close`` — a deliberate
anti-feature: keep-alive parsing is where tiny HTTP servers grow bugs,
and the client helper amortises nothing worth having here.  Routes:

========  =====================  =======================================
method    path                   meaning
========  =====================  =======================================
POST      /v1/jobs[?wait=1]      submit a job (``X-Tenant`` header or
                                 ``tenant`` body field names the tenant);
                                 with ``wait=1`` the response blocks
                                 until the job is terminal, and a client
                                 disconnect while waiting *cancels* the
                                 job when no other waiter holds it
GET       /v1/jobs/<id>          job record (works after completion too)
POST      /v1/jobs/<id>/cancel   cancel a queued/running job
GET       /v1/jobs/<id>/events   live progress events: cursor long-poll
                                 (``since=<seq>&wait=1``) or a Server-Sent
                                 Events stream (``sse=1``)
GET       /healthz               liveness (always 200 while the loop runs)
GET       /readyz                readiness (503 with reasons when not)
GET       /metricz               the full fleet metrics snapshot (JSON, or
                                 Prometheus text with ``format=prometheus``)
GET       /v1/report             the live SERVE_REPORT document
========  =====================  =======================================

Every request is assigned a fresh ``trace_id`` at ingress and handled
under that ambient trace context, so spans on both sides of the worker
boundary — and the job record itself — correlate back to the request.

Status mapping: 202 admitted, 200 terminal record (``degraded: true``
marks a stale/coarse answer), 502 dead-lettered (typed body, never a
traceback), 400 malformed spec, 429/503 admission rejections with
``Retry-After``, 413 oversized body, 404/405 the obvious.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse

from repro.obs import metrics, new_trace_id, to_prometheus, trace, tracer
from repro.serve.service import JobService

__all__ = ["start_http_server", "MAX_BODY_BYTES"]

#: Request-body cap; a job spec is a few hundred bytes, so anything
#: bigger is hostile or broken and bounces with 413 before being parsed.
MAX_BODY_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


async def start_http_server(
    service: JobService, *, host: str = "127.0.0.1", port: int = 0
):
    """Bind the service's HTTP front; returns the ``asyncio.Server``."""

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)


def _response_bytes(status: int, body: dict, extra_headers: dict | None = None) -> bytes:
    payload = json.dumps(body).encode()
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + payload


async def _send(writer, status: int, body: dict, extra_headers=None) -> int:
    try:
        writer.write(_response_bytes(status, body, extra_headers))
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass  # the client left; nothing to tell them
    return status


async def _read_request(reader):
    """Parse one request: ``(method, path, query, headers, body)`` or None."""
    try:
        request_line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    except asyncio.TimeoutError:
        return None
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    parsed = urllib.parse.urlsplit(target)
    query = urllib.parse.parse_qs(parsed.query)
    length = int(headers.get("content-length", "0") or 0)
    if length > MAX_BODY_BYTES:
        return (method, parsed.path, query, headers, _TOO_LARGE)
    body = b""
    if length:
        body = await asyncio.wait_for(reader.readexactly(length), timeout=10.0)
    return (method, parsed.path, query, headers, body)


_TOO_LARGE = object()


async def _handle_connection(service: JobService, reader, writer) -> None:
    started = time.perf_counter()
    status = 500
    route = "?"
    try:
        request = await _read_request(reader)
        if request is None:
            return
        method, path, query, headers, body = request
        route = f"{method} {path}"
        trace_id = new_trace_id()
        with tracer.ambient(trace_id), trace(
            "serve.request", attrs={"method": method, "path": path}
        ) as span:
            if body is _TOO_LARGE:
                status = await _send(
                    writer,
                    413,
                    {
                        "error": "body-too-large",
                        "fault_kind": "malformed-spec",
                        "detail": f"request body exceeds {MAX_BODY_BYTES} bytes",
                    },
                )
            else:
                status = await _route(
                    service, reader, writer, method, path, query, headers, body
                )
            span.set(status=status)
    except asyncio.CancelledError:
        raise
    except (asyncio.IncompleteReadError, asyncio.TimeoutError):
        status = await _send(
            writer,
            408,
            {"error": "request-timeout", "detail": "incomplete request"},
        )
    except Exception as exc:  # noqa: BLE001 - a request must never kill the loop
        service._note_unhandled(exc)
        status = await _send(
            writer,
            500,
            {"error": "internal-error", "detail": f"{type(exc).__name__}: {exc}"},
        )
    finally:
        metrics.observe(
            "serve.request_s", time.perf_counter() - started, status=status
        )
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def _route(
    service, reader, writer, method, path, query, headers, body
) -> int:
    if path == "/healthz":
        if method != "GET":
            return await _send(writer, 405, {"error": "method-not-allowed"})
        return await _send(
            writer, 200, {"ok": True, "uptime_s": time.time() - service.started_unix_s}
        )
    if path == "/readyz":
        if method != "GET":
            return await _send(writer, 405, {"error": "method-not-allowed"})
        ready, verdict = service.readiness()
        return await _send(writer, 200 if ready else 503, verdict)
    if path == "/metricz":
        if method != "GET":
            return await _send(writer, 405, {"error": "method-not-allowed"})
        if query.get("format", ["json"])[0] == "prometheus":
            return await _send_text(
                writer,
                200,
                to_prometheus(_serve_metrics()),
                "text/plain; version=0.0.4",
            )
        return await _send(writer, 200, _serve_metrics())
    if path == "/v1/report":
        if method != "GET":
            return await _send(writer, 405, {"error": "method-not-allowed"})
        from repro.serve.report import build_serve_report

        return await _send(writer, 200, build_serve_report(service))
    if path == "/v1/jobs":
        if method != "POST":
            return await _send(writer, 405, {"error": "method-not-allowed"})
        return await _submit(service, reader, writer, query, headers, body)
    if path.startswith("/v1/jobs/"):
        tail = path[len("/v1/jobs/") :]
        if tail.endswith("/events"):
            if method != "GET":
                return await _send(writer, 405, {"error": "method-not-allowed"})
            record = service.store.get(tail[: -len("/events")])
            if record is None:
                return await _send(writer, 404, {"error": "unknown-job"})
            if query.get("sse", ["0"])[0] not in ("0", "", "false"):
                return await _job_events_sse(writer, record, query)
            return await _job_events(writer, record, query)
        if tail.endswith("/cancel"):
            if method != "POST":
                return await _send(writer, 405, {"error": "method-not-allowed"})
            job_id = tail[: -len("/cancel")]
            record = service.store.get(job_id)
            if record is None:
                return await _send(writer, 404, {"error": "unknown-job"})
            cancelled = service.cancel(job_id)
            return await _send(
                writer,
                200,
                {"job_id": job_id, "cancelled": cancelled, "status": record.status},
            )
        if method != "GET":
            return await _send(writer, 405, {"error": "method-not-allowed"})
        record = service.store.get(tail)
        if record is None:
            return await _send(writer, 404, {"error": "unknown-job"})
        return await _send(writer, _record_status(record), record.to_dict())
    return await _send(writer, 404, {"error": "unknown-route", "path": path})


def _record_status(record) -> int:
    if record.status == "dead-lettered":
        return 502
    return 200


async def _submit(service, reader, writer, query, headers, body) -> int:
    try:
        payload = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        metrics.inc("serve.rejected", reason="malformed-spec")
        return await _send(
            writer,
            400,
            {
                "error": "malformed-spec",
                "fault_kind": "malformed-spec",
                "detail": f"body is not valid JSON: {exc}",
            },
        )
    tenant = headers.get("x-tenant") or (
        payload.pop("tenant", None) if isinstance(payload, dict) else None
    )
    tenant = str(tenant or "anonymous")
    status, reply, record = service.submit(payload, tenant)
    if record is None:
        extra = None
        retry_after = reply.get("retry_after_s")
        if retry_after is not None:
            extra = {"Retry-After": f"{max(retry_after, 0.05):.3f}"}
        return await _send(writer, status, reply, extra)
    wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
    if not wait:
        return await _send(writer, status, reply)
    await _wait_for_terminal(service, reader, record)
    if not record.terminal:
        # Disconnected while waiting; nothing left to answer.
        return 499
    return await _send(writer, _record_status(record), record.to_dict())


async def _wait_for_terminal(service, reader, record) -> None:
    """Block until the record is terminal or the client disconnects.

    The disconnect probe is a read on the (already fully consumed)
    request stream: with ``Connection: close`` semantics the client sends
    nothing more, so EOF here means the socket died — the signal that
    nobody is listening.  When the last waiter disconnects, the job is
    cancelled (admitted work without an audience is load shed early).
    """
    record.waiters += 1
    done_task = asyncio.create_task(record.done.wait())
    eof_task = asyncio.create_task(reader.read(1))
    try:
        while True:
            waited, _pending = await asyncio.wait(
                {done_task, eof_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if done_task in waited:
                return
            data = eof_task.result() if not eof_task.cancelled() else b"x"
            if data == b"":
                if record.waiters == 1 and not record.terminal:
                    metrics.inc("serve.disconnect_cancels")
                    service.cancel(record.job_id, reason="client-disconnect")
                    await done_task  # settles as dead-lettered
                return
            # Stray bytes after the request: ignore and keep waiting.
            eof_task = asyncio.create_task(reader.read(1))
    finally:
        record.waiters -= 1
        for task in (done_task, eof_task):
            if not task.done():
                task.cancel()


async def _send_text(writer, status: int, text: str, content_type: str) -> int:
    payload = text.encode()
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    try:
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode() + payload)
        await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    return status


#: Long-poll hold cap: clients re-poll with their cursor; holding a socket
#: longer than this just ties up a connection for no fresher an answer.
_EVENTS_MAX_WAIT_S = 30.0


async def _job_events(writer, record, query) -> int:
    """Cursor long-poll over one job's event ring.

    ``since=<seq>`` resumes after the last seen event; with ``wait=1`` the
    request blocks (up to ``timeout_s``, capped) until something newer
    arrives or the job goes terminal.  The reply carries ``next_since``
    for the follow-up call and ``missed`` when the cursor fell off the
    bounded ring.
    """
    ring = record.events
    try:
        since = int(query.get("since", ["0"])[0] or 0)
    except ValueError:
        return await _send(writer, 400, {"error": "bad-cursor"})
    wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
    try:
        timeout_s = float(query.get("timeout_s", ["10"])[0] or 10.0)
    except ValueError:
        timeout_s = 10.0
    timeout_s = min(max(timeout_s, 0.0), _EVENTS_MAX_WAIT_S)
    events, next_since, missed = ([], since, 0) if ring is None else ring.since(since)
    if ring is not None and wait and not events and not record.terminal:
        await ring.wait(since, timeout_s)
        events, next_since, missed = ring.since(since)
    return await _send(
        writer,
        200,
        {
            "job_id": record.job_id,
            "status": record.status,
            "terminal": record.terminal,
            "progress": record.progress,
            "next_since": next_since,
            "missed": missed,
            "dropped": 0 if ring is None else ring.dropped,
            "events": events,
        },
    )


async def _job_events_sse(writer, record, query) -> int:
    """Server-Sent Events stream of one job's ring, closed at terminal.

    Each event goes out as ``event:``/``id:``/``data:`` frames, the ring
    seq as the SSE id; a client resumes by passing the last id it saw as
    ``since=`` (the ``Last-Event-ID`` header is not read).
    Idle gaps emit comment keep-alives so a dead client is detected.
    """
    ring = record.events
    try:
        since = int(query.get("since", ["0"])[0] or 0)
    except ValueError:
        return await _send(writer, 400, {"error": "bad-cursor"})
    headers = [
        "HTTP/1.1 200 OK",
        "Content-Type: text/event-stream",
        "Cache-Control: no-cache",
        "Connection: close",
    ]
    try:
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode())
        await writer.drain()
        while True:
            events, since, _missed = ([], since, 0) if ring is None else ring.since(since)
            for event in events:
                frame = (
                    f"event: {event['type']}\n"
                    f"id: {event['seq']}\n"
                    f"data: {json.dumps(event, sort_keys=True)}\n\n"
                )
                writer.write(frame.encode())
            if events:
                await writer.drain()
            if record.terminal:
                if ring is None or not ring.since(since)[0]:
                    break
                continue
            if ring is None:
                break
            if not await ring.wait(since, 10.0):
                writer.write(b": keepalive\n\n")
                await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass  # the client left mid-stream
    return 200


def _serve_metrics() -> dict:
    """The full fleet metrics snapshot.

    Parent-side ``serve.*`` metrics plus every worker-side solver delta
    (``hb.*``, ``df.*``, ``cache.*``, ``ladder.*``) the service has merged
    from job replies.  ``MetricsRegistry.snapshot`` sorts keys and
    normalises numbers, so two scrapes of identical state are
    byte-identical — diffable by construction.
    """
    return metrics.snapshot()
