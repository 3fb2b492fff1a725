"""Trace rendering, per-phase totals, and the ``OBS_REPORT.json`` emitter.

The CLI's ``repro obs <trace>`` command is a thin wrapper over this
module: :func:`render_trace` draws the span tree with durations and the
load-bearing attributes (iteration counts, residual norms, cache
verdicts), :func:`phase_totals` aggregates wall time per span name, and
:func:`render_totals` prints the result as a per-span totals table.

:func:`write_obs_report` is the single metrics exporter: it snapshots the
process-wide registry into ``OBS_REPORT.json`` together with run context
(argv, exit code, trace-file path).  :func:`validate_trace` and
:func:`validate_obs_report` are the schema checks CI's observability smoke
job runs on both artifacts (also exposed via
``scripts/check_obs_schemas.py``).
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.metrics import metrics
from repro.obs.tracing import (
    ACCEPTED_TRACE_SCHEMAS,
    SPAN_RECORD_FIELDS,
    TRACE_HEADER_FIELDS,
    load_trace,
)

__all__ = [
    "OBS_SCHEMA_VERSION",
    "DEFAULT_OBS_REPORT_PATH",
    "phase_totals",
    "render_trace",
    "render_totals",
    "summarise_trace",
    "analyze_serve_trace",
    "write_obs_report",
    "validate_trace",
    "validate_obs_report",
]

#: Bump when the OBS_REPORT.json layout changes.
OBS_SCHEMA_VERSION = 1

DEFAULT_OBS_REPORT_PATH = pathlib.Path("OBS_REPORT.json")

#: Attributes worth showing inline in the rendered tree, in print order.
_HIGHLIGHT_ATTRS = (
    "iterations",
    "residual_norm",
    "rung",
    "outcome",
    "method",
    "n",
    "v_i",
    "error",
)


def _format_attrs(attrs: dict) -> str:
    parts = []
    for key in _HIGHLIGHT_ATTRS:
        if key in attrs:
            value = attrs[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.3g}")
            else:
                parts.append(f"{key}={value}")
    extra = len([k for k in attrs if k not in _HIGHLIGHT_ATTRS])
    if extra:
        parts.append(f"+{extra} attr")
    return f"  [{', '.join(parts)}]" if parts else ""


def _format_duration(dur_s: float) -> str:
    if dur_s >= 1.0:
        return f"{dur_s:.2f} s"
    if dur_s >= 1e-3:
        return f"{dur_s * 1e3:.1f} ms"
    return f"{dur_s * 1e6:.0f} us"


def render_trace(spans: list[dict], *, min_dur_s: float = 0.0) -> str:
    """ASCII tree of a trace's spans (children indented under parents).

    Spans are keyed by ``span_id``/``parent_id``; siblings sort by start
    offset.  ``min_dur_s`` hides sub-threshold leaves (their time is still
    inside the parents).  Events are summarised as a count per span.
    """
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span.get("parent_id"), []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.get("t_start_s", 0.0))

    lines: list[str] = []

    def walk(parent_id, indent: str) -> None:
        for span in by_parent.get(parent_id, ()):
            if span.get("dur_s", 0.0) < min_dur_s and span["span_id"] not in by_parent:
                continue
            events = span.get("events") or ()
            tail = f"  ({len(events)} events)" if events else ""
            lines.append(
                f"{indent}* {span['name']}  "
                f"{_format_duration(span.get('dur_s', 0.0))}"
                f"{_format_attrs(span.get('attrs') or {})}{tail}"
            )
            walk(span["span_id"], indent + "  ")

    walk(None, "")
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def phase_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Aggregate ``{name: {"total_s", "calls"}}`` over every span.

    Nested same-name spans count both times.
    """
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], {"total_s": 0.0, "calls": 0})
        entry["total_s"] += float(span.get("dur_s", 0.0))
        entry["calls"] = int(entry["calls"]) + 1
    return totals

def render_totals(totals: dict[str, dict[str, float]]) -> str:
    """Per-phase totals table, widest consumer first."""
    if not totals:
        return "(no spans recorded)"
    order = sorted(totals.items(), key=lambda kv: -kv[1]["total_s"])
    width = max(len(name) for name in totals)
    lines = [f"{'span':<{width}}  {'total':>10}  {'calls':>6}"]
    for name, entry in order:
        lines.append(
            f"{name:<{width}}  {_format_duration(entry['total_s']):>10}  "
            f"{int(entry['calls']):>6}"
        )
    return "\n".join(lines)


def summarise_trace(path: str | pathlib.Path) -> str:
    """The full ``repro obs`` rendering: header, tree, per-phase totals."""
    header, spans = load_trace(path)
    lines = [
        f"trace {path}: {header.get('spans', len(spans))} spans"
        + (f", {header['dropped']} dropped" if header.get("dropped") else ""),
        "",
        render_trace(spans),
        "",
        "per-span totals:",
        render_totals(phase_totals(spans)),
    ]
    return "\n".join(lines)


def analyze_serve_trace(path: str | pathlib.Path, *, top: int = 5) -> str:
    """Per-job breakdown of a stitched serve trace (``repro obs --serve``).

    For every ``serve.job`` span: the job's trace id, status, queue wait
    versus in-worker solve time (sum of ``serve.attempt`` child
    durations), and the stitched subtree — parent spans and grafted
    worker spans in one render.  Ends with the ``top`` slowest ladder
    rungs across all jobs, the usual first suspects when a tongue sweep
    is slow.
    """
    _, spans = load_trace(path)
    by_id = {span["span_id"]: span for span in spans}
    children: dict = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.get("t_start_s", 0.0))

    def subtree(root: dict) -> list[dict]:
        # Copy the root with its parent detached so render_trace treats it
        # as the tree root even when it sits under e.g. a CLI span.
        out = [{**root, "parent_id": None}]
        stack = [root["span_id"]]
        while stack:
            for child in children.get(stack.pop(), ()):
                out.append(child)
                stack.append(child["span_id"])
        return out

    jobs = [s for s in spans if s.get("name") == "serve.job"]
    jobs.sort(key=lambda s: s.get("t_start_s", 0.0))
    lines: list[str] = [f"serve trace {path}: {len(jobs)} jobs, {len(spans)} spans"]
    for job in jobs:
        attrs = job.get("attrs") or {}
        attempts = [
            c for c in children.get(job["span_id"], ()) if c["name"] == "serve.attempt"
        ]
        solve_s = sum(float(a.get("dur_s", 0.0)) for a in attempts)
        queue_wait = attrs.get("queue_wait_s")
        if queue_wait is None:
            queue_wait = max(0.0, float(job.get("dur_s", 0.0)) - solve_s)
        worker_spans = sum(
            1 for s in subtree(job) if s.get("process") == "worker"
        )
        lines += [
            "",
            f"job {attrs.get('job_id', '?')}  kind={attrs.get('kind', '?')}"
            f"  tenant={attrs.get('tenant', '?')}"
            f"  status={attrs.get('status', '?')}"
            f"  trace_id={job.get('trace_id', '-')}",
            f"  total {_format_duration(float(job.get('dur_s', 0.0)))}"
            f" = queue-wait {_format_duration(float(queue_wait))}"
            f" + solve {_format_duration(solve_s)}"
            f"  ({len(attempts)} attempts, {worker_spans} worker spans)",
            render_trace(subtree(job)),
        ]

    rungs = sorted(
        (s for s in spans if s.get("name") == "rung"),
        key=lambda s: -float(s.get("dur_s", 0.0)),
    )[: max(0, top)]
    if rungs:
        lines += ["", f"top {len(rungs)} slowest rungs:"]
        for rung in rungs:
            attrs = rung.get("attrs") or {}
            owner = by_id.get(rung.get("parent_id"))
            lines.append(
                f"  {_format_duration(float(rung.get('dur_s', 0.0))):>9}"
                f"  stage={attrs.get('stage', '?')} rung={attrs.get('rung', '?')}"
                f" outcome={attrs.get('outcome', '?')}"
                f"  trace_id={rung.get('trace_id', '-')}"
                + (f"  under {owner['name']}" if owner else "")
            )
    return "\n".join(lines)


def write_obs_report(
    path: str | pathlib.Path = DEFAULT_OBS_REPORT_PATH,
    *,
    argv: list[str] | None = None,
    exit_code: int | None = None,
    trace_file: str | None = None,
) -> pathlib.Path:
    """Snapshot the metrics registry into ``OBS_REPORT.json``."""
    payload = {
        "report": "OBS",
        "schema": OBS_SCHEMA_VERSION,
        "metrics": metrics.snapshot(),
    }
    if argv is not None:
        payload["argv"] = list(argv)
    if exit_code is not None:
        payload["exit_code"] = int(exit_code)
    if trace_file is not None:
        payload["trace_file"] = str(trace_file)
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- schema validation (CI smoke job) -----------------------------------------

#: Expected type per mandatory span-record field.  Keyed off the locked
#: :data:`~repro.obs.tracing.SPAN_RECORD_FIELDS` contract; ``parent_id``
#: is absent here because it is legitimately ``None`` on root spans, and
#: ``attrs``/``events`` because they are optional.
_SPAN_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "span_id": int,
    "name": str,
    "kind": str,
    "depth": int,
    "t_start_s": (int, float),
    "dur_s": (int, float),
}
assert set(_SPAN_FIELD_TYPES) <= set(SPAN_RECORD_FIELDS)

#: Type per optional v1.1 stitching field, checked only when present so
#: v1 traces (which never emit them) validate unchanged.
_OPTIONAL_SPAN_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "trace_id": str,
    "parent_span_id": int,
    "process": str,
}
assert set(_OPTIONAL_SPAN_FIELD_TYPES) <= set(SPAN_RECORD_FIELDS)


def validate_trace(path: str | pathlib.Path) -> list[str]:
    """Structural checks on a trace file; returns problems (empty = valid).

    Checks the header magic/schema, per-record required keys and types,
    and referential integrity: every ``parent_id`` must name an earlier-
    started span and child depth must exceed its parent's — i.e. the spans
    nest correctly.
    """
    problems: list[str] = []
    try:
        header, spans = load_trace(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return [f"unreadable trace: {exc}"]
    if header.get("schema") not in ACCEPTED_TRACE_SCHEMAS:
        problems.append(
            f"header schema {header.get('schema')!r} not in "
            f"{ACCEPTED_TRACE_SCHEMAS}"
        )
    if header.get("spans") != len(spans):
        problems.append(
            f"header claims {header.get('spans')} spans, file holds {len(spans)}"
        )
    for key in TRACE_HEADER_FIELDS:
        if key not in header:
            problems.append(f"header missing {key!r}")
    seen: dict[int, dict] = {}
    for i, span in enumerate(spans):
        where = f"span line {i + 2}"
        for key, types in _SPAN_FIELD_TYPES.items():
            if not isinstance(span.get(key), types):
                problems.append(f"{where}: bad or missing {key!r}")
        for key, types in _OPTIONAL_SPAN_FIELD_TYPES.items():
            if key in span and not isinstance(span[key], types):
                problems.append(f"{where}: bad optional {key!r}")
        unknown = set(span) - set(SPAN_RECORD_FIELDS)
        if unknown:
            problems.append(f"{where}: unknown fields {sorted(unknown)}")
        span_id = span.get("span_id")
        if isinstance(span_id, int):
            if span_id in seen:
                problems.append(f"{where}: duplicate span_id {span_id}")
            seen[span_id] = span
    for span in spans:
        parent_id = span.get("parent_id")
        if parent_id is None:
            if span.get("depth") != 0:
                problems.append(
                    f"span {span.get('span_id')}: root span with depth "
                    f"{span.get('depth')}"
                )
            continue
        parent = seen.get(parent_id)
        if parent is None:
            problems.append(
                f"span {span.get('span_id')}: unknown parent_id {parent_id}"
            )
            continue
        if span.get("depth") != parent.get("depth", 0) + 1:
            problems.append(
                f"span {span.get('span_id')}: depth {span.get('depth')} does not "
                f"nest under parent depth {parent.get('depth')}"
            )
        if span.get("t_start_s", 0.0) + 1e-9 < parent.get("t_start_s", 0.0):
            problems.append(
                f"span {span.get('span_id')}: starts before its parent"
            )
    return problems


def validate_obs_report(path: str | pathlib.Path) -> list[str]:
    """Structural checks on an ``OBS_REPORT.json``; empty list = valid."""
    problems: list[str] = []
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable report: {exc}"]
    if payload.get("report") != "OBS":
        problems.append(f"report field is {payload.get('report')!r}, expected 'OBS'")
    if payload.get("schema") != OBS_SCHEMA_VERSION:
        problems.append(
            f"schema {payload.get('schema')!r} != {OBS_SCHEMA_VERSION}"
        )
    snapshot = payload.get("metrics")
    if not isinstance(snapshot, dict):
        return problems + ["metrics is not an object"]
    for family in ("counters", "gauges", "histograms"):
        table = snapshot.get(family)
        if not isinstance(table, dict):
            problems.append(f"metrics.{family} is not an object")
            continue
        for key, value in table.items():
            if family == "histograms":
                if not isinstance(value, dict) or not {
                    "count",
                    "sum",
                    "min",
                    "max",
                    "mean",
                } <= set(value):
                    problems.append(f"histogram {key!r} missing summary fields")
            elif not isinstance(value, (int, float)):
                problems.append(f"{family[:-1]} {key!r} is not numeric")
    return problems
