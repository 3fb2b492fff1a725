"""Hierarchical spans: the single timing/tracing primitive of the repo.

A *span* is one timed, attributed, nestable unit of work.  The process-wide
:data:`tracer` hands them out::

    from repro.obs import trace

    with trace("lockrange") as span:
        ...
        span.set(n=3, samples=412)
        if span.recording:
            span.event("edge-refined", phi_d=0.31)

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  With no trace buffer,
   :meth:`Tracer.span` returns a shared no-op singleton:
   the whole ``with`` block costs one attribute check and allocates
   nothing, so spans stay in production code (the describing-function and
   harmonic-balance hot paths included).  Hot-path attribute/event calls
   are guarded by ``span.recording`` so their keyword dicts are never
   built either.
2. **One timing code path.**  Every timed block in the repo is a span;
   per-name totals come from the trace itself
   (:func:`repro.obs.report.phase_totals`), and :class:`Clock` is the
   stopwatch for wall times that must be taken with tracing off.
3. **Post-hoc diagnosability.**  With tracing on, every finished span is
   buffered as a JSON-safe record (parent id, depth, start offset,
   duration, attributes, events) and :meth:`Tracer.write` emits them as a
   JSON-lines file: one header line, then one line per span in completion
   order.  ``python -m repro obs <file>`` renders the tree.

Nesting is tracked with :mod:`contextvars`, so spans are re-entrant and
remain correct across threads and asyncio tasks.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import pathlib
import time
import uuid

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "ACCEPTED_TRACE_SCHEMAS",
    "SPAN_RECORD_FIELDS",
    "TRACE_HEADER_FIELDS",
    "Clock",
    "Span",
    "Tracer",
    "tracer",
    "trace",
    "current_span",
    "current_trace_id",
    "new_trace_id",
    "load_trace",
]

#: Bump when the trace-file record layout changes.  v1.1 is a strictly
#: additive revision over v1: span records may carry ``trace_id`` /
#: ``parent_span_id`` / ``process`` (the cross-process stitching fields);
#: every v1 consumer that ignores unknown-to-it optional fields still
#: parses a v1.1 trace, and the validators accept both versions.
TRACE_SCHEMA_VERSION = "1.1"

#: The exact field names of one span record (``Span.to_record``) and of
#: the trace-file header, in emission order.  ``attrs``/``events`` are
#: optional on a record, as are the v1.1 stitching fields ``trace_id``
#: (request-scoped correlation id), ``parent_span_id`` (remote parent at a
#: process boundary) and ``process`` (which process emitted the span);
#: everything else is always present.  These names are part of the
#: on-disk contract — every trace consumer (the renderer, the validators,
#: external tooling) keys on them — so they are locked by a golden
#: regression test (``tests/regress/test_schema_locks.py``): renaming one
#: requires touching this constant, which makes the rename a reviewed
#: schema event instead of a silent consumer break.
SPAN_RECORD_FIELDS = (
    "span_id",
    "parent_id",
    "name",
    "kind",
    "depth",
    "t_start_s",
    "dur_s",
    "trace_id",
    "parent_span_id",
    "process",
    "attrs",
    "events",
)
TRACE_HEADER_FIELDS = ("trace", "schema", "epoch_unix_s", "spans", "dropped")

#: Schema versions ``validate_trace`` accepts (v1 files remain readable).
ACCEPTED_TRACE_SCHEMAS = (1, "1.1")

#: Buffered-span bound: a runaway sweep cannot exhaust memory; overflow is
#: counted and reported in the trace header instead of silently dropped.
_MAX_BUFFERED_SPANS = 200_000

_now = time.perf_counter


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id (one per external request)."""
    return uuid.uuid4().hex[:16]


class Clock:
    """Monotonic stopwatch — the one wall-clock primitive under spans.

    Code that needs an elapsed time whether or not tracing is on (the
    verify harness stamps each scenario's wall time into
    ``VERIFY_REPORT.json``) uses this, so every elapsed-seconds
    measurement in the repo shares a single clock implementation.
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = _now()

    def restart(self) -> None:
        self._start = _now()

    @property
    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return _now() - self._start


def _json_safe(value):
    """Coerce an attribute/event value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/Inf are not valid JSON; keep the information as a string.
        return value if value == value and abs(value) != float("inf") else repr(value)
    try:  # numpy scalars expose item(); recurse for the float case above
        return _json_safe(value.item())
    except AttributeError:
        return str(value)


class _NoopSpan:
    """Shared do-nothing span: the disabled-tracer fast path.

    Stateless, hence safely re-entrant; every disabled ``with trace(...)``
    block enters and exits this one module-level instance.
    """

    __slots__ = ()

    #: Hot paths guard expensive attribute/event construction with this.
    recording = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass

    def set_attribute(self, key, value) -> None:
        pass

    def event(self, name, /, **fields) -> None:
        pass

    @property
    def elapsed(self) -> float:
        return 0.0


NOOP_SPAN = _NoopSpan()


class Span:
    """One live span (also its own context manager).

    Only ever constructed by :meth:`Tracer.span` while the tracer is
    active; user code receives either this or :data:`NOOP_SPAN` and treats
    both uniformly.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "trace_id",
        "parent_span_id",
        "attrs",
        "events",
        "dur_s",
        "_tracer",
        "_t0",
        "_start_rel",
        "_token",
    )

    def __init__(self, owner: "Tracer", name: str, attrs: dict | None):
        self._tracer = owner
        self.name = str(name)
        self.attrs = dict(attrs) if attrs else {}
        self.events: list[dict] = []
        self.span_id = 0
        self.parent_id: int | None = None
        self.depth = 0
        self.trace_id: str | None = None
        self.parent_span_id: int | None = None
        self.dur_s = 0.0
        self._t0 = 0.0
        self._start_rel = 0.0
        self._token = None

    @property
    def recording(self) -> bool:
        """True when events/attributes will reach a trace file."""
        return self._tracer._trace_on

    @property
    def elapsed(self) -> float:
        return _now() - self._t0

    def set(self, **attrs) -> None:
        """Attach attributes (``span.set(iterations=5, residual=1e-13)``)."""
        self.attrs.update(attrs)

    def set_attribute(self, key, value) -> None:
        self.attrs[key] = value

    def event(self, name: str, /, **fields) -> None:
        """Record a point-in-time event inside this span.

        Guard hot loops with ``if span.recording:`` so the ``fields`` dict
        is only built when a trace is actually being collected.
        """
        record = {"name": str(name), "t_s": round(_now() - self._tracer._epoch, 6)}
        for key, value in fields.items():
            record[key] = _json_safe(value)
        self.events.append(record)

    def __enter__(self) -> "Span":
        owner = self._tracer
        parent = owner._current.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
            self.trace_id = parent.trace_id
            if self.trace_id is None:
                # An enclosing span opened before the ambient context (e.g.
                # the CLI root around a serve session) has no trace_id; the
                # request-scoped ambient id still applies to this subtree.
                context = owner._ambient.get()
                if context is not None:
                    self.trace_id = context[0]
        else:
            context = owner._ambient.get()
            if context is not None:
                self.trace_id = context[0]
                self.parent_span_id = context[1]
        owner._count += 1
        self.span_id = owner._count
        self._token = owner._current.set(self)
        self._t0 = _now()
        self._start_rel = self._t0 - owner._epoch
        return self

    def __exit__(self, exc_type, exc, tb):
        self.dur_s = _now() - self._t0
        self._tracer._current.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    def to_record(self) -> dict:
        """The JSON-safe trace-file form of this (finished) span."""
        record = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": "span",
            "depth": self.depth,
            "t_start_s": round(self._start_rel, 6),
            "dur_s": round(self.dur_s, 6),
        }
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.parent_span_id is not None:
            record["parent_span_id"] = self.parent_span_id
        process = self._tracer._process
        if process is not None:
            record["process"] = process
        if self.attrs:
            record["attrs"] = {k: _json_safe(v) for k, v in self.attrs.items()}
        if self.events:
            record["events"] = self.events
        return record


class Tracer:
    """Process-wide span factory and buffer.

    ``enable()``/``disable()`` switch the collection of span records for
    a trace file; while it is off, :meth:`span` returns
    :data:`NOOP_SPAN`.
    """

    def __init__(self) -> None:
        self._trace_on = False
        self._records: list[dict] = []
        self._dropped = 0
        self._count = 0
        self._epoch = _now()
        self._epoch_unix = time.time()
        self._process: str | None = None
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_current_span", default=None
        )
        self._ambient: contextvars.ContextVar[tuple[str, int | None] | None] = (
            contextvars.ContextVar("repro_trace_context", default=None)
        )

    # -- state ----------------------------------------------------------------

    @property
    def recording(self) -> bool:
        """Whether span records are being buffered for a trace file."""
        return self._trace_on

    def enable(self) -> None:
        """Start buffering span records; resets any prior buffer.

        Span ids keep counting across buffers: a span still open when the
        buffer is reset finishes into the next one, and an id shared with
        a span of that buffer would tie the two trees into a cycle.
        """
        self._records = []
        self._dropped = 0
        self._epoch = _now()
        self._epoch_unix = time.time()
        self._trace_on = True

    def disable(self) -> None:
        """Stop buffering (the collected records remain readable)."""
        self._trace_on = False

    def clear(self) -> None:
        """Stop buffering and drop any collected records."""
        self._trace_on = False
        self._records = []
        self._dropped = 0

    def set_process(self, name: str | None) -> None:
        """Stamp every subsequently emitted record with a ``process`` name.

        The serve layer sets ``"serve"`` in the parent and ``"worker"`` in
        forked workers so a stitched trace shows which side of the process
        boundary each span ran on.  ``None`` (the default) omits the field,
        keeping single-process CLI traces byte-identical to v1 output.
        """
        self._process = None if name is None else str(name)

    @contextlib.contextmanager
    def ambient(self, trace_id: str, remote_parent_id: int | None = None):
        """Run a block under an inherited trace context.

        Root spans opened inside the block adopt ``trace_id``, and — when
        ``remote_parent_id`` is given — record it as ``parent_span_id``:
        the id of the span *in another process* that logically contains
        them.  Child spans inherit ``trace_id`` from their parent span as
        usual.  This is the receiving half of trace-context propagation:
        the HTTP ingress mints an id with :func:`new_trace_id` and enters
        this context; the worker enters it with the (trace_id, span_id)
        pair carried by the job envelope.
        """
        token = self._ambient.set((str(trace_id), remote_parent_id))
        try:
            yield
        finally:
            self._ambient.reset(token)

    def reset_context(self) -> None:
        """Forget any span / ambient context inherited by THIS context.

        A forked worker process inherits the parent's contextvars wholesale
        — including whatever span happened to be live in the service loop
        at fork time (a mid-retry restart forks under the crashed
        ``serve.attempt``).  Workers call this once at startup so their
        spans root cleanly instead of adopting a stale parent id from
        another process's id space.
        """
        self._current.set(None)
        self._ambient.set(None)

    @contextlib.contextmanager
    def detached(self):
        """Run a block with no ambient parent span.

        Spans opened inside the block become roots of their own tree,
        even when the caller sits inside a live span.  The span-budget
        regression gate uses this so its replay records a self-contained
        (and schema-valid) trace regardless of which CLI span invoked it.
        """
        token = self._current.set(None)
        try:
            yield
        finally:
            self._current.reset(token)

    # -- span factory ---------------------------------------------------------

    def span(self, name: str, attrs: dict | None = None):
        """A context-managed span, or the no-op singleton when inactive."""
        if not self._trace_on:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def _finish(self, span: Span) -> None:
        if self._trace_on:
            if len(self._records) < _MAX_BUFFERED_SPANS:
                self._records.append(span.to_record())
            else:
                self._dropped += 1

    # -- export ---------------------------------------------------------------

    def records(self) -> list[dict]:
        """A copy of the buffered span records (completion order)."""
        return list(self._records)

    @property
    def epoch_unix(self) -> float:
        """Unix time corresponding to ``t_start_s == 0`` in this buffer."""
        return self._epoch_unix

    def graft(
        self,
        records: list[dict],
        *,
        parent: "Span",
        process: str = "worker",
        epoch_unix_s: float | None = None,
    ) -> int:
        """Stitch a finished span tree from another process under ``parent``.

        ``records`` is another tracer's ``records()`` output (the worker's
        whole buffer for one job).  Each record is renumbered into this
        tracer's id space, re-rooted — records whose parent is absent from
        the shipped set become children of ``parent`` (the live
        ``serve.attempt`` span) — depth-shifted accordingly, stamped with
        ``process`` and the parent's ``trace_id``, and time-shifted from
        the remote epoch onto this tracer's epoch.  The shift is clamped
        so no grafted span starts before ``parent`` does: clock skew
        between ``time.time()`` readings in the two processes can never
        produce a child-starts-before-parent trace that fails validation.

        Returns the number of records grafted.  Records beyond the buffer
        bound are counted as dropped, exactly like locally finished spans.
        """
        if not self._trace_on or not records:
            return 0
        shipped = {rec["span_id"] for rec in records}
        offset = 0.0
        if epoch_unix_s is not None:
            offset = float(epoch_unix_s) - self._epoch_unix
        min_start = min(float(rec.get("t_start_s", 0.0)) for rec in records)
        floor = parent._start_rel
        if min_start + offset < floor:
            offset = floor - min_start
        id_map: dict[int, int] = {}
        for rec in records:
            self._count += 1
            id_map[rec["span_id"]] = self._count
        grafted = 0
        for rec in records:
            out = dict(rec)
            out["span_id"] = id_map[rec["span_id"]]
            old_parent = rec.get("parent_id")
            if old_parent in id_map:
                out["parent_id"] = id_map[old_parent]
                out["depth"] = rec["depth"] + parent.depth + 1
            else:
                out["parent_id"] = parent.span_id
                out["depth"] = parent.depth + 1
                out.setdefault("parent_span_id", parent.span_id)
            out["t_start_s"] = round(float(rec.get("t_start_s", 0.0)) + offset, 6)
            if parent.trace_id is not None:
                out["trace_id"] = parent.trace_id
            out["process"] = process
            if len(self._records) < _MAX_BUFFERED_SPANS:
                self._records.append(out)
                grafted += 1
            else:
                self._dropped += 1
        return grafted

    def header(self) -> dict:
        return {
            "trace": "repro",
            "schema": TRACE_SCHEMA_VERSION,
            "epoch_unix_s": round(self._epoch_unix, 3),
            "spans": len(self._records),
            "dropped": self._dropped,
        }

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        """Emit the buffered trace as JSON lines (header first)."""
        path = pathlib.Path(path)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for record in self._records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path


#: The process-wide tracer every span in the repo goes through.
tracer = Tracer()


def trace(name: str, attrs: dict | None = None):
    """Open a span on the process-wide tracer: ``with trace("x") as s:``.

    ``attrs`` is an optional dict rather than ``**kwargs`` so the disabled
    path stays allocation-free; attach attributes through the yielded span
    when tracing matters (it no-ops when disabled).
    """
    return tracer.span(name, attrs=attrs)


def current_span():
    """The innermost live span, or the no-op singleton outside any."""
    span = tracer._current.get()
    return span if span is not None else NOOP_SPAN


def current_trace_id() -> str | None:
    """The trace id of the innermost live span or ambient context, if any.

    Lets code far from the HTTP layer (e.g. job admission) correlate its
    artifacts with the request that caused them without plumbing the id
    through every call signature.
    """
    span = tracer._current.get()
    if span is not None and span.trace_id is not None:
        return span.trace_id
    context = tracer._ambient.get()
    return context[0] if context is not None else None


def load_trace(path: str | pathlib.Path) -> tuple[dict, list[dict]]:
    """Parse a JSON-lines trace file back into ``(header, spans)``.

    Raises ``ValueError`` on a file that is not a repro trace (wrong header
    magic) — schema *version* mismatches are left to the caller, which may
    still be able to render newer/older records.
    """
    path = pathlib.Path(path)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty — not a trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("trace") != "repro":
        raise ValueError(f"{path} does not start with a repro trace header")
    spans = [json.loads(line) for line in lines[1:]]
    return header, spans
