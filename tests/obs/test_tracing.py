"""Span primitive: nesting, attributes, round-trip, and the disabled path."""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    current_span,
    load_trace,
    trace,
    tracer,
)
from repro.obs.tracing import NOOP_SPAN


class TestNesting:
    def test_parent_child_ids_and_depth(self, clean_obs):
        tracer.enable()
        with trace("outer") as outer:
            with trace("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == outer.depth + 1
        records = tracer.records()
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["depth"] == 0

    def test_reentrant_same_name(self, clean_obs):
        tracer.enable()
        with trace("solve") as a:
            with trace("solve") as b:
                with trace("solve") as c:
                    assert (a.depth, b.depth, c.depth) == (0, 1, 2)
        depths = sorted(r["depth"] for r in tracer.records())
        assert depths == [0, 1, 2]

    def test_current_span_tracks_innermost(self, clean_obs):
        tracer.enable()
        assert current_span() is NOOP_SPAN
        with trace("outer") as outer:
            assert current_span() is outer
            with trace("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is NOOP_SPAN

    def test_span_open_across_a_buffer_reset_keeps_a_unique_id(self, clean_obs):
        # Alternating trace windows (the benchmark's traced serve runs)
        # reset the buffer while a job's span is still open; it then
        # finishes into the next buffer, whose spans must not reuse its id.
        tracer.enable()
        with trace("window-1"):
            pass
        stale = trace("long-job").__enter__()
        tracer.clear()
        tracer.enable()
        with trace("window-2"):
            with trace("child"):
                pass
        stale.__exit__(None, None, None)
        ids = [r["span_id"] for r in tracer.records()]
        assert len(ids) == len(set(ids)) == 3

    def test_sibling_spans_share_parent(self, clean_obs):
        tracer.enable()
        with trace("parent"):
            with trace("first"):
                pass
            with trace("second"):
                pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["first"]["parent_id"] == records["parent"]["span_id"]
        assert records["second"]["parent_id"] == records["parent"]["span_id"]
        assert records["first"]["depth"] == records["second"]["depth"] == 1

    def test_threads_do_not_share_the_span_stack(self, clean_obs):
        tracer.enable()
        seen = {}

        def worker():
            # A fresh thread starts outside every span even while the main
            # thread holds one open (contextvars isolation).
            seen["parent"] = tracer._current.get()
            with trace("thread-span") as sp:
                seen["depth"] = sp.depth

        with trace("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen["parent"] is None
        assert seen["depth"] == 0


class TestAttributesAndEvents:
    def test_set_and_event_round_trip(self, clean_obs, tmp_path):
        tracer.enable()
        with trace("hb", attrs={"n": 3}) as sp:
            sp.set(iterations=5, residual_norm=1.25e-13)
            sp.event("newton", iteration=1, residual=0.5)
        path = tracer.write(tmp_path / "t.jsonl")
        header, spans = load_trace(path)
        assert header["schema"] == TRACE_SCHEMA_VERSION
        assert header["spans"] == 1
        (span,) = spans
        assert span["attrs"]["n"] == 3
        assert span["attrs"]["iterations"] == 5
        assert span["attrs"]["residual_norm"] == pytest.approx(1.25e-13)
        (event,) = span["events"]
        assert event["name"] == "newton"
        assert event["iteration"] == 1

    def test_exception_sets_error_attr(self, clean_obs):
        tracer.enable()
        with pytest.raises(ValueError):
            with trace("failing"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record["attrs"]["error"] == "ValueError"

    def test_numpy_and_nonfinite_values_are_json_safe(self, clean_obs, tmp_path):
        tracer.enable()
        with trace("numeric") as sp:
            sp.set(
                count=np.int64(7),
                norm=np.float64(2.5),
                bad=float("nan"),
                worse=float("inf"),
            )
        path = tracer.write(tmp_path / "t.jsonl")
        _, (span,) = load_trace(path)
        attrs = span["attrs"]
        assert attrs["count"] == 7
        assert attrs["norm"] == 2.5
        assert isinstance(attrs["bad"], str)
        assert isinstance(attrs["worse"], str)

    def test_durations_are_positive_and_nested(self, clean_obs):
        tracer.enable()
        with trace("outer"):
            with trace("inner"):
                pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["outer"]["dur_s"] >= records["inner"]["dur_s"] >= 0.0


class TestDisabledPath:
    def test_disabled_span_is_the_shared_noop(self, clean_obs):
        assert trace("anything") is NOOP_SPAN
        assert not NOOP_SPAN.recording
        with trace("still-noop") as sp:
            sp.set(a=1)
            sp.event("ignored")
        assert tracer.records() == []

    def test_disabled_path_allocates_nothing(self, clean_obs):
        # Warm up interned strings / bytecode caches first.
        for _ in range(100):
            with trace("hot"):
                pass
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            with trace("hot"):
                pass
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        grown = sum(
            stat.size_diff
            for stat in after.compare_to(before, "lineno")
            if stat.size_diff > 0
        )
        # tracemalloc itself retains a few hundred bytes of bookkeeping;
        # a real per-iteration allocation (one Span is ~200 bytes) would
        # show up as >= 200 kB across the 1000 iterations.
        assert grown < 8192

    def test_enable_resets_prior_buffer(self, clean_obs):
        tracer.enable()
        with trace("first"):
            pass
        assert len(tracer.records()) == 1
        tracer.enable()
        assert tracer.records() == []


class TestLoadTrace:
    def test_rejects_non_trace_files(self, tmp_path):
        bogus = tmp_path / "not-a-trace.jsonl"
        bogus.write_text('{"something": "else"}\n')
        with pytest.raises(ValueError):
            load_trace(bogus)

    def test_rejects_empty_files(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_trace(empty)


class TestStitching:
    """Trace-context propagation and cross-process grafting (schema v1.1)."""

    def test_ambient_context_roots_adopt_it(self, clean_obs):
        tracer.enable()
        with tracer.ambient("feedfacefeedface", 9):
            with trace("root") as root:
                assert root.trace_id == "feedfacefeedface"
                assert root.parent_span_id == 9
                with trace("child") as child:
                    # Children inherit trace_id from the parent span, not
                    # the remote parent pointer.
                    assert child.trace_id == "feedfacefeedface"
                    assert child.parent_span_id is None
        records = {r["name"]: r for r in tracer.records()}
        assert records["root"]["trace_id"] == "feedfacefeedface"
        assert records["root"]["parent_span_id"] == 9
        assert "parent_span_id" not in records["child"]

    def test_ambient_applies_under_an_idless_enclosing_span(self, clean_obs):
        # A serve session booted via the CLI runs inside a cli.* root span
        # opened before any request exists; request subtrees must still
        # pick up the ambient trace_id minted at ingress.
        tracer.enable()
        with trace("cli.serve") as root:
            assert root.trace_id is None
            with tracer.ambient("cafecafecafecafe"):
                with trace("serve.request") as request:
                    assert request.trace_id == "cafecafecafecafe"
                    assert request.parent_id == root.span_id
                    assert request.parent_span_id is None

    def test_current_trace_id_reads_span_then_ambient(self, clean_obs):
        from repro.obs import current_trace_id

        assert current_trace_id() is None
        tracer.enable()
        with tracer.ambient("00000000aaaaaaaa"):
            assert current_trace_id() == "00000000aaaaaaaa"

    def test_graft_renumbers_reroots_and_stamps(self, clean_obs, tmp_path):
        from repro.obs import validate_trace

        tracer.enable()
        worker = [
            {"span_id": 2, "parent_id": 1, "name": "inner", "kind": "span",
             "depth": 1, "t_start_s": 0.002, "dur_s": 0.01},
            {"span_id": 1, "parent_id": None, "name": "outer", "kind": "span",
             "depth": 0, "t_start_s": 0.001, "dur_s": 0.02,
             "parent_span_id": 77},
        ]
        with tracer.ambient("beefbeefbeefbeef"):
            with trace("attempt") as attempt:
                grafted = tracer.graft(
                    worker, parent=attempt,
                    epoch_unix_s=tracer.epoch_unix,
                )
        assert grafted == 2
        path = tmp_path / "stitched.jsonl"
        tracer.write(path)
        assert validate_trace(path) == []
        records = {r["name"]: r for r in tracer.records()}
        outer, inner = records["outer"], records["inner"]
        assert outer["parent_id"] == records["attempt"]["span_id"]
        assert outer["depth"] == records["attempt"]["depth"] + 1
        assert outer["process"] == "worker"
        assert outer["trace_id"] == "beefbeefbeefbeef"
        assert outer["parent_span_id"] == 77  # preserved, not overwritten
        assert inner["parent_id"] == outer["span_id"]
        assert inner["depth"] == outer["depth"] + 1
        assert inner["trace_id"] == "beefbeefbeefbeef"

    def test_graft_clamps_clock_skew(self, clean_obs):
        tracer.enable()
        worker = [
            {"span_id": 1, "parent_id": None, "name": "w", "kind": "span",
             "depth": 0, "t_start_s": 0.0, "dur_s": 0.01},
        ]
        with trace("attempt") as attempt:
            # A remote epoch far in the past would place the child before
            # its parent; the offset must clamp to the parent's start.
            tracer.graft(worker, parent=attempt,
                         epoch_unix_s=tracer.epoch_unix - 3600.0)
            parent_start = attempt._start_rel
        record = next(r for r in tracer.records() if r["name"] == "w")
        assert record["t_start_s"] + 1e-9 >= round(parent_start, 6)

    def test_reset_context_forgets_inherited_parents(self, clean_obs):
        tracer.enable()
        with tracer.ambient("1234123412341234", 5):
            # Simulate the forked-worker situation: a live span leaks into
            # the context, then the worker resets before its first span.
            span = trace("leaked").__enter__()
            tracer.reset_context()
            with trace("fresh") as fresh:
                assert fresh.parent_id is None
                assert fresh.depth == 0
                assert fresh.trace_id is None
            # The leaked span's token is now foreign; close it defensively.
            try:
                span.__exit__(None, None, None)
            except ValueError:
                pass
