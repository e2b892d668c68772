"""Tests for the structured tracer and its sinks."""

import io
import json

from repro.sim.trace import (DigestSink, JsonlSink, ListSink, TraceRecord,
                             Tracer, trace_digest)


class TestEmission:
    def test_disabled_by_default(self):
        t = Tracer()
        t.emit(0, "sched", "dispatch", "lwp-1")
        assert len(t) == 0

    def test_enabled_collects(self):
        t = Tracer(enabled=True)
        t.emit(10, "sched", "dispatch", "lwp-1", cpu="cpu-0")
        assert len(t) == 1
        rec = t.records[0]
        assert rec.time_ns == 10
        assert rec.detail["cpu"] == "cpu-0"

    def test_category_filter(self):
        t = Tracer(enabled=True, categories=["syscall"])
        t.emit(0, "sched", "dispatch", "x")
        t.emit(0, "syscall", "enter", "x")
        assert len(t) == 1
        assert t.records[0].category == "syscall"

    def test_sink_callback(self):
        seen = []
        t = Tracer(enabled=True, sink=seen.append)
        t.emit(0, "a", "b", "c")
        assert len(seen) == 1


def _emit_sample(t: Tracer) -> None:
    t.emit(0, "sched", "dispatch", "lwp-1", cpu="cpu-0")
    t.emit(5, "sync", "acquire", "thread-2", mode="mutex")
    t.emit(9, "syscall", "enter", "lwp-1")


class TestSinks:
    def test_jsonl_streams_records(self):
        buf = io.StringIO()
        t = Tracer(enabled=True, sink=JsonlSink(buf), store=False)
        _emit_sample(t)
        lines = [json.loads(line) for line in
                 buf.getvalue().splitlines()]
        assert len(lines) == 3
        assert lines[0]["event"] == "dispatch"
        assert lines[0]["detail"] == {"cpu": "cpu-0"}

    def test_digest_sink_matches_trace_digest(self):
        # The incremental digest must equal the after-the-fact digest
        # over a stored record list for the same emissions.
        stored = Tracer(enabled=True)
        _emit_sample(stored)
        sink = DigestSink()
        incremental = Tracer(enabled=True, sink=sink, store=False)
        _emit_sample(incremental)
        assert sink.hexdigest() == trace_digest(stored)
        assert trace_digest(sink) == trace_digest(stored.records)
        assert sink.count == 3

    def test_digest_only_fast_path_is_byte_identical(self):
        # With a lone DigestSink, emit() skips TraceRecord construction
        # entirely; adding a second sink must restore record delivery
        # without perturbing the digest stream.
        lone = Tracer(enabled=True, sink=DigestSink(), store=False)
        assert lone._digest_only is not None  # fast path armed
        both_sink = DigestSink()
        both = Tracer(enabled=True, sink=both_sink, store=False)
        extra = ListSink()
        both.add_sink(extra)
        assert both._digest_only is None  # fast path disarmed
        _emit_sample(lone)
        _emit_sample(both)
        assert lone._sinks[0].hexdigest() == both_sink.hexdigest()
        assert len(extra.records) == 3

    def test_store_false_keeps_no_records(self):
        t = Tracer(enabled=True, store=False)
        _emit_sample(t)
        assert t.records == [] and len(t) == 0

    def test_remove_sink(self):
        sink = ListSink()
        t = Tracer(enabled=True, sink=sink)
        t.emit(0, "a", "b", "c")
        t.remove_sink(sink)
        t.emit(1, "a", "b", "c")
        assert len(sink.records) == 1
        assert len(t) == 2  # default store still collects

    def test_category_gate_flags_track_state(self):
        t = Tracer(enabled=True, categories=["sched"])
        assert t.want_sched and not t.want_syscall
        t.categories = None
        assert t.want_syscall
        t.enabled = False
        assert not t.want_sched


class TestQueries:
    def _tracer(self):
        t = Tracer(enabled=True)
        t.emit(0, "sched", "dispatch", "lwp-1")
        t.emit(5, "sched", "block", "lwp-1")
        t.emit(9, "syscall", "enter", "lwp-2")
        return t

    def test_find_by_category(self):
        assert len(self._tracer().find(category="sched")) == 2

    def test_find_by_event_and_subject(self):
        t = self._tracer()
        assert len(t.find(event="block", subject="lwp-1")) == 1
        assert t.count(event="block") == 1

    def test_between(self):
        t = self._tracer()
        assert [r.event for r in t.between(1, 9)] == ["block"]

    def test_clear(self):
        t = self._tracer()
        t.clear()
        assert len(t) == 0

    def test_str_rendering(self):
        rec = TraceRecord(1_500, "sched", "dispatch", "lwp-1",
                          {"cpu": "cpu-0"})
        text = str(rec)
        assert "sched/dispatch" in text and "cpu=cpu-0" in text
