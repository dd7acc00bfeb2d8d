"""Tests for the observability subsystem (``repro.obs``).

Five layers:

* traceparent — W3C parse/format round-trips and malformed-header
  tolerance (a bad header must start an untraced request, not fail it);
* spans and tracers — the three-tier span model (recording / timed /
  no-op), context propagation, and head sampling;
* collection — aggregate folding in :class:`SpanCollector` and the
  :class:`TraceStore` ring buffer;
* export — Chrome-trace JSON validity and the terminal span tree;
* service integration — latency histograms derived from job spans
  and ``GET /v1/traces/<id>``.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.obs.export import render_span_tree, sort_spans, to_chrome_trace
from repro.obs.log import StructuredLogger, set_level
from repro.obs.store import TraceStore
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanCollector,
    SpanContext,
    Tracer,
    activate_tracer,
    current_context,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    use_span,
)
from repro.service.app import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.telemetry import render

TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
SPAN = "00f067aa0ba902b7"


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)


# ----------------------------------------------------------------------
# traceparent
# ----------------------------------------------------------------------
class TestTraceparent:
    def test_round_trip_sampled(self):
        ctx = SpanContext(TRACE, SPAN, True)
        header = format_traceparent(ctx)
        assert header == f"00-{TRACE}-{SPAN}-01"
        back = parse_traceparent(header)
        assert back.trace_id == TRACE
        assert back.span_id == SPAN
        assert back.sampled is True

    def test_round_trip_unsampled(self):
        header = format_traceparent(SpanContext(TRACE, SPAN, False))
        assert header.endswith("-00")
        back = parse_traceparent(header)
        assert back is not None
        assert back.sampled is False

    def test_fresh_ids_round_trip(self):
        ctx = SpanContext(new_trace_id(), new_span_id(), True)
        back = parse_traceparent(format_traceparent(ctx))
        assert (back.trace_id, back.span_id) == (ctx.trace_id, ctx.span_id)

    def test_surrounding_whitespace_is_tolerated(self):
        assert parse_traceparent(f"  00-{TRACE}-{SPAN}-01\n") is not None

    @pytest.mark.parametrize("header", [
        None,
        "",
        42,
        "00",
        f"00-{TRACE}-{SPAN}",  # three parts
        f"00-{TRACE}-{SPAN}-01-extra",  # five parts
        f"0-{TRACE}-{SPAN}-01",  # short version
        f"ff-{TRACE}-{SPAN}-01",  # forbidden version
        f"zz-{TRACE}-{SPAN}-01",  # non-hex version
        f"00-{TRACE[:-1]}-{SPAN}-01",  # 31-char trace id
        f"00-{TRACE}x-{SPAN}-01",  # 33-char trace id
        f"00-{TRACE}-{SPAN[:-1]}-01",  # 15-char span id
        f"00-{'g' * 32}-{SPAN}-01",  # non-hex trace id
        f"00-{TRACE}-{'g' * 16}-01",  # non-hex span id
        f"00-{'0' * 32}-{SPAN}-01",  # all-zero trace id
        f"00-{TRACE}-{'0' * 16}-01",  # all-zero span id
        f"00-{TRACE}-{SPAN}-0",  # short flags
        f"00-{TRACE}-{SPAN}-xx",  # non-hex flags
    ])
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    @pytest.mark.parametrize("flags,sampled", [
        ("01", True), ("00", False), ("03", True), ("02", False),
    ])
    def test_sampled_is_the_low_flag_bit(self, flags, sampled):
        ctx = parse_traceparent(f"00-{TRACE}-{SPAN}-{flags}")
        assert ctx.sampled is sampled


# ----------------------------------------------------------------------
# spans and tracers
# ----------------------------------------------------------------------
class TestTracerTiers:
    def test_disabled_tracer_hands_out_the_noop_singleton(self):
        tracer = Tracer(service="t")
        assert tracer.start_span("x") is NOOP_SPAN
        assert tracer.start_span("x", root=True) is NOOP_SPAN
        assert not tracer.enabled

    def test_sink_without_sampling_stays_noop(self):
        tracer = Tracer(service="t", sample=0.0, sink=lambda s: None)
        assert tracer.start_span("x", root=True) is NOOP_SPAN

    def test_timed_span_records_duration_without_identity(self):
        tracer = Tracer(service="t")
        span = tracer.start_span("stage", timed=True)
        assert span is not NOOP_SPAN
        assert span.recording is False
        assert span.context is None
        span.end()
        assert span.duration_s >= 0.0
        assert span.ended

    def test_root_sampling_creates_a_recording_span(self):
        sunk = []
        tracer = Tracer(service="t", sample=1.0, sink=sunk.append)
        span = tracer.start_span("root", root=True)
        assert span.recording
        assert len(span.context.trace_id) == 32
        assert len(span.context.span_id) == 16
        assert span.parent_id is None
        assert span.service == "t"
        span.end()
        assert sunk == [span]
        span.end()  # idempotent: the sink fires exactly once
        assert sunk == [span]

    def test_sampling_rate_consults_the_rng(self):
        rolls = iter([0.9, 0.1])
        tracer = Tracer(service="t", sample=0.5, sink=lambda s: None,
                        rng=lambda: next(rolls))
        assert tracer.start_span("a", root=True) is NOOP_SPAN
        assert tracer.start_span("b", root=True).recording

    def test_children_inherit_the_trace_through_the_context(self):
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        with tracer.start_span("parent", root=True) as parent:
            child = tracer.start_span("child")
            assert child.context.trace_id == parent.context.trace_id
            assert child.parent_id == parent.context.span_id
            assert current_context().span_id == parent.context.span_id
        assert current_context() is None

    def test_explicit_parent_context_joins_a_remote_trace(self):
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        remote = parse_traceparent(f"00-{TRACE}-{SPAN}-01")
        span = tracer.start_span("local", parent=remote)
        assert span.context.trace_id == TRACE
        assert span.parent_id == SPAN
        assert span.context.span_id != SPAN

    def test_unsampled_upstream_decision_is_respected(self):
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        remote = parse_traceparent(f"00-{TRACE}-{SPAN}-00")
        assert tracer.start_span("local", parent=remote) is NOOP_SPAN

    def test_use_span_sets_the_ambient_parent_without_ending(self):
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        span = tracer.start_span("job", root=True)
        with use_span(span):
            assert current_context().span_id == span.context.span_id
        assert current_context() is None
        assert not span.ended  # use_span never ends the span

    def test_exception_marks_error_status(self):
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        span = tracer.start_span("boom", root=True)
        with pytest.raises(ValueError):
            with span:
                raise ValueError("nope")
        assert span.status == "error"
        assert "nope" in span.status_message
        assert span.ended

    def test_event_offsets_are_monotonic_from_span_start(self):
        span = Span("s", context=SpanContext(TRACE, SPAN))
        span.add_event("first", detail=1)
        span.add_event("second")
        span.end()
        first = span.event_offset("first")
        assert 0.0 <= first <= span.event_offset("second")
        assert span.event_offset("missing") is None
        assert span.event_offset("missing", 7.0) == 7.0

    def test_to_json_carries_the_full_span(self):
        span = Span("s", context=SpanContext(TRACE, SPAN),
                    parent_id="a" * 16, service="svc",
                    attributes={"k": 1})
        span.add_event("retry", attempt=2)
        span.set_status("error", "bad")
        span.end()
        doc = span.to_json()
        assert doc["name"] == "s"
        assert doc["trace_id"] == TRACE
        assert doc["span_id"] == SPAN
        assert doc["parent_id"] == "a" * 16
        assert doc["service"] == "svc"
        assert doc["status"] == "error"
        assert doc["status_message"] == "bad"
        assert doc["attributes"] == {"k": 1}
        assert doc["events"][0]["name"] == "retry"
        assert doc["events"][0]["attributes"] == {"attempt": 2}
        json.dumps(doc)  # must be JSON-serialisable as-is


# ----------------------------------------------------------------------
# collection: SpanCollector + TraceStore
# ----------------------------------------------------------------------
def _doc(name="s", trace=TRACE, span=None, parent=None, service="svc",
         start=1000.0, duration=0.5, **extra):
    doc = {
        "name": name,
        "trace_id": trace,
        "span_id": span if span is not None else new_span_id(),
        "parent_id": parent,
        "service": service,
        "start_unix_s": start,
        "duration_s": duration,
        "status": "ok",
    }
    doc.update(extra)
    return doc


class TestSpanCollector:
    def test_aggregate_spans_fold_by_parent_and_name(self):
        collector = SpanCollector()
        for _ in range(3):
            collector.add_json(_doc(
                name="pipeline.fixpoint", parent=SPAN, aggregate=True,
                count=1, duration=0.25, attributes={"hits": 2},
            ))
        spans = collector.drain()
        assert len(spans) == 1
        folded = spans[0]
        assert folded["count"] == 3
        assert folded["duration_s"] == pytest.approx(0.75)
        assert folded["attributes"]["hits"] == 6

    def test_plain_spans_append_until_the_limit(self):
        collector = SpanCollector(limit=2)
        for _ in range(4):
            collector.add_json(_doc())
        assert len(collector.drain()) == 2
        assert collector.dropped == 2

    def test_aggregates_fold_per_service(self):
        collector = SpanCollector()
        for service in ("service", "pool", "pool"):
            collector.add_json(_doc(
                name="pipeline.ipet", parent=SPAN, service=service,
                aggregate=True, count=1, duration=0.5,
            ))
        spans = collector.snapshot()
        assert {s["service"]: s["count"] for s in spans} == {
            "service": 1, "pool": 2,
        }
        assert len(collector.drain()) == 2

    def test_snapshot_copies_without_draining(self):
        collector = SpanCollector()
        collector.add_json(_doc(name="kept"))
        collector.snapshot()[0]["name"] = "clobbered"
        assert collector.snapshot()[0]["name"] == "kept"
        assert collector.drain()[0]["name"] == "kept"

    def test_drain_resets_the_aggregate_index(self):
        collector = SpanCollector()
        collector.add_json(_doc(name="agg", aggregate=True, count=1))
        assert len(collector.drain()) == 1
        collector.add_json(_doc(name="agg", aggregate=True, count=1))
        assert collector.drain()[0]["count"] == 1


class TestTraceStore:
    def test_round_trips_spans_by_trace_id(self):
        store = TraceStore()
        store.add(_doc(span="a" * 16))
        store.add(_doc(trace="f" * 32, span="b" * 16))
        spans = store.get(TRACE)
        assert [s["span_id"] for s in spans] == ["a" * 16]
        assert store.get("f" * 32)[0]["span_id"] == "b" * 16
        assert store.get("0" * 32) is None
        assert set(store.trace_ids()) == {TRACE, "f" * 32}

    def test_returned_spans_are_copies(self):
        store = TraceStore()
        store.add(_doc(span="a" * 16))
        store.get(TRACE)[0]["name"] = "clobbered"
        assert store.get(TRACE)[0]["name"] == "s"

    def test_aggregates_fold_within_a_trace(self):
        store = TraceStore()
        for _ in range(2):
            store.add(_doc(name="pipeline.acfg", parent=SPAN,
                           aggregate=True, count=1, duration=0.1))
        spans = store.get(TRACE)
        assert len(spans) == 1
        assert spans[0]["count"] == 2
        assert spans[0]["duration_s"] == pytest.approx(0.2)

    def test_aggregates_of_two_services_stay_apart(self):
        store = TraceStore()
        for service in ("service", "pool", "pool"):
            store.add(_doc(name="pipeline.acfg", parent=SPAN,
                           service=service, aggregate=True, count=1))
        spans = store.get(TRACE)
        assert {s["service"]: s["count"] for s in spans} == {
            "service": 1, "pool": 2,
        }

    def test_ring_evicts_the_oldest_trace(self):
        store = TraceStore(max_traces=2)
        first, second, third = ("1" * 32), ("2" * 32), ("3" * 32)
        for trace in (first, second, third):
            store.add(_doc(trace=trace))
        assert store.get(first) is None
        assert store.get(second) is not None
        assert store.get(third) is not None

    def test_span_cap_bounds_one_trace(self):
        store = TraceStore(max_spans=3)
        for _ in range(5):
            store.add(_doc())
        assert len(store.get(TRACE)) == 3
        assert store.stats()["dropped"] == 2

    def test_sink_adapts_span_objects(self):
        store = TraceStore()
        span = Span("s", context=SpanContext(TRACE, SPAN), service="svc")
        span.end()
        store.sink(span)
        assert store.get(TRACE)[0]["name"] == "s"


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _tiny_trace(self):
        root = _doc(name="http POST /v1/jobs", span="a" * 16,
                    service="service", start=100.0, duration=2.0)
        child = _doc(name="job", span="b" * 16,
                     parent="a" * 16, service="service",
                     start=100.5, duration=1.0,
                     events=[{"name": "retry", "offset_s": 0.25,
                              "attributes": {"attempt": 2}}])
        remote = _doc(name="pool.execute", span="c" * 16,
                      parent="b" * 16, service="pool",
                      start=100.6, duration=0.8)
        return [root, child, remote]

    def test_chrome_trace_shape_and_units(self):
        doc = to_chrome_trace(self._tiny_trace())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in meta} == {"service", "pool"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        root = next(e for e in complete if e["name"] == "http POST /v1/jobs")
        assert root["ts"] == pytest.approx(100.0 * 1e6)
        assert root["dur"] == pytest.approx(2.0 * 1e6)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "retry"
        assert instants[0]["ts"] == pytest.approx((100.5 + 0.25) * 1e6)
        json.dumps(doc)  # a valid JSON document end to end

    def test_services_get_distinct_pids_and_children_share_lanes(self):
        doc = to_chrome_trace(self._tiny_trace())
        complete = {e["name"]: e for e in doc["traceEvents"]
                    if e["ph"] == "X"}
        assert (complete["http POST /v1/jobs"]["pid"]
                != complete["pool.execute"]["pid"])
        assert (complete["job"]["tid"]
                == complete["http POST /v1/jobs"]["tid"])

    def test_overlapping_roots_take_separate_lanes(self):
        a = _doc(name="a", span="a" * 16, start=10.0, duration=5.0)
        b = _doc(name="b", span="b" * 16, start=12.0, duration=5.0)
        c = _doc(name="c", span="c" * 16, start=20.0, duration=1.0)
        complete = {e["name"]: e
                    for e in to_chrome_trace([a, b, c])["traceEvents"]
                    if e["ph"] == "X"}
        assert complete["a"]["tid"] != complete["b"]["tid"]
        assert complete["c"]["tid"] == complete["a"]["tid"]  # reused

    def test_span_tree_renders_nesting_and_annotations(self):
        tree = render_span_tree(self._tiny_trace())
        lines = tree.splitlines()
        assert lines[0].startswith("http POST /v1/jobs")
        assert any(l.lstrip("|`- ").startswith("job ") and "<retry>" in l
                   for l in lines)
        job_line = next(l for l in lines if l.lstrip("|`- ").startswith("job "))
        pool_line = next(l for l in lines if "pool.execute" in l)
        assert lines.index(pool_line) > lines.index(job_line)
        assert pool_line.startswith(("   ", "|  "))  # nested deeper

    def test_sort_spans_orders_by_wall_start(self):
        spans = [_doc(name="late", start=2.0), _doc(name="early", start=1.0)]
        assert [s["name"] for s in sort_spans(spans)] == ["early", "late"]


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestStructuredLog:
    def test_log_lines_are_json_with_trace_correlation(self):
        buffer = io.StringIO()
        logger = StructuredLogger("test.logger", stream=buffer)
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        with tracer.start_span("op", root=True) as span:
            logger.info("hello", job="j1")
        record = json.loads(buffer.getvalue())
        assert record["level"] == "info"
        assert record["logger"] == "test.logger"
        assert record["msg"] == "hello"
        assert record["job"] == "j1"
        assert record["trace_id"] == span.context.trace_id
        assert record["span_id"] == span.context.span_id

    def test_level_threshold_filters_and_off_silences(self):
        buffer = io.StringIO()
        logger = StructuredLogger("test.logger", stream=buffer)
        try:
            set_level("warn")
            logger.info("dropped")
            logger.warning("kept")
            set_level("off")
            logger.error("also dropped")
        finally:
            set_level("info")
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["msg"] == "kept"

    def test_unserialisable_fields_fall_back_to_str(self):
        buffer = io.StringIO()
        logger = StructuredLogger("test.logger", stream=buffer)
        logger.info("x", obj=object())
        record = json.loads(buffer.getvalue())
        assert "object object" in record["obj"]


# ----------------------------------------------------------------------
# telemetry: span-derived histograms
# ----------------------------------------------------------------------
class TestJobSpanTelemetry:
    def _render(self, outcome, started, total):
        """``/metrics`` over one dispatched computation whose job span
        has a ``started`` event at ``started`` s and lasts ``total`` s."""
        span = Span("job", context=SpanContext(TRACE, SPAN))
        span.events.append(("started", started, {}))
        span._end_mono = span._start_mono + total
        computation = SimpleNamespace(span=span, outcome=outcome,
                                      attempts=1, result={})
        manager = SimpleNamespace(
            jobs={}, computations=[computation], rejected=0, executor=None,
            stats=lambda: {"queue_depth": 0, "inflight": 0},
        )
        return render(manager, http_requests=1, http_errors=0)

    def test_started_event_splits_wait_from_execution(self):
        for outcome in ("done", "failed"):
            text = self._render(outcome, started=2.0, total=5.0)
            assert "job_queue_wait_seconds_count 1" in text
            assert "job_execution_seconds_count 1" in text
            assert "job_queue_wait_seconds_sum 2" in text
            assert "job_execution_seconds_sum 3" in text
            assert "job_latency_seconds_count 1" in text
            assert "job_latency_seconds_sum 5" in text

    def test_cancelled_computation_is_not_observed(self):
        text = self._render(None, started=1.0, total=3.0)
        assert "computations 1" in text
        assert "job_queue_wait_seconds_count 0" in text
        assert "job_execution_seconds_count 0" in text
        assert "job_latency_seconds_count 0" in text


# ----------------------------------------------------------------------
# service integration: one traced job end to end
# ----------------------------------------------------------------------
class TestServiceTraces:
    def test_unknown_trace_is_404(self):
        from repro.errors import ServiceError

        with BackgroundServer() as server:
            client = ServiceClient(server.host, server.port, max_retries=0)
            with pytest.raises(ServiceError) as info:
                client.trace("f" * 32)
            assert info.value.status == 404

    def test_traced_job_is_retrievable_and_exportable(self, tmp_path):
        trace_id = new_trace_id()
        traceparent = format_traceparent(
            SpanContext(trace_id, new_span_id(), True)
        )
        with BackgroundServer(cache_dir=tmp_path, workers=1) as server:
            client = ServiceClient(server.host, server.port)
            job = client.submit("optimize", program="bs", config="k1",
                                budget=5, traceparent=traceparent)
            client.result(job["id"], timeout=120)
            document = client.trace(trace_id)
            names = [s["name"] for s in document["spans"]]

            # submit → queue → pool → analysis, one trace id throughout.
            assert "http POST /v1/jobs" in names
            assert "job" in names
            assert "pool.execute" in names
            assert "usecase.optimize" in names
            assert any(n.startswith("pipeline.") for n in names)
            assert all(s["trace_id"] == trace_id
                       for s in document["spans"])

            # Pipeline stages aggregate instead of exploding: at most
            # one span per stage name under each parent, however many
            # hundred times the stage actually ran.
            stages = [(s["parent_id"], s["name"])
                      for s in document["spans"]
                      if s["name"].startswith("pipeline.")]
            assert len(stages) == len(set(stages))
            assert all(s.get("aggregate") for s in document["spans"]
                       if s["name"].startswith("pipeline."))

            # The job span also fed the latency histograms.
            metrics = client.metrics()
            assert "job_queue_wait_seconds_count 1" in metrics
            assert "job_execution_seconds_count 1" in metrics
            assert "job_latency_seconds_count 1" in metrics

            # Export is a loadable Chrome-trace document.
            chrome = to_chrome_trace(document["spans"])
            json.dumps(chrome)
            assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_untraced_requests_record_nothing(self, tmp_path):
        with BackgroundServer(cache_dir=tmp_path, workers=1,
                              trace_sample=0.0) as server:
            client = ServiceClient(server.host, server.port)
            client.run("optimize", program="bs", config="k1",
                       budget=5, timeout=120)
            assert server.app.traces.stats()["traces"] == 0
            # Histograms still work from timed (non-recording) spans.
            metrics = client.metrics()
            assert "job_execution_seconds_count 1" in metrics

    def test_profile_is_derived_from_stage_spans(self, tmp_path):
        """--profile shape survives the span rebuild (satellite 1)."""
        from repro.cli import main

        out = io.StringIO()
        import contextlib as _ctx
        with _ctx.redirect_stdout(out), _ctx.redirect_stderr(io.StringIO()):
            code = main(["optimize", "bs", "k1", "--budget", "5",
                         "--json", "--profile"])
        assert code == 0
        document = json.loads(out.getvalue())
        profile = document["profile"]
        assert set(profile) >= {"acfg", "fixpoint", "classify",
                                "guard", "ipet"}
        assert all(v >= 0.0 for v in profile.values())


class TestPipelineStageSpans:
    """Stage time is span time: nothing times a stage nobody traces."""

    def test_untraced_stages_are_noop_spans(self, monkeypatch):
        from repro.analysis.pipeline import AnalysisPipeline
        from repro.bench.registry import load
        from repro.experiments.usecase import UseCase, pipeline_for_usecase

        seen = []
        stage = AnalysisPipeline._stage

        def spy(self, name):
            span = stage(self, name)
            seen.append((name, span))
            return span

        monkeypatch.setattr(AnalysisPipeline, "_stage", spy)
        pipeline_for_usecase(UseCase("bs", "k1", "45nm")).analyze(load("bs"))
        assert {name for name, _span in seen} >= {
            "acfg", "fixpoint", "classify", "guard", "ipet",
        }
        assert all(span is NOOP_SPAN for _name, span in seen)

    @pytest.mark.parametrize("flags", [[], ["--refine", "--l2",
                                            "4:16:4096:10"]])
    def test_profile_keys_are_the_traced_stage_names(self, flags):
        from repro.bench.registry import load
        from repro.cache.config import TABLE2, hierarchy_for
        from repro.cli import main
        from repro.core.optimizer import OptimizerOptions, optimize
        from repro.energy.cacti import hierarchy_model
        from repro.energy.technology import technology

        out = io.StringIO()
        import contextlib as _ctx
        with _ctx.redirect_stdout(out), _ctx.redirect_stderr(io.StringIO()):
            assert main(["optimize", "bs", "k1", "--budget", "5", "--json",
                         "--profile", *flags]) == 0
        profile = json.loads(out.getvalue())["profile"]

        l2 = "4:16:4096:10" if flags else None
        config = TABLE2["k1"]
        timing = hierarchy_model(hierarchy_for(config, l2),
                                 technology("45nm")).timing
        options = OptimizerOptions(max_evaluations=5, refine=bool(flags),
                                   l2=l2)
        collector = SpanCollector()
        tracer = Tracer(sample=1.0, sink=collector.add)
        with activate_tracer(tracer), tracer.start_span("root", root=True):
            optimize(load("bs"), config, timing, options=options)
        traced = {s["name"][len("pipeline."):] for s in collector.drain()
                  if s["name"].startswith("pipeline.")}
        assert set(profile) == traced
        assert ("refine" in traced) == bool(flags)


class TestOverheadBenchSpanCount:
    def test_spans_recorded_counts_every_ended_span(self, monkeypatch):
        """The tracing-overhead bench reports the spans a traced
        ``optimize`` ended, not the collector's folded documents."""
        import importlib.util
        from pathlib import Path

        path = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "bench_obs_overhead.py")
        spec = importlib.util.spec_from_file_location("bench_obs", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)

        ended = []

        class CountingCollector(SpanCollector):
            def add(self, span):
                ended.append(span.name)
                super().add(span)

        monkeypatch.setattr(bench, "SpanCollector", CountingCollector)
        _, spans = bench._run_traced(budget=5)
        assert spans == len(ended)
        # aggregate stage spans fold, so the documents are far fewer
        assert len(set(ended)) < spans
