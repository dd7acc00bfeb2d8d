"""Tracing smoke test: one trace from the client down to the pipeline.

The tracing contract in one scenario: a service runs a two-case
``sweep`` job carrying a client-generated ``traceparent``, with a
transient fault injected on one case so the sweep's retry machinery
fires inside the pool.  The single trace id must then be retrievable
from the service with spans covering the submit request → job → pool
round-trip → pipeline stages — including the retry event — and export
as valid Chrome-trace JSON.

Slow tier (CI ``tracing-smoke`` job, which uploads the exported
Chrome-trace document as a build artifact via ``REPRO_TRACE_EXPORT``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.export import render_span_tree, to_chrome_trace
from repro.obs.trace import (
    SpanContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
)
from repro.service.app import BackgroundServer
from repro.service.client import ServiceClient

GRID = dict(programs=["bs", "prime"], configs=["k1"], techs=["45nm"],
            budget=10)

#: First attempt of bs/k1/45nm raises the retriable OSError family —
#: the sweep's serial driver backs off, retries, succeeds.
TRANSIENT_ONCE = json.dumps(
    {"bs/k1/45nm": {"kind": "transient", "attempts": [1]}}
)


@pytest.mark.slow
class TestTracingSmoke:
    def test_one_trace_covers_service_pool_and_pipeline(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", TRANSIENT_ONCE)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)

        with BackgroundServer(cache_dir=tmp_path / "cache",
                              workers=1) as server:
            client = ServiceClient(server.host, server.port)

            # Head sampling at the client: we pick the trace id, the
            # service joins it.
            trace_id = new_trace_id()
            traceparent = format_traceparent(
                SpanContext(trace_id, new_span_id(), True)
            )
            job = client.submit("sweep", traceparent=traceparent, **GRID)
            document = client.result(job["id"], timeout=300.0)
            assert document["summary"]["cases"] == 2
            assert document["summary"]["failed"] == 0
            assert document["metrics"]["retries"] == 1

            trace = client.trace(trace_id)
        spans = trace["spans"]
        assert spans, "service returned an empty trace"
        assert all(s["trace_id"] == trace_id for s in spans)

        names = {s["name"] for s in spans}
        services = {s["service"] for s in spans}

        # Service side: the submit request and the job; pool side: the
        # pool round-trip and the pipeline stages under it.
        assert any(n.startswith("http POST") for n in names)
        assert "job" in names
        assert "pool.execute" in names
        assert any(n.startswith("pipeline.") for n in names)
        assert services == {"service", "pool"}

        # Every span chains back to the trace root: parent ids resolve
        # within the trace (the submit request's parent is the client's
        # synthetic root span, absent by design).
        ids = {s["span_id"] for s in spans}
        orphans = [s for s in spans
                   if s["parent_id"] and s["parent_id"] not in ids]
        assert len(orphans) <= 1, f"broken chains: {orphans}"

        # The injected transient fault shows up as a retry event.
        retried = [e for s in spans for e in s.get("events", [])
                   if e["name"] == "retry"]
        assert retried, "injected transient left no retry event"

        # The tree renders with every tier visible.
        tree = render_span_tree(spans)
        assert "pool.execute" in tree
        assert "<retry>" in tree

        # Export: a valid, loadable Chrome-trace document with one
        # process per service.  CI uploads it as an artifact.
        chrome = to_chrome_trace(spans)
        encoded = json.dumps(chrome)
        parsed = json.loads(encoded)
        assert parsed["displayTimeUnit"] == "ms"
        process_names = {e["args"]["name"]
                         for e in parsed["traceEvents"]
                         if e["ph"] == "M"}
        assert process_names == {"service", "pool"}
        assert all(e["dur"] >= 0 for e in parsed["traceEvents"]
                   if e["ph"] == "X")

        export_path = os.environ.get("REPRO_TRACE_EXPORT")
        if export_path:
            with open(export_path, "w", encoding="utf-8") as handle:
                handle.write(encoded)
