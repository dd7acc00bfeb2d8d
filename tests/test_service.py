"""Tests for the analysis service (``repro serve``).

Four layers:

* protocol — payload validation, canonicalisation, fingerprints;
* telemetry — the ``/metrics`` fold over one scripted job history, its
  exposition contract, and the ``Retry-After`` hint;
* queue semantics over a real socket with a hand-controlled stub
  executor — coalescing, 429 backpressure, cancellation, timeout
  (deterministic: the test resolves the futures);
* end-to-end with the real pool — submit → poll → fetch, the disk-cache
  fast path, and ``/metrics`` counter consistency.
"""

from __future__ import annotations

import concurrent.futures
import json
from concurrent.futures.process import BrokenProcessPool
import time
import urllib.error
import urllib.request
from types import SimpleNamespace
from typing import List, Tuple

import pytest

from repro.cli import main
from repro.errors import ProtocolError, ServiceError
from repro.obs.trace import Span
from repro.service.app import BackgroundServer
from repro.service.client import ServiceClient, backoff_delay
from repro.service.executor import AnalysisExecutor
from repro.service.protocol import parse_job
from repro.service.telemetry import render, retry_after_hint


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    """Keep the environment from injecting caches, workers or caps."""
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)


class ManualExecutor:
    """A backend whose futures the test resolves by hand."""

    workers = 1

    def __init__(self):
        self.submitted: List[Tuple[object, concurrent.futures.Future]] = []

    def probe_cache(self, request):
        return None

    def submit(self, request):
        future: concurrent.futures.Future = concurrent.futures.Future()
        self.submitted.append((request, future))
        return future

    def shutdown(self):
        pass

    def describe(self):
        return {"workers": self.workers, "pool": "manual",
                "cache_dir": None, "max_cache_bytes": None}


def _metric(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    raise AssertionError(f"metric {name!r} not found in:\n{text}")


def _until(predicate, timeout=10.0):
    """Block until ``predicate()`` holds (server state, no HTTP)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition never held")
        time.sleep(0.005)


def _wait_for_state(client, job_id, state, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = client.status(job_id)
        if record["state"] == state:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {state!r}")


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_defaults_are_normalised_into_the_fingerprint(self):
        sparse = parse_job({"kind": "optimize",
                            "params": {"program": "bs", "config": "k1"}})
        spelled = parse_job({"kind": "optimize",
                             "params": {"program": "bs", "config": "k1",
                                        "tech": "45nm", "seed": 1,
                                        "budget": 120,
                                        "baseline": "persistence"}})
        assert sparse.params == spelled.params
        assert sparse.fingerprint() == spelled.fingerprint()

    def test_fingerprint_separates_kinds_and_params(self):
        base = parse_job({"kind": "optimize",
                          "params": {"program": "bs", "config": "k1"}})
        other_kind = parse_job({"kind": "usecase",
                                "params": {"program": "bs", "config": "k1"}})
        other_seed = parse_job({"kind": "optimize",
                                "params": {"program": "bs", "config": "k1",
                                           "seed": 2}})
        assert base.fingerprint() != other_kind.fingerprint()
        assert base.fingerprint() != other_seed.fingerprint()

    def test_table1_ids_resolve_to_program_names(self):
        req = parse_job({"kind": "optimize",
                         "params": {"program": "p2", "config": "k1"}})
        assert req.param("program") == "bs"

    def test_sweep_defaults_fill_the_documented_grid(self):
        from repro.experiments.sweep import default_grid

        req = parse_job({"kind": "sweep", "params": {}})
        grid = default_grid()
        assert req.param("programs") == grid.programs
        assert req.param("configs") == grid.config_ids
        assert req.param("techs") == grid.techs
        assert req.param("baseline") == "classic"

    @pytest.mark.parametrize("payload,needle", [
        ("not a dict", "JSON object"),
        ({"kind": "frobnicate", "params": {}}, "kind"),
        ({"kind": "optimize", "params": {"program": "nope",
                                         "config": "k1"}}, "params.program"),
        ({"kind": "optimize", "params": {"program": "bs",
                                         "config": "zz"}}, "params.config"),
        ({"kind": "optimize", "params": {"program": "bs", "config": "k1",
                                         "tech": "90nm"}}, "params.tech"),
        ({"kind": "optimize", "params": {"program": "bs", "config": "k1",
                                         "budget": -1}}, "params.budget"),
        ({"kind": "optimize", "params": {"program": "bs", "config": "k1",
                                         "typo": 1}}, "unknown field"),
        ({"kind": "sweep", "params": {"programs": []}}, "params.programs"),
    ])
    def test_violations_name_the_offending_field(self, payload, needle):
        with pytest.raises(ProtocolError, match=needle):
            parse_job(payload)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class RecoveringExecutor(ManualExecutor):
    """A manual backend with a disk cache for budget 99 and a
    ``recover()`` that falls back without rebuilding a pool."""

    pool_rebuilds = 0

    def __init__(self):
        super().__init__()
        self.recovered = 0

    def probe_cache(self, request):
        return {"cached": True} if request.param("budget") == 99 else None

    def recover(self):
        self.recovered += 1

    def describe(self):
        return dict(super().describe(), pool_rebuilds=self.pool_rebuilds)


#: The HELP/TYPE block of ``/metrics``: the exposition contract, names
#: and order included.
_EXPOSITION_HEADERS = """\
# HELP jobs_submitted Jobs accepted via POST /v1/jobs
# TYPE jobs_submitted counter
# HELP jobs_completed Jobs that reached the DONE state
# TYPE jobs_completed counter
# HELP jobs_failed Jobs that errored or timed out
# TYPE jobs_failed counter
# HELP jobs_cancelled Jobs cancelled via DELETE /v1/jobs/<id>
# TYPE jobs_cancelled counter
# HELP jobs_coalesced Jobs coalesced onto an in-flight computation
# TYPE jobs_coalesced counter
# HELP jobs_rejected Submissions rejected with 429 (queue full)
# TYPE jobs_rejected counter
# HELP cache_hits Jobs served from the persistent disk cache
# TYPE cache_hits counter
# HELP computations Payloads dispatched to the worker pool
# TYPE computations counter
# HELP http_requests HTTP requests served
# TYPE http_requests counter
# HELP http_errors HTTP responses with status >= 400
# TYPE http_errors counter
# HELP job_latency_seconds End-to-end job latency (queue wait + execution)
# TYPE job_latency_seconds histogram
# HELP job_queue_wait_seconds Time between job acceptance and dispatch to the pool
# TYPE job_queue_wait_seconds histogram
# HELP job_execution_seconds Time between pool dispatch and job completion
# TYPE job_execution_seconds histogram
# HELP queue_depth Current job-queue occupancy
# TYPE queue_depth gauge
# HELP jobs_inflight Computations currently queued or running
# TYPE jobs_inflight gauge
# HELP pipeline_stage_hits Analysis-pipeline stage products reused from a handed-over analysis across completed jobs
# TYPE pipeline_stage_hits counter
# HELP pipeline_stage_misses Analysis-pipeline stage computations across completed jobs
# TYPE pipeline_stage_misses counter
# HELP pipeline_delta_runs Delta (warm-start) re-analyses
# TYPE pipeline_delta_runs counter
# HELP pipeline_delta_fallbacks Delta re-analyses that fell back to a cold run
# TYPE pipeline_delta_fallbacks counter
# HELP pipeline_invalidations Pipeline memo clears and kernel block-universe rebuilds
# TYPE pipeline_invalidations counter
# HELP job_retries Computations retried after a transient pool failure
# TYPE job_retries counter
# HELP pool_rebuilds Broken process pools replaced
# TYPE pool_rebuilds counter
# HELP sweep_case_failures Use cases failed permanently inside completed sweep jobs
# TYPE sweep_case_failures counter
# HELP sweep_case_retries Per-use-case transient retries inside completed sweep jobs
# TYPE sweep_case_retries counter"""

_BUCKET_BOUNDS = ("0.001", "0.005", "0.01", "0.05", "0.1", "0.25", "0.5",
                  "1", "2.5", "5", "10", "30", "60", "120", "300", "+Inf")


def _samples(text: str):
    """Sample lines of an exposition as ``{name[{le=...}]: value}``, in
    exposition order."""
    return {
        line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in text.splitlines() if line and not line.startswith("#")
    }


def _expected_sample_names():
    names = []
    for line in _EXPOSITION_HEADERS.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            if kind == "histogram":
                names += [f'{name}_bucket{{le="{b}"}}' for b in _BUCKET_BOUNDS]
                names += [f"{name}_sum", f"{name}_count"]
            else:
                names.append(name)
    return names


def _computation(outcome, seconds, attempts=1, wait=0.002):
    """A finished computation whose job span lasted ``seconds``, of
    which ``wait`` before its ``started`` event."""
    span = Span("job")
    span.events.append(("started", wait, {}))
    span._end_mono = span._start_mono + seconds
    return SimpleNamespace(outcome=outcome, span=span, attempts=attempts,
                           result=None)


class TestTelemetry:
    def test_scripted_history_folds_into_every_metric(self):
        """One job history covering every metric: a coalesced pair that
        survives a transient pool failure, a 429, a cache hit, a
        permanent failure, a sweep with partial failures, a cancel."""
        stub = RecoveringExecutor()
        # ``result_hits`` as a record cached by an older release still
        # carries it: the whole-result cache is gone and it is not folded.
        pipeline = {"structural_hits": 3, "dataflow_hits": 2,
                    "result_hits": 1, "structural_misses": 4,
                    "dataflow_misses": 5, "delta_runs": 6,
                    "delta_fallbacks": 1, "invalidations": 2}
        sweep_doc = {"metrics": {"failed": 2, "retries": 3, "pipeline": {
            "structural_hits": 10, "structural_misses": 1,
            "delta_runs": 2}}}
        with BackgroundServer(executor=stub, max_queue=1,
                              dispatchers=1) as server:
            manager = server.app.manager
            client = ServiceClient(server.host, server.port, max_retries=0)

            def submit(budget, kind="optimize"):
                if kind == "sweep":
                    return client.submit("sweep", programs=["bs"],
                                         configs=["k1"], budget=budget)
                return client.submit(kind, program="bs", config="k1",
                                     budget=budget)

            def state(job):
                return manager.jobs[job["id"]].state

            pair = [submit(11), submit(11)]
            _until(lambda: len(stub.submitted) == 1)
            failing = submit(12)  # takes the single queue slot
            with pytest.raises(ServiceError) as info:
                submit(13)
            assert info.value.status == 429
            assert info.value.retry_after == 1  # nothing finished yet
            assert submit(99)["cached"]
            stub.submitted[0][1].set_exception(BrokenProcessPool("died"))
            _until(lambda: len(stub.submitted) == 2)
            stub.submitted[1][1].set_result({"report": {"pipeline": pipeline}})
            _until(lambda: len(stub.submitted) == 3)
            stub.submitted[2][1].set_exception(ValueError("bad input"))
            _until(lambda: state(failing) == "failed")
            sweep = submit(5, kind="sweep")
            _until(lambda: len(stub.submitted) == 4)
            stub.submitted[3][1].set_result(sweep_doc)
            _until(lambda: state(sweep) == "done")
            cancelled = submit(14)
            _until(lambda: len(stub.submitted) == 5)
            client.cancel(cancelled["id"])
            _until(lambda: manager.stats()["inflight"] == 0)
            assert [state(job) for job in pair] == ["done", "done"]

            text = client.metrics()
            health = client.health()

        assert "\n".join(
            line for line in text.splitlines() if line.startswith("#")
        ) == _EXPOSITION_HEADERS
        samples = _samples(text)
        assert list(samples) == _expected_sample_names()
        histograms = ("job_latency_seconds", "job_queue_wait_seconds",
                      "job_execution_seconds")
        assert {name: value for name, value in samples.items()
                if not name.startswith(histograms)} == {
            "jobs_submitted": 6,  # accepted only: the 429 is not
            "jobs_completed": 4,
            "jobs_failed": 1,
            "jobs_cancelled": 1,
            "jobs_coalesced": 1,
            "jobs_rejected": 1,
            "cache_hits": 1,
            "computations": 4,
            "http_requests": 9,  # 7 submits, 1 cancel, this scrape
            "http_errors": 1,
            "queue_depth": 0,
            "jobs_inflight": 0,
            "pipeline_stage_hits": 15,
            "pipeline_stage_misses": 10,
            "pipeline_delta_runs": 8,
            "pipeline_delta_fallbacks": 1,
            "pipeline_invalidations": 2,
            "job_retries": 1,
            "pool_rebuilds": 0,
            "sweep_case_failures": 2,
            "sweep_case_retries": 3,
        }
        # recover() ran but rebuilt nothing: both endpoints say 0
        assert stub.recovered == 1
        assert health["executor"]["pool_rebuilds"] == 0
        # the pair's computation, the failure and the sweep; the cancel
        # and the cache hit stay out
        for name in histograms:
            buckets = [samples[f'{name}_bucket{{le="{b}"}}']
                       for b in _BUCKET_BOUNDS]
            assert buckets == sorted(buckets)  # cumulative
            assert buckets[-1] == samples[f"{name}_count"] == 3
        # the pair's computation spans its 0.25 s retry backoff
        assert samples["job_latency_seconds_sum"] >= 0.25

    def test_counter_and_gauge_rendering(self):
        """Counters and gauges fold straight from a hand-built job
        table, with their HELP/TYPE lines."""
        def job(state, coalesced=False, cached=False):
            return SimpleNamespace(state=state, coalesced=coalesced,
                                   cached=cached)

        manager = SimpleNamespace(
            jobs={"a": job("done"), "b": job("done", coalesced=True),
                  "c": job("done", cached=True), "d": job("failed"),
                  "e": job("cancelled"), "f": job("queued")},
            computations=[_computation("done", 0.3, attempts=3)],
            rejected=2,
            stats=lambda: {"queue_depth": 5, "inflight": 4},
            executor=SimpleNamespace(pool_rebuilds=1),
        )
        text = render(manager, http_requests=7, http_errors=3)
        assert "# TYPE jobs_submitted counter" in text
        assert "# HELP jobs_submitted Jobs accepted via POST /v1/jobs" in text
        assert "# TYPE queue_depth gauge" in text
        assert "# HELP queue_depth Current job-queue occupancy" in text
        assert {name: _metric(text, name) for name in (
            "jobs_submitted", "jobs_completed", "jobs_failed",
            "jobs_cancelled", "jobs_coalesced", "jobs_rejected",
            "cache_hits", "computations", "http_requests", "http_errors",
            "queue_depth", "jobs_inflight", "job_retries", "pool_rebuilds",
        )} == {
            "jobs_submitted": 6, "jobs_completed": 3, "jobs_failed": 1,
            "jobs_cancelled": 1, "jobs_coalesced": 1, "jobs_rejected": 2,
            "cache_hits": 1, "computations": 1, "http_requests": 7,
            "http_errors": 3, "queue_depth": 5, "jobs_inflight": 4,
            "job_retries": 2, "pool_rebuilds": 1,
        }

    def test_histogram_buckets_are_cumulative(self):
        """Latencies land in cumulative buckets; a cancelled computation
        (no outcome) stays out."""
        manager = SimpleNamespace(
            jobs={},
            computations=[
                _computation("done", 0.03), _computation("failed", 0.3),
                _computation("done", 3.0), _computation("done", 45.0),
                _computation(None, 100.0),
            ],
            rejected=0,
            stats=lambda: {"queue_depth": 0, "inflight": 0},
            executor=SimpleNamespace(),
        )
        text = render(manager, http_requests=0, http_errors=0)
        samples = _samples(text)
        latency = [samples[f'job_latency_seconds_bucket{{le="{b}"}}']
                   for b in _BUCKET_BOUNDS]
        assert latency == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4]
        assert samples["job_latency_seconds_count"] == 4
        assert samples["job_latency_seconds_sum"] == pytest.approx(48.33)
        # every computation waited 2 ms in the queue before it started
        wait = [samples[f'job_queue_wait_seconds_bucket{{le="{b}"}}']
                for b in _BUCKET_BOUNDS]
        assert wait == [0] + [4] * 15
        assert samples["job_queue_wait_seconds_sum"] == pytest.approx(0.008)
        assert samples["job_execution_seconds_sum"] == pytest.approx(48.322)

    def test_retry_after_hint_tracks_latency(self):
        def computation(outcome, seconds):
            span = Span("job")
            span.add_event("started")
            span._end_mono = span._start_mono + seconds
            return SimpleNamespace(outcome=outcome, span=span)

        assert retry_after_hint([]) == 1  # no data -> 1s default
        assert retry_after_hint([computation("done", 7.0)]) == 7
        # failures count, cancelled computations (no outcome) do not
        assert retry_after_hint([
            computation("done", 2.0), computation("failed", 5.5),
            computation(None, 100.0),
        ]) == 4


# ----------------------------------------------------------------------
# client-side backoff
# ----------------------------------------------------------------------
class TestClientBackoff:
    def test_backoff_envelope_is_exponential_and_capped(self):
        # rng=1.0 pins the jitter to its upper envelope: the old
        # deterministic schedule.
        one = lambda: 1.0
        delays = [backoff_delay(i, base=0.1, cap=2.0, rng=one)
                  for i in range(8)]
        assert delays[:5] == [0.1, 0.2, 0.4, 0.8, 1.6]
        assert delays[5:] == [2.0, 2.0, 2.0]

    def test_backoff_is_jittered_within_the_envelope(self):
        # Default rng: every delay lands in [0, envelope); clients
        # retrying in unison must not produce identical schedules.
        for attempt in range(8):
            envelope = backoff_delay(attempt, base=0.1, cap=2.0,
                                     rng=lambda: 1.0)
            samples = [backoff_delay(attempt, base=0.1, cap=2.0)
                       for _ in range(50)]
            assert all(0.0 <= s <= envelope for s in samples)
            assert len(set(samples)) > 1  # actually random

    def test_retry_after_equal_jitter_stays_within_the_hint(self):
        from repro.service.client import retry_after_delay

        assert retry_after_delay(3.0, rng=lambda: 1.0) == 3.0
        assert retry_after_delay(3.0, rng=lambda: 0.0) == 1.5
        samples = [retry_after_delay(3.0) for _ in range(50)]
        assert all(1.5 <= s <= 3.0 for s in samples)

    def test_retries_on_429_then_succeeds(self, monkeypatch):
        slept = []
        client = ServiceClient("127.0.0.1", 1, max_retries=5,
                               sleep=slept.append, rng=lambda: 1.0)
        responses = iter([
            (429, {"retry-after": "3"}, {"error": "full"}),
            (429, {}, {"error": "full"}),
            (202, {}, {"job": {"id": "j1"}}),
        ])
        monkeypatch.setattr(client, "_once",
                            lambda method, path, body=None: next(responses))
        job = client.submit("optimize", program="bs", config="k1")
        assert job["id"] == "j1"
        # first delay honoured the server's Retry-After (equal jitter,
        # rng=1.0 -> exactly the hint), second fell back to the
        # exponential schedule
        assert slept == [3.0, backoff_delay(1, 0.1, 2.0, rng=lambda: 1.0)]

    def test_exhausted_retries_surface_the_status(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, max_retries=1,
                               sleep=lambda s: None)
        monkeypatch.setattr(
            client, "_once",
            lambda method, path, body=None: (429, {"retry-after": "2"},
                                             {"error": "full"}))
        with pytest.raises(ServiceError) as info:
            client.submit("optimize", program="bs", config="k1")
        assert info.value.status == 429
        assert info.value.retry_after == 2.0


# ----------------------------------------------------------------------
# queue semantics over a real socket (hand-controlled backend)
# ----------------------------------------------------------------------
class TestQueueSemantics:
    def test_identical_submissions_coalesce_to_one_computation(self):
        stub = ManualExecutor()
        with BackgroundServer(executor=stub) as server:
            client = ServiceClient(server.host, server.port)
            first = client.submit("optimize", program="bs", config="k1",
                                  budget=7)
            second = client.submit("optimize", program="bs", config="k1",
                                   budget=7)
            assert not first["coalesced"]
            assert second["coalesced"]
            # one underlying computation for two jobs
            deadline = time.monotonic() + 5
            while not stub.submitted and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(stub.submitted) == 1
            stub.submitted[0][1].set_result({"answer": 42})
            for record in (first, second):
                result = client.result(record["id"], timeout=10)
                assert result == {"answer": 42}
            metrics = client.metrics()
            assert _metric(metrics, "jobs_submitted") == 2
            assert _metric(metrics, "jobs_coalesced") == 1
            assert _metric(metrics, "jobs_completed") == 2
            assert _metric(metrics, "computations") == 1
            # still exactly one dispatch after both results were fetched
            assert len(stub.submitted) == 1

    def test_full_queue_returns_429_with_retry_after(self):
        stub = ManualExecutor()
        with BackgroundServer(executor=stub, max_queue=1,
                              dispatchers=1) as server:
            client = ServiceClient(server.host, server.port)
            # occupy the single dispatcher...
            running = client.submit("optimize", program="bs", config="k1",
                                    budget=11)
            _wait_for_state(client, running["id"], "running")
            # ...fill the single queue slot...
            client.submit("optimize", program="bs", config="k1", budget=12)
            # ...and watch the third distinct submission bounce.
            with pytest.raises(ServiceError) as info:
                client.submit("optimize", program="bs", config="k1",
                              budget=13, max_retries=0)
            assert info.value.status == 429
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 1
            assert _metric(client.metrics(), "jobs_rejected") == 1
            # once idle, every accepted job is accounted for; the
            # rejected one never was accepted
            stub.submitted[0][1].set_result({"answer": 1})
            _until(lambda: len(stub.submitted) == 2)
            stub.submitted[1][1].set_result({"answer": 2})
            _until(lambda: server.app.manager.stats()["inflight"] == 0)
            metrics = client.metrics()
            assert _metric(metrics, "jobs_submitted") == 2
            assert _metric(metrics, "jobs_submitted") == (
                _metric(metrics, "jobs_completed")
                + _metric(metrics, "jobs_failed")
                + _metric(metrics, "jobs_cancelled")
            )

    def test_cancellation_mid_job(self):
        stub = ManualExecutor()
        with BackgroundServer(executor=stub) as server:
            client = ServiceClient(server.host, server.port)
            job = client.submit("optimize", program="bs", config="k1",
                                budget=9)
            _wait_for_state(client, job["id"], "running")
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            # the result endpoint reports Gone
            with pytest.raises(ServiceError) as info:
                client.result(job["id"], timeout=5)
            assert info.value.status == 410
            # the last detaching job cancelled the pool future itself
            assert stub.submitted
            future = stub.submitted[0][1]
            assert future.cancelled()
            time.sleep(0.1)
            assert client.status(job["id"])["state"] == "cancelled"
            # cancelling a terminal job is a conflict
            with pytest.raises(ServiceError) as info:
                client.cancel(job["id"])
            assert info.value.status == 409
            assert _metric(client.metrics(), "jobs_cancelled") == 1
            # the dispatcher survived the cancelled pool future
            follow_up = client.submit("optimize", program="bs", config="k1",
                                      budget=10)
            _until(lambda: len(stub.submitted) == 2)
            stub.submitted[1][1].set_result({"answer": 3})
            assert client.result(follow_up["id"], timeout=10) == {"answer": 3}

    def test_job_timeout_fails_the_job(self):
        stub = ManualExecutor()
        with BackgroundServer(executor=stub,
                              job_timeout_s=0.2) as server:
            client = ServiceClient(server.host, server.port)
            job = client.submit("optimize", program="bs", config="k1",
                                budget=8)
            record = _wait_for_state(client, job["id"], "failed")
            assert "timed out" in record["error"]
            # the structured failure record travels with the job
            assert record["failure"]["error_type"] == "TimeoutError"
            assert record["failure"]["transient"] is True
            assert record["failure"]["attempts"] == 1
            # the abandoned pool future is cancelled
            _until(lambda: stub.submitted[0][1].cancelled())
            with pytest.raises(ServiceError) as info:
                client.result(job["id"], timeout=5)
            assert info.value.status == 500
            metrics = client.metrics()
            assert _metric(metrics, "jobs_failed") == 1
            # a timed-out computation is observed like a done one
            assert _metric(metrics, "job_execution_seconds_count") == 1
            assert _metric(metrics, "job_latency_seconds_sum") >= 0.2

    def test_transient_executor_failure_is_retried(self):
        """A broken pool fails the first attempt; the manager resubmits
        after backoff and the second attempt's result completes the job."""
        stub = ManualExecutor()
        with BackgroundServer(executor=stub) as server:
            client = ServiceClient(server.host, server.port)
            job = client.submit("optimize", program="bs", config="k1",
                                budget=21)
            deadline = time.monotonic() + 5
            while not stub.submitted and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(stub.submitted) == 1
            stub.submitted[0][1].set_exception(
                BrokenProcessPool("worker died")
            )
            # the retry resubmits to the same (recover-less) executor
            while len(stub.submitted) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(stub.submitted) == 2
            stub.submitted[1][1].set_result({"answer": 7})
            assert client.result(job["id"], timeout=10) == {"answer": 7}
            metrics = client.metrics()
            assert _metric(metrics, "job_retries") == 1
            # ManualExecutor has no recover(): nothing was rebuilt
            assert _metric(metrics, "pool_rebuilds") == 0
            assert _metric(metrics, "jobs_completed") == 1
            assert _metric(metrics, "jobs_failed") == 0

    def test_permanent_executor_failure_is_not_retried(self):
        stub = ManualExecutor()
        with BackgroundServer(executor=stub) as server:
            client = ServiceClient(server.host, server.port)
            job = client.submit("optimize", program="bs", config="k1",
                                budget=22)
            deadline = time.monotonic() + 5
            while not stub.submitted and time.monotonic() < deadline:
                time.sleep(0.01)
            stub.submitted[0][1].set_exception(ValueError("bad input"))
            record = _wait_for_state(client, job["id"], "failed")
            assert record["failure"]["error_type"] == "ValueError"
            assert record["failure"]["transient"] is False
            assert record["failure"]["attempts"] == 1
            # deterministic failures burn exactly one attempt
            assert len(stub.submitted) == 1
            assert _metric(client.metrics(), "job_retries") == 0

    def test_http_error_mapping(self):
        stub = ManualExecutor()
        with BackgroundServer(executor=stub) as server:
            base = server.url

            def status_of(method, path, data=None):
                request = urllib.request.Request(
                    base + path, data=data, method=method
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as resp:
                        return resp.status
                except urllib.error.HTTPError as error:
                    return error.code

            assert status_of("POST", "/v1/jobs", b"{not json") == 400
            assert status_of("POST", "/v1/jobs",
                             json.dumps({"kind": "bad"}).encode()) == 400
            assert status_of("GET", "/v1/jobs/unknown") == 404
            assert status_of("GET", "/v1/results/unknown") == 404
            assert status_of("DELETE", "/v1/jobs/unknown") == 404
            assert status_of("GET", "/v1/jobs") == 405
            assert status_of("GET", "/nope") == 404
            assert status_of("GET", "/healthz") == 200


# ----------------------------------------------------------------------
# executor recovery
# ----------------------------------------------------------------------
class TestExecutorRecovery:
    def test_recover_rebuilds_a_fresh_process_pool(self, tmp_path):
        executor = AnalysisExecutor(workers=1, cache_dir=tmp_path / "cache")
        try:
            before = executor._ensure_pool()
            if not executor._pool_is_processes:
                pytest.skip("platform cannot run a process pool")
            rebuilt = executor.recover()
            assert rebuilt is not before
            assert executor.pool_rebuilds == 1
            facts = executor.describe()
            assert facts["pool"] == "processes"
            assert facts["pool_rebuilds"] == 1
            # the rebuilt pool still computes
            future = rebuilt.submit(int, "7")
            assert future.result(timeout=60) == 7
        finally:
            executor.shutdown()

    def test_env_pool_size_is_not_clamped_to_the_cpu_count(
        self, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        executor = AnalysisExecutor(cache_dir="off")
        assert executor.workers == 4
        assert executor.describe()["pool"] == "none"  # nothing started


# ----------------------------------------------------------------------
# end-to-end with the real compute pool
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_submit_poll_fetch_cache_and_metrics(self, tmp_path):
        executor = AnalysisExecutor(workers=2, cache_dir=tmp_path / "cache")
        with BackgroundServer(executor=executor) as server:
            client = ServiceClient(server.host, server.port)
            health = client.health()
            assert health["status"] == "ok"
            assert health["executor"]["workers"] == 2

            job = client.submit("optimize", program="bs", config="k1",
                                budget=5)
            assert job["state"] in ("queued", "running")
            result = client.result(job["id"], timeout=120)
            assert result["program"] == "bs"
            assert result["guarantee"]["theorem1"] is True
            assert result["wcet_ratio"] <= 1.0 + 1e-9
            assert client.status(job["id"])["state"] == "done"

            # identical resubmission: served from the persistent cache,
            # bit-exactly, without touching the pool again
            rerun = client.submit("optimize", program="bs", config="k1",
                                  budget=5)
            assert rerun["cached"]
            assert rerun["state"] == "done"
            assert client.result(rerun["id"], timeout=10) == result

            metrics = client.metrics()
            assert _metric(metrics, "jobs_submitted") == 2
            assert _metric(metrics, "jobs_completed") == 2
            assert _metric(metrics, "cache_hits") == 1
            assert _metric(metrics, "computations") == 1
            assert _metric(metrics, "job_latency_seconds_count") == 1
            assert _metric(metrics, "http_requests") >= 6

    def test_usecase_job_round_trips_the_full_document(self, tmp_path):
        executor = AnalysisExecutor(workers=1, cache_dir=tmp_path / "cache")
        with BackgroundServer(executor=executor) as server:
            client = ServiceClient(server.host, server.port)
            result = client.run("usecase", program="bs", config="k1",
                                budget=5, timeout=120)
            assert result["usecase"] == ["bs", "k1", "45nm"]
            assert set(result["ratios"]) == {
                "wcet", "acet", "energy", "energy_paper_mode", "instructions"
            }

    def test_small_sweep_job(self, tmp_path):
        executor = AnalysisExecutor(workers=1, cache_dir=tmp_path / "cache")
        with BackgroundServer(executor=executor) as server:
            client = ServiceClient(server.host, server.port)
            result = client.run("sweep", programs=["bs"], configs=["k1"],
                                techs=["45nm"], budget=5, timeout=120)
            assert result["summary"]["cases"] == 1
            assert len(result["cases"]) == 1
            assert result["cases"][0]["program"] == "bs"
            assert result["metrics"]["computed"] == 1

    @pytest.mark.slow
    def test_longer_sweep_shares_the_cli_cache(self, tmp_path):
        """A service sweep warms the same records a CLI sweep reads."""
        cache_dir = tmp_path / "cache"
        executor = AnalysisExecutor(workers=2, cache_dir=cache_dir)
        with BackgroundServer(executor=executor) as server:
            client = ServiceClient(server.host, server.port)
            result = client.run("sweep", programs=["bs", "prime"],
                                configs=["k1"], techs=["45nm"],
                                budget=10, timeout=600)
            assert result["summary"]["cases"] == 2
        # the CLI sweep over the same grid is now fully disk-served
        code = main(["sweep", "--programs", "bs", "prime",
                     "--configs", "k1", "--techs", "45nm",
                     "--budget", "10", "--workers", "1",
                     "--cache-dir", str(cache_dir), "--no-cache"])
        assert code == 0


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_self_check_boots_and_reports(self, capsys):
        assert main(["serve", "--self-check", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "self-check" in out
        assert "ok" in out
