"""Tests for the sweep's failure isolation, retries and pool recovery.

The contract under test: one failing use case becomes a
:class:`FailureRecord` while every other case completes; transient
faults are retried with exponential backoff; a broken process pool is
rebuilt exactly once per break with only the lost in-flight cases
requeued; and the ``max_failures`` policy decides whether a partial
sweep raises :class:`SweepFailure`.  All scenarios are driven by the
deterministic fault-injection layer (:mod:`repro.experiments.faults`).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ConfigError, SweepFailure
from repro.experiments import faults
from repro.experiments import sweep as sweep_mod
from repro.experiments.cache import result_to_dict
from repro.experiments.faults import (
    CORRUPT_MARKER,
    FAULT_PLAN_ENV,
    FaultSpec,
    SimulatedFault,
    parse_fault_plan,
    set_fault_hook,
)
from repro.experiments.metrics import SweepMetrics
from repro.experiments.report import (
    failure_to_json,
    metrics_to_json,
    sweep_to_json,
)
from repro.experiments.sweep import FailureRecord, SweepSpec, run_sweep
from repro.obs.trace import Tracer, activate_tracer

#: Two fast programs, one config, one tech: 2 use cases per sweep.
TINY_SPEC = SweepSpec(
    programs=("bs", "prime"),
    config_ids=("k1",),
    techs=("45nm",),
    seed=1,
    max_evaluations=10,
)

#: The fault-plan key of the first grid case.
BS_KEY = "bs/k1/45nm"


def _fault_on(program: str, spec: FaultSpec):
    """A hook injecting ``spec`` for one program's use cases."""

    def hook(usecase, attempt):
        return spec if usecase.program == program else None

    return hook


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """No ambient plan/hook/caches leak into (or out of) any test."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)
    faults._cached_plan.cache_clear()
    set_fault_hook(None)
    yield
    set_fault_hook(None)
    faults._cached_plan.cache_clear()


@pytest.fixture(scope="module")
def reference_results():
    """The fault-free serial run everything is compared against."""
    return run_sweep(TINY_SPEC, use_cache=False, workers=1)


# ----------------------------------------------------------------------
# the fault-injection layer itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = parse_fault_plan(
            '{"bs/k1/45nm": {"kind": "transient", "attempts": [1, 2]},'
            ' "*": {"kind": "corrupt", "attempts": [3]}}'
        )
        assert plan[BS_KEY] == FaultSpec("transient", (1, 2))
        assert plan["*"] == FaultSpec("corrupt", (3,))
        assert plan[BS_KEY].fires_on(2)
        assert not plan[BS_KEY].fires_on(3)

    @pytest.mark.parametrize("text,needle", [
        ("{not json", "valid JSON"),
        ('["list"]', "JSON object"),
        ('{"k": "crash"}', "must be an object"),
        ('{"k": {"kind": "explode"}}', "kind"),
        ('{"k": {"kind": "crash", "attempts": []}}', "attempts"),
        ('{"k": {"kind": "crash", "attempts": [0]}}', "attempts"),
        ('{"k": {"kind": "hang"}}', "kind"),
    ])
    def test_bad_plans_raise_config_error(self, text, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_fault_plan(text)

    def test_env_plan_matches_key_then_wildcard(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_PLAN_ENV,
            '{"bs/k1/45nm": {"kind": "crash"}, "*": {"kind": "transient"}}',
        )
        cases = TINY_SPEC.usecases()
        bs = next(u for u in cases if u.program == "bs")
        prime = next(u for u in cases if u.program == "prime")
        assert faults.active_fault(bs, 1).kind == "crash"
        assert faults.active_fault(prime, 1).kind == "transient"
        assert faults.active_fault(bs, 2) is None  # attempts default [1]

    def test_hook_wins_over_env_plan(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, '{"*": {"kind": "transient"}}')
        set_fault_hook(lambda usecase, attempt: FaultSpec("crash"))
        usecase = TINY_SPEC.usecases()[0]
        assert faults.active_fault(usecase, 1).kind == "crash"

    def test_malformed_env_plan_fails_the_sweep_up_front(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, '{"*": {"kind": "explode"}}')
        attempted = []
        monkeypatch.setattr(
            sweep_mod, "_evaluate_usecase",
            lambda payload: attempted.append(payload),
        )
        metrics = SweepMetrics()
        with pytest.raises(ConfigError, match=FAULT_PLAN_ENV):
            run_sweep(TINY_SPEC, use_cache=False, workers=1,
                      metrics=metrics, max_failures=None)
        assert attempted == []
        assert metrics.failures == []

    def test_inject_before_raises_the_right_family(self):
        usecase = TINY_SPEC.usecases()[0]
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        with pytest.raises(SimulatedFault):
            faults.inject_before(usecase, 1)
        set_fault_hook(_fault_on("bs", FaultSpec("transient")))
        with pytest.raises(OSError):
            faults.inject_before(usecase, 1)


# ----------------------------------------------------------------------
# failure isolation (serial path, deterministic hook)
# ----------------------------------------------------------------------
class TestFailureIsolation:
    def test_crash_isolates_to_one_failure_record(self, reference_results):
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        metrics = SweepMetrics()
        seen = []
        results = run_sweep(
            TINY_SPEC,
            progress=lambda uc, r: seen.append(uc.program),
            use_cache=False,
            workers=1,
            metrics=metrics,
            max_failures=None,
        )
        # the other case completed, bit-identically to the reference
        assert [r.usecase.program for r in results] == ["prime"]
        assert result_to_dict(results[0]) == result_to_dict(
            reference_results[1]
        )
        # progress fired for the success only, without stalling
        assert seen == ["prime"]
        assert metrics.failed == 1
        record = metrics.failures[0]
        assert isinstance(record, FailureRecord)
        assert record.usecase.program == "bs"
        assert record.index == 0
        assert record.error_type == "SimulatedFault"
        assert "injected crash" in record.message
        assert record.attempts == 1       # deterministic: never retried
        assert record.transient is False
        assert record.worker_pid != 0
        assert metrics.retries == 0

    def test_default_policy_raises_sweep_failure(self):
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        with pytest.raises(SweepFailure) as info:
            run_sweep(TINY_SPEC, use_cache=False, workers=1)
        assert len(info.value.failures) == 1
        assert info.value.failures[0].error_type == "SimulatedFault"
        # the grid still ran to completion: partial results are carried
        assert [r.usecase.program for r in info.value.results] == ["prime"]
        assert "1 of 2 use cases failed" in str(info.value)

    def test_max_failures_tolerates_the_budget(self):
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        results = run_sweep(
            TINY_SPEC, use_cache=False, workers=1, max_failures=1
        )
        assert len(results) == 1

    def test_partial_sweep_never_poisons_the_memory_cache(self):
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        with pytest.raises(SweepFailure):
            run_sweep(TINY_SPEC, use_cache=True, workers=1)
        set_fault_hook(None)
        # the rerun must recompute, not serve a partial grid from memory
        results = run_sweep(TINY_SPEC, use_cache=True, workers=1)
        assert len(results) == TINY_SPEC.size

    def test_completed_cases_stay_disk_cached_across_a_failure(
        self, tmp_path
    ):
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        metrics = SweepMetrics()
        run_sweep(
            TINY_SPEC, use_cache=False, workers=1, cache_dir=tmp_path,
            metrics=metrics, max_failures=None,
        )
        assert metrics.computed == 1
        set_fault_hook(None)
        # the rerun recomputes only the failed case
        metrics2 = SweepMetrics()
        results = run_sweep(
            TINY_SPEC, use_cache=False, workers=1, cache_dir=tmp_path,
            metrics=metrics2,
        )
        assert len(results) == TINY_SPEC.size
        assert metrics2.disk_hits == 1
        assert metrics2.computed == 1


# ----------------------------------------------------------------------
# transient retries with backoff (serial path)
# ----------------------------------------------------------------------
class TestTransientRetries:
    def test_transient_fault_retries_with_exponential_backoff(
        self, monkeypatch, reference_results
    ):
        set_fault_hook(
            _fault_on("bs", FaultSpec("transient", attempts=(1, 2)))
        )
        delays = []
        real_delay = sweep_mod.retry_delay

        def recorded_delay(attempt):
            delays.append(real_delay(attempt))
            return delays[-1]

        monkeypatch.setattr(sweep_mod, "retry_delay", recorded_delay)
        monkeypatch.setattr(sweep_mod, "DEFAULT_MAX_ATTEMPTS", 3)
        monkeypatch.setattr(sweep_mod, "DEFAULT_BACKOFF_BASE_S", 0.01)
        metrics = SweepMetrics()
        results = run_sweep(
            TINY_SPEC, use_cache=False, workers=1, metrics=metrics,
        )
        # succeeded on attempt 3; both cases present and bit-identical
        assert len(results) == TINY_SPEC.size
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(r) for r in reference_results
        ]
        assert metrics.retries == 2
        assert metrics.failed == 0
        assert delays == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_retry_waits_out_its_backoff(self, monkeypatch):
        # One case, so nothing else can run while it backs off.
        spec = SweepSpec(programs=("bs",), config_ids=("k1",),
                         techs=("45nm",), max_evaluations=10)
        fault = _fault_on("bs", FaultSpec("transient", attempts=(1, 2)))
        starts = {}

        def hook(usecase, attempt):
            # consulted before (and after) each attempt: keep the first
            starts.setdefault(attempt, time.monotonic())
            return fault(usecase, attempt)

        set_fault_hook(hook)
        monkeypatch.setattr(sweep_mod, "DEFAULT_BACKOFF_BASE_S", 0.05)
        run_sweep(spec, use_cache=False, workers=1)
        # each attempt fails as it starts; the next waits out the delay
        assert sorted(starts) == [1, 2, 3]
        assert starts[2] - starts[1] >= sweep_mod.retry_delay(1)
        assert starts[3] - starts[2] >= sweep_mod.retry_delay(2)

    def test_exhausted_retry_budget_becomes_a_transient_failure(
        self, monkeypatch
    ):
        set_fault_hook(
            _fault_on("bs", FaultSpec("transient", attempts=(1, 2, 3)))
        )
        monkeypatch.setattr(sweep_mod, "DEFAULT_MAX_ATTEMPTS", 3)
        monkeypatch.setattr(sweep_mod, "DEFAULT_BACKOFF_BASE_S", 0.01)
        metrics = SweepMetrics()
        run_sweep(
            TINY_SPEC, use_cache=False, workers=1, metrics=metrics,
            max_failures=None,
        )
        assert metrics.retries == 2
        record = metrics.failures[0]
        assert record.error_type == "OSError"
        assert record.attempts == 3
        assert record.transient is True

    def test_corrupt_fault_poisons_the_result_not_the_sweep(self):
        set_fault_hook(_fault_on("bs", FaultSpec("corrupt")))
        metrics = SweepMetrics()
        results = run_sweep(
            TINY_SPEC, use_cache=False, workers=1, metrics=metrics,
        )
        # no exception anywhere: the result is wrong, detectably
        assert metrics.failed == 0
        assert results[0].optimized.tau_w == CORRUPT_MARKER
        assert results[1].optimized.tau_w != CORRUPT_MARKER


# ----------------------------------------------------------------------
# pool recovery (parallel path, environment plan crosses into workers)
# ----------------------------------------------------------------------
class TestPoolRecovery:
    def _run_parallel(self, monkeypatch, plan, spec=TINY_SPEC, **kwargs):
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan))
        monkeypatch.setattr(sweep_mod, "DEFAULT_BACKOFF_BASE_S", 0.01)
        metrics = SweepMetrics()
        results = run_sweep(
            spec, use_cache=False, workers=2, metrics=metrics, **kwargs,
        )
        if not metrics.parallel:
            pytest.skip("platform cannot run a process pool")
        return results, metrics

    def test_worker_death_rebuilds_the_pool_once(
        self, monkeypatch, reference_results
    ):
        results, metrics = self._run_parallel(
            monkeypatch,
            {BS_KEY: {"kind": "exit", "attempts": [1]}},
        )
        # one break event -> exactly one rebuild; the killed case was
        # requeued and the full grid completed bit-identically
        assert metrics.pool_rebuilds == 1
        assert metrics.retries >= 1
        assert metrics.failed == 0
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(r) for r in reference_results
        ]

    def test_worker_crash_isolates_in_the_pool_too(
        self, monkeypatch, reference_results
    ):
        results, metrics = self._run_parallel(
            monkeypatch,
            {BS_KEY: {"kind": "crash", "attempts": [1]}},
            max_failures=None,
        )
        # a deterministic exception does not break the pool
        assert metrics.pool_rebuilds == 0
        assert metrics.failed == 1
        assert metrics.failures[0].error_type == "SimulatedFault"
        assert metrics.failures[0].worker_pid != 0
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(reference_results[1])
        ]

    def test_pool_break_charges_only_the_cases_in_flight(
        self, monkeypatch
    ):
        # A broken pool fails every future it holds, and each of those
        # cases spends an attempt.  The in-flight bound limits that
        # charge: submitting the whole grid would spend a retry of
        # every case for one worker crash.
        spec = SweepSpec(
            programs=("bs", "prime", "fibcall", "sqrt"),
            config_ids=("k1", "k7"),
            techs=("45nm",),
            max_evaluations=10,
        )
        results, metrics = self._run_parallel(
            monkeypatch,
            {BS_KEY: {"kind": "exit", "attempts": [1]}},
            spec=spec,
        )
        assert metrics.retries <= sweep_mod.INFLIGHT_PER_WORKER * 2
        # independent of the constant: raising it must not hide that
        # one crash charged every case
        assert metrics.retries < spec.size
        assert metrics.pool_rebuilds == 1
        assert metrics.failed == 0
        assert len(results) == spec.size == 8

    def test_pool_retries_are_traced(self, monkeypatch):
        tracer = Tracer(service="t", sample=1.0, sink=lambda s: None)
        with activate_tracer(tracer):
            with tracer.start_span("sweep", root=True) as root:
                _, metrics = self._run_parallel(
                    monkeypatch,
                    {BS_KEY: {"kind": "exit", "attempts": [1]}},
                )
        assert metrics.retries >= 1
        assert "retry" in [name for name, _, _ in root.events]


# ----------------------------------------------------------------------
# reporting: failures in metrics/JSON documents
# ----------------------------------------------------------------------
class TestFailureReporting:
    def _failed_sweep(self):
        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        metrics = SweepMetrics()
        results = run_sweep(
            TINY_SPEC, use_cache=False, workers=1, metrics=metrics,
            max_failures=None,
        )
        return results, metrics

    def test_failure_record_serialises(self):
        _, metrics = self._failed_sweep()
        doc = failure_to_json(metrics.failures[0])
        assert doc == {
            "program": "bs",
            "config": "k1",
            "tech": "45nm",
            "error_type": "SimulatedFault",
            "message": doc["message"],
            "attempts": 1,
            "worker_pid": doc["worker_pid"],
            "transient": False,
        }
        assert "injected crash" in doc["message"]

    def test_metrics_json_carries_the_fault_counters(self):
        _, metrics = self._failed_sweep()
        doc = metrics_to_json(metrics)
        assert doc["failed"] == 1
        assert doc["retries"] == 0
        assert doc["pool_rebuilds"] == 0
        assert len(doc["failures"]) == 1
        assert doc["failures"][0]["error_type"] == "SimulatedFault"

    def test_sweep_json_reports_partial_results(self):
        results, metrics = self._failed_sweep()
        doc = sweep_to_json(results, metrics=metrics,
                            failures=metrics.failures)
        assert doc["summary"]["cases"] == 1
        assert doc["summary"]["failed"] == 1
        assert doc["failures"][0]["program"] == "bs"
        assert doc["metrics"]["failed"] == 1
        # a fault-free document keeps the old shape plus failed=0
        clean = sweep_to_json(results)
        assert clean["summary"]["failed"] == 0
        assert "failures" not in clean

    def test_summary_text_names_the_failed_case(self):
        _, metrics = self._failed_sweep()
        text = metrics.summary()
        assert "faults: 1 failed" in text
        assert "FAILED bs/k1/45nm: SimulatedFault" in text


# ----------------------------------------------------------------------
# CLI policy flag
# ----------------------------------------------------------------------
class TestSweepCLI:
    CLI = ["sweep", "--programs", "bs", "prime", "--configs", "k1",
           "--techs", "45nm", "--budget", "10", "--workers", "1",
           "--no-cache", "--quiet", "--json"]

    def test_failures_flip_the_exit_code(self, capsys):
        from repro.cli import main

        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        assert main(list(self.CLI)) == 1  # default --max-failures 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["summary"]["failed"] == 1
        assert doc["failures"][0]["program"] == "bs"
        assert "failed permanently" in captured.err

    def test_max_failures_flag_tolerates_the_budget(self, capsys):
        from repro.cli import main

        set_fault_hook(_fault_on("bs", FaultSpec("crash")))
        assert main(list(self.CLI) + ["--max-failures", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["failed"] == 1
        assert doc["summary"]["cases"] == 1

    def test_malformed_env_plan_is_one_error_line(self, monkeypatch,
                                                   capsys):
        from repro.cli import main

        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        assert main(list(self.CLI) + ["--max-failures", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {FAULT_PLAN_ENV}")

    def test_fault_free_run_exits_zero(self, capsys):
        from repro.cli import main

        assert main(list(self.CLI)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["cases"] == 2
