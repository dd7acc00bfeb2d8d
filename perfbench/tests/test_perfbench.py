"""Self-tests of the benchmark harness (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
from spans import SpanLog, SpanRow, layer_metrics, self_times
from workloads import WORKLOADS

ROOT = harness.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_follow_the_grammar():
    for name, unit in harness.END_TO_END + harness.PER_LAYER:
        assert harness.NAME_RE.match(name), name
        assert harness.UNIT_RE.match(unit), unit
    names = [n for n, _ in harness.END_TO_END + harness.PER_LAYER]
    assert len(names) == len(set(names))


def test_spec_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        harness.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer_names = {n for n, _ in harness.PER_LAYER}
    for cls in WORKLOADS.values():
        assert set(cls.expected) <= layer_names, cls.name


def test_percentile_rule():
    assert harness.percentile([], 50) is None
    assert harness.percentile([3.0], 50) == 3.0
    assert harness.percentile([float(i) for i in range(99)], 90) is None
    p90 = harness.percentile([float(i) for i in range(100)], 90)
    assert p90 == pytest.approx(89.1)


def test_self_time_subtracts_child_coverage():
    rows = [
        SpanRow("core.optimize", "a", None, "t", 0.0, 10.0, {}),
        SpanRow("pipeline.acfg", "b", "a", "t", 1.0, 4.0, {}),
        SpanRow("pipeline.guard", "c", "a", "t", 3.0, 6.0, {}),
    ]
    assert self_times(rows)["a"] == pytest.approx(5.0)
    log = SpanLog()
    log.rows = rows
    metrics = layer_metrics(log)
    assert metrics["core.search_self_s"] == pytest.approx(5.0)
    assert metrics["analysis.acfg_s"] == pytest.approx(3.0)
    assert "analysis.refine_s" not in metrics  # absent, not zero


def test_injected_fault_counts_in_error_rate(tmp_path):
    from repro.experiments.faults import FaultSpec, set_fault_hook

    set_fault_hook(lambda case, attempt: FaultSpec("crash")
                   if (case.program, case.config_id) == ("sqrt", "k1")
                   else None)
    try:
        record = run.measure("sweep_cold", seed=1, seconds=0, trace=False,
                             size="tiny", workdir=tmp_path)
    finally:
        set_fault_hook(None)
    assert [rid for rid, _ in record["failures"]] == ["sqrt/k1"]
    result = run.report(record, trace=False)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass(name, tmp_path):
    record = run.measure(name, seed=3, seconds=0, trace=True, size="tiny",
                         workdir=tmp_path)
    assert record["failures"] == []
    assert all(v > 0 for k, v in record["end_to_end"].items()), record
    assert set(record["per_layer"]) == {n for n, _ in harness.PER_LAYER}
    result = run.report(record, trace=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def _run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_refuses_a_pinned_environment_variable():
    env = dict(os.environ, REPRO_CACHE_KERNEL="python")
    out = _run(["--workload", "optimize_loop", "--seed", "1", "--seconds",
                "1"], ROOT, env)
    assert out.returncode == 2 and out.stdout == ""
    assert "REPRO_CACHE_KERNEL" in out.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work",
                                                  "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = _run(["--workload", "sweep_cold", "--seed", "1", "--seconds", "1"],
               tmp_path, env)
    assert out.returncode != 0 and out.stdout == ""
