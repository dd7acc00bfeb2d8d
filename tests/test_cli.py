"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.optimizer import OptimizerOptions
from repro.experiments import sweep as sweep_module
from repro.experiments.usecase import UseCase, run_usecase


class TestListing:
    def test_list_programs(self, capsys):
        assert main(["list-programs"]) == 0
        out = capsys.readouterr().out
        assert "adpcm" in out and "whet" in out
        assert out.count("\n") == 37

    def test_list_configs(self, capsys):
        assert main(["list-configs"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 36
        assert "k36" in out

    def test_tables(self, capsys):
        assert main(["table", "1"]) == 0
        assert "p37" in capsys.readouterr().out
        assert main(["table", "2"]) == 0
        assert "(4, 32, 8192)" in capsys.readouterr().out


class TestOptimize:
    def test_optimize_reports_and_verifies(self, capsys):
        code = main(["optimize", "bs", "k1", "45nm", "--budget", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 1  : True" in out

    def test_optimize_by_table1_id(self, capsys):
        assert main(["optimize", "p2", "k1", "--budget", "10"]) == 0
        assert "bs" in capsys.readouterr().out

    def test_classic_baseline_flag(self, capsys):
        code = main(
            ["optimize", "insertsort", "k1", "45nm",
             "--baseline", "classic", "--budget", "30"]
        )
        assert code == 0
        assert "classic baseline" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_kernel_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "bs", "k1", "--kernel", "python"]
                 if command == "optimize" else
                 [command, "--kernel", "python"])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err


class TestUseCaseAndFigures:
    def test_usecase(self, capsys):
        assert main(["usecase", "bs", "k1", "45nm"]) == 0
        out = capsys.readouterr().out
        assert "WCET ratio" in out

    def test_usecase_baseline_flag(self, capsys):
        assert main(["usecase", "bs", "k1", "--baseline", "classic"]) == 0
        out = capsys.readouterr().out
        result = run_usecase(UseCase("bs", "k1", "45nm"),
                             options=OptimizerOptions(with_persistence=False))
        assert result.report.inserted  # classic differs from the default
        assert f"WCET ratio   : {result.wcet_ratio:.3f}" in out
        assert f"ACET ratio   : {result.acet_ratio:.3f}" in out
        assert (f"energy ratio : {result.energy_ratio:.3f} (paper-mode "
                f"{result.energy_ratio_paper_mode:.3f})") in out
        assert f"instr ratio  : {result.instruction_ratio:.4f}" in out

    def test_figure3_small_grid(self, capsys):
        code = main(
            ["figure", "3", "--programs", "bs", "prime",
             "--configs", "k1", "--techs", "45nm", "--budget", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "paper 17.4%" in out

    def test_figure7_small_grid(self, capsys):
        code = main(
            ["figure", "7", "--programs", "bs",
             "--configs", "k1", "--techs", "32nm", "--budget", "20"]
        )
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out

    @pytest.mark.parametrize("factor", ["0", "-1", "nan"])
    def test_figure5_factor_outside_unit_interval(self, factor, capsys):
        code = main(
            ["figure", "5", "--factor", factor, "--programs", "bs",
             "--configs", "k1", "--techs", "45nm", "--budget", "20"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert (f"error: capacity factor must be in (0, 1], got "
                f"{float(factor)}") in captured.err
        assert "Figure 5" not in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDegenerateInputs:
    """Bad inputs end in one typed error line, never a traceback: bad
    use-case arguments are usage errors (exit 2, the service's
    validator message), other library errors exit 1."""

    GRID = ["--programs", "bs", "--configs", "k1", "--techs", "45nm"]

    @pytest.mark.parametrize("argv,code,message", [
        (["optimize", "bs", "k99"], 2,
         "config: unknown cache configuration 'k99'"),
        (["optimize", "nope", "k1"], 2, "program: unknown program 'nope'"),
        (["optimize", "bs", "k1", "--budget", "-3"], 2,
         "budget: must be >= 1, got -3"),
        (["usecase", "bs", "k99"], 2,
         "config: unknown cache configuration 'k99'"),
        (["usecase", "bs", "k1", "--l2", "1:2"], 2,
         "l2: L2 spec must be assoc:block:capacity:latency, got '1:2'"),
        (["sweep", *GRID, "--l2", "0:16:4096:10"], 2,
         "l2[0]: associativity must be >= 1, got 0"),
        (["sweep", "--budget", "0"], 2, "budget: must be >= 1, got 0"),
        (["sweep", *GRID, "--budget", "5", "--workers", "0"], 1,
         "error: workers must be >= 1, got 0"),
        (["trace", "x", "--service", "nohost"], 1,
         "error: service url must be http://host:port, got 'nohost'"),
    ], ids=["optimize-config", "optimize-program", "optimize-budget",
            "usecase-config", "usecase-l2", "sweep-l2", "sweep-budget",
            "sweep-workers", "trace-service"])
    def test_bad_input_is_one_typed_error(self, argv, code, message,
                                          capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        if code == 2:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
        else:
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.out + captured.err


class TestSweepCommand:
    TINY = ["--programs", "bs", "prime", "--configs", "k1",
            "--techs", "45nm", "--budget", "10"]

    @pytest.fixture(autouse=True)
    def _clean_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        # each test sees a cold in-process cache
        monkeypatch.setattr(sweep_module, "_SWEEP_CACHE", {})

    def _case_lines(self, out):
        return [line for line in out.splitlines() if line.startswith("[")]

    def test_sweep_runs_and_summarises(self, capsys):
        assert main(["sweep", *self.TINY, "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 use cases (2 computed" in out
        assert "workers: 1 (serial)" in out
        assert "average improvement" in out
        assert len(self._case_lines(out)) == 2

    def test_workers_1_and_2_agree_on_per_case_output(self, capsys):
        assert main(["sweep", *self.TINY, "--workers", "1", "--no-cache"]) == 0
        serial = self._case_lines(capsys.readouterr().out)
        assert main(["sweep", *self.TINY, "--workers", "2", "--no-cache"]) == 0
        parallel = self._case_lines(capsys.readouterr().out)
        assert serial == parallel
        assert len(serial) == 2

    def test_cache_dir_created_and_hit_on_rerun(self, capsys, tmp_path):
        cache_dir = tmp_path / "sweep-cache"
        args = ["sweep", *self.TINY, "--workers", "1",
                "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert cache_dir.is_dir()
        assert list(cache_dir.glob("*/*.json"))
        # cold in-process cache, warm disk: everything served from disk
        sweep_module._SWEEP_CACHE.clear()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(0 computed, 2 from disk cache" in out

    def test_no_cache_ignores_disk_and_memory(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "env"))
        assert main(["sweep", *self.TINY, "--workers", "1",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "2 computed, 0 from disk cache" in out
        assert not (tmp_path / "env").exists()

    def test_quiet_suppresses_per_case_lines(self, capsys):
        assert main(["sweep", *self.TINY, "--workers", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert self._case_lines(out) == []
        assert "sweep: 2 use cases" in out

    def test_flag_parsing_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--workers", "two"])

    def _captured_spec(self, monkeypatch, argv):
        import repro.cli as cli

        specs = []

        def fake_run_sweep(spec, **kwargs):
            specs.append(spec)
            return []

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        assert main(["sweep", *argv, "--quiet", "--no-cache"]) == 0
        (spec,) = specs
        return spec

    def test_full_grid_keeps_baseline_and_techs(self, monkeypatch, capsys):
        spec = self._captured_spec(monkeypatch, [
            "--full", "--baseline", "persistence", "--techs", "45nm",
            "--seed", "3", "--budget", "40",
            "--l2", "4:16:4096:10", "--refine"])
        full = sweep_module.full_grid()
        assert spec.programs == full.programs
        assert spec.config_ids == full.config_ids
        assert spec.techs == ("45nm",)
        assert spec.baseline == "persistence"
        assert (spec.seed, spec.max_evaluations) == (3, 40)
        assert spec.l2_specs == ("4:16:4096:10",)
        assert spec.refine is True
        assert spec.size == 37 * 36

    def test_full_grid_defaults_match_full_grid(self, monkeypatch, capsys):
        spec = self._captured_spec(monkeypatch, ["--full"])
        assert spec == sweep_module.full_grid()

    def test_default_grid_spec(self, monkeypatch, capsys):
        spec = self._captured_spec(monkeypatch, [])
        assert spec == sweep_module.default_grid()
        # flags given without values keep their defaults too
        assert self._captured_spec(
            monkeypatch, ["--programs", "--l2"]) == spec

    def test_all_failed_sweep_reports_no_improvement(self, monkeypatch,
                                                      capsys):
        from repro.experiments import faults

        monkeypatch.setenv(faults.FAULT_PLAN_ENV, '{"*": {"kind": "crash"}}')
        faults._cached_plan.cache_clear()
        try:
            code = main(["sweep", *self.TINY, "--workers", "1",
                         "--no-cache", "--json", "--max-failures", "2"])
        finally:
            faults._cached_plan.cache_clear()
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["summary"]["cases"] == 0
        assert document["summary"]["failed"] == 2
        assert document["summary"]["average_improvement"] is None
        assert "average improvement: n/a" in captured.err
        assert "100.0%" not in captured.err


class TestJsonOutput:
    """``--json``: machine-readable stdout, human rendering on stderr."""

    @pytest.fixture(autouse=True)
    def _clean_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        monkeypatch.setattr(sweep_module, "_SWEEP_CACHE", {})

    def test_optimize_json_document(self, capsys):
        code = main(["optimize", "bs", "k1", "45nm",
                     "--budget", "10", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["program"] == "bs"
        assert document["config_id"] == "k1"
        assert document["tech"] == "45nm"
        assert document["baseline"] == "persistence"
        assert document["guarantee"]["theorem1"] is True
        assert document["guarantee"]["latency_sound"] is True
        assert document["tau_final"] <= document["tau_original"]
        # the human rendering moved to stderr, wholesale
        assert "Theorem 1" in captured.err
        assert "Theorem 1" not in captured.out

    def test_sweep_json_document(self, capsys):
        code = main(["sweep", "--programs", "bs", "--configs", "k1",
                     "--techs", "45nm", "--budget", "10",
                     "--workers", "1", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        document = json.loads(captured.out)
        assert document["summary"]["cases"] == 1
        assert document["cases"][0]["program"] == "bs"
        assert document["cases"][0]["wcet_ratio"] <= 1.0
        assert document["metrics"]["cases"] == 1
        assert "average improvement" in captured.err
        assert "average improvement" not in captured.out

    def test_json_stdout_is_a_single_parseable_line(self, capsys):
        assert main(["optimize", "bs", "k1", "--budget", "5",
                     "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        json.loads(out)

    def test_without_json_flag_stdout_is_human_only(self, capsys):
        assert main(["optimize", "bs", "k1", "--budget", "5"]) == 0
        captured = capsys.readouterr()
        assert "Theorem 1" in captured.out
        with pytest.raises(ValueError):
            json.loads(captured.out)


class TestServeSelfCheck:
    def test_self_check_scrapes_metrics(self, capsys):
        assert main(["serve", "--self-check", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "/healthz -> ok" in out
        assert "/metrics -> ok" in out

    def test_malformed_metrics_fail_the_self_check(self, capsys,
                                                   monkeypatch):
        from repro.service.client import ServiceClient

        monkeypatch.setattr(ServiceClient, "metrics", lambda self: (
            "# TYPE lat histogram\n"
            'lat_bucket{le="+Inf"} 1\n'
            "lat_sum 0.5\n"
            "http_requests one\n"
        ))
        assert main(["serve", "--self-check", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "/metrics -> malformed" in out
        assert "unparsable sample line 'http_requests one'" in out
        assert "histogram lat has no lat_count" in out
        assert "http_requests is not >= 1" in out
