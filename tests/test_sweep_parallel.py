"""Tests for the parallel sweep engine and the persistent disk cache.

The contract under test: ``run_sweep(spec, workers=N)`` returns exactly
the serial path's results, in grid order, for any N; the disk cache
round-trips results bit-exactly and invalidates when any input of the
computation changes.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    CODE_VERSION,
    SweepDiskCache,
    resolve_cache_dir,
    resolve_cache_max_bytes,
    result_from_dict,
    result_to_dict,
    usecase_key,
)
from repro.experiments.metrics import SOURCE_MEMORY, SweepMetrics
from repro.experiments.sweep import (
    SweepSpec,
    resolve_workers,
    run_sweep,
)
from repro.experiments.usecase import UseCase

#: Two fast programs, one config, one tech: 2 use cases per sweep.
TINY_SPEC = SweepSpec(
    programs=("bs", "prime"),
    config_ids=("k1",),
    techs=("45nm",),
    seed=1,
    max_evaluations=10,
)


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """Keep the environment from injecting a disk cache or workers."""
    monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)


@pytest.fixture(scope="module")
def serial_results():
    """The serial reference run (no caches involved)."""
    return run_sweep(TINY_SPEC, use_cache=False, workers=1)


def _dicts(results):
    return [result_to_dict(r) for r in results]


class TestParallelEquivalence:
    def test_parallel_matches_serial_in_order_and_fields(self, serial_results):
        metrics = SweepMetrics()
        parallel = run_sweep(
            TINY_SPEC, use_cache=False, workers=2, metrics=metrics
        )
        assert [r.usecase for r in parallel] == TINY_SPEC.usecases()
        assert _dicts(parallel) == _dicts(serial_results)

    def test_parallel_run_uses_other_processes(self):
        metrics = SweepMetrics()
        run_sweep(TINY_SPEC, use_cache=False, workers=2, metrics=metrics)
        if not metrics.parallel:
            pytest.skip("platform cannot run a process pool")
        pids = metrics.worker_pids()
        assert pids, "no computed use case recorded a worker pid"
        assert os.getpid() not in pids
        assert metrics.workers == 2

    def test_progress_fires_in_grid_order(self, serial_results):
        seen = []
        run_sweep(
            TINY_SPEC,
            progress=lambda uc, r: seen.append(uc),
            use_cache=False,
            workers=2,
        )
        assert seen == TINY_SPEC.usecases()

    def test_workers_resolution(self, monkeypatch):
        assert resolve_workers(3, pending=10) == 3
        assert resolve_workers(8, pending=2) == 2  # clamped to work
        assert resolve_workers(4, pending=0) == 1  # nothing to do
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers(None, pending=100) == 5
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "banana")
        with pytest.raises(ExperimentError):
            resolve_workers(None, pending=4)
        with pytest.raises(ExperimentError):
            resolve_workers(0, pending=4)


class TestPoolFallback:
    def test_serial_fallback_counts_on_from_pool_attempts(
        self, monkeypatch, serial_results
    ):
        """A pool that breaks and cannot be rebuilt hands its cases to
        the serial path, which continues each case's attempt count:
        a worker-crash fault aimed at attempt 1 must not re-fire in
        this process."""
        from repro.experiments import faults, sweep as sweep_module

        parent, serial_attempts = os.getpid(), []

        def hook(usecase, attempt):
            if os.getpid() != parent:  # a pool worker: crash it
                return faults.FaultSpec("exit") if attempt == 1 else None
            serial_attempts.append(attempt)
            return None

        def rebuild_fails(self):
            raise OSError("cannot rebuild the pool")

        monkeypatch.setattr(sweep_module._FanOut, "_rebuild_pool",
                            rebuild_fails)
        monkeypatch.setattr(sweep_module, "DEFAULT_BACKOFF_BASE_S", 0.01)
        faults.set_fault_hook(hook)
        try:
            metrics = SweepMetrics()
            results = run_sweep(TINY_SPEC, use_cache=False, workers=2,
                                metrics=metrics)
        finally:
            faults.set_fault_hook(None)
        if metrics.workers != 1:
            pytest.skip("platform cannot run a process pool")
        assert serial_attempts and min(serial_attempts) >= 2
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(r) for r in serial_results
        ]

    @pytest.mark.parametrize("failing_pool", [1, 2])
    def test_workers_that_cannot_start_fall_back_in_process(
        self, monkeypatch, serial_results, failing_pool
    ):
        """A process pool starts its workers on the first ``submit``.
        When that fails, in the first pool or in the one rebuilt after
        a worker died, the rest of the sweep runs in this process."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments import faults, sweep as sweep_module

        parent, pools = os.getpid(), []
        real_submit = ProcessPoolExecutor.submit

        def hook(usecase, attempt):  # a pool worker dies on attempt 1
            crash = os.getpid() != parent and attempt == 1
            return faults.FaultSpec("exit") if crash else None

        def submit(self, fn, *args, **kwargs):
            if self not in pools:
                pools.append(self)
            if len(pools) >= failing_pool:
                raise OSError("cannot fork")
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        monkeypatch.setattr(sweep_module, "DEFAULT_BACKOFF_BASE_S", 0.01)
        faults.set_fault_hook(hook)
        try:
            metrics = SweepMetrics()
            results = run_sweep(TINY_SPEC, use_cache=False, workers=2,
                                metrics=metrics)
        finally:
            faults.set_fault_hook(None)
        if len(pools) < failing_pool:
            pytest.skip("platform cannot run a process pool")
        assert metrics.workers == 1
        assert metrics.parallel is False
        assert metrics.pool_rebuilds == failing_pool - 1
        assert [result_to_dict(r) for r in results] == [
            result_to_dict(r) for r in serial_results
        ]

class TestDiskCache:
    def test_round_trip_is_bit_exact(self, tmp_path, serial_results):
        metrics_cold = SweepMetrics()
        first = run_sweep(
            TINY_SPEC,
            use_cache=False,
            workers=1,
            cache_dir=tmp_path,
            metrics=metrics_cold,
        )
        assert metrics_cold.computed == TINY_SPEC.size
        metrics_warm = SweepMetrics()
        second = run_sweep(
            TINY_SPEC,
            use_cache=False,
            workers=1,
            cache_dir=tmp_path,
            metrics=metrics_warm,
        )
        assert metrics_warm.disk_hits == TINY_SPEC.size
        assert metrics_warm.computed == 0
        # bit-exact: every float, count and nested report field agrees
        assert _dicts(second) == _dicts(first) == _dicts(serial_results)

    def test_cache_hits_count_no_pipeline_work(self, tmp_path,
                                               serial_results):
        cold, warm = SweepMetrics(), SweepMetrics()
        results = run_sweep(TINY_SPEC, use_cache=False, workers=1,
                            cache_dir=tmp_path, metrics=cold)
        run_sweep(TINY_SPEC, use_cache=False, workers=1,
                  cache_dir=tmp_path, metrics=warm)
        expected = {}
        for result in results:
            for name, value in result.report.pipeline.items():
                expected[name] = expected.get(name, 0) + value
        assert cold.pipeline_totals() == expected
        assert "\npipeline: " in cold.summary()
        assert warm.disk_hits == TINY_SPEC.size
        assert warm.pipeline_totals() == {}
        assert "pipeline:" not in warm.summary()
        memory = SweepMetrics().record(
            results[0].usecase, serial_results[0], SOURCE_MEMORY
        )
        assert memory.pipeline == {}

    def test_serializer_round_trip(self, serial_results):
        result = serial_results[0]
        clone = result_from_dict(result_to_dict(result))
        assert result_to_dict(clone) == result_to_dict(result)
        assert clone.usecase == result.usecase
        assert clone.report.tau_final == result.report.tau_final
        assert clone.wcet_ratio == result.wcet_ratio

    def test_key_invalidates_on_seed_options_and_version(self):
        usecase = UseCase("bs", "k1", "45nm")
        options = TINY_SPEC.optimizer_options()
        base = usecase_key(usecase, 1, options)
        assert base == usecase_key(usecase, 1, options)  # deterministic
        assert base != usecase_key(usecase, 2, options)
        other_options = SweepSpec(
            programs=("bs",),
            config_ids=("k1",),
            techs=("45nm",),
            max_evaluations=99,
        ).optimizer_options()
        assert base != usecase_key(usecase, 1, other_options)
        baseline_options = SweepSpec(
            programs=("bs",),
            config_ids=("k1",),
            techs=("45nm",),
            max_evaluations=10,
            baseline="persistence",
        ).optimizer_options()
        assert base != usecase_key(usecase, 1, baseline_options)
        assert base != usecase_key(usecase, 1, options, code_version="older")
        assert base != usecase_key(
            UseCase("bs", "k1", "32nm"), 1, options
        )

    def test_corrupt_record_is_a_miss_and_gets_evicted(
        self, tmp_path, serial_results
    ):
        cache = SweepDiskCache(tmp_path)
        key = usecase_key(
            UseCase("bs", "k1", "45nm"), 1, TINY_SPEC.optimizer_options()
        )
        cache.put(key, serial_results[0])
        assert len(cache) == 1
        cache.path_for(key).write_text("{not json")
        assert cache.get(key) is None
        assert cache.misses == 1
        # the unreadable file was deleted, not left to fail every run
        assert cache.discarded == 1
        assert not cache.path_for(key).exists()
        assert len(cache) == 0
        # overwriting heals the record
        cache.put(key, serial_results[0])
        restored = cache.get(key)
        assert restored is not None
        assert result_to_dict(restored) == result_to_dict(serial_results[0])

    def test_truncated_record_is_evicted(self, tmp_path, serial_results):
        cache = SweepDiskCache(tmp_path)
        key = usecase_key(
            UseCase("bs", "k1", "45nm"), 1, TINY_SPEC.optimizer_options()
        )
        path = cache.put(key, serial_results[0])
        # a torn write from a crashed pre-atomic-rename producer
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        assert cache.get(key) is None
        assert cache.discarded == 1
        assert not path.exists()

    def test_stale_format_record_is_evicted(self, tmp_path, serial_results):
        cache = SweepDiskCache(tmp_path)
        key = usecase_key(
            UseCase("bs", "k1", "45nm"), 1, TINY_SPEC.optimizer_options()
        )
        path = cache.put(key, serial_results[0])
        import json as _json

        record = _json.loads(path.read_text())
        record["format"] = 0
        path.write_text(_json.dumps(record))
        assert cache.get(key) is None
        assert cache.discarded == 1
        assert not path.exists()

    def test_missing_record_is_a_plain_miss(self, tmp_path):
        cache = SweepDiskCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1
        assert cache.discarded == 0

    def test_clear_removes_records(self, tmp_path, serial_results):
        cache = SweepDiskCache(tmp_path)
        key = usecase_key(
            UseCase("bs", "k1", "45nm"), 1, TINY_SPEC.optimizer_options()
        )
        cache.put(key, serial_results[0])
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_resolve_cache_dir(self, monkeypatch, tmp_path):
        assert resolve_cache_dir(tmp_path) == tmp_path
        assert resolve_cache_dir("off") is None
        assert resolve_cache_dir("0") is None
        assert resolve_cache_dir(None) is None  # env unset via fixture
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", "off")
        assert resolve_cache_dir(None) is None

    def test_code_version_is_part_of_the_contract(self):
        # The tag exists and is non-empty; bumping it must change keys.
        assert isinstance(CODE_VERSION, str) and CODE_VERSION


class TestWorkerConfigErrors:
    @pytest.mark.parametrize("value", ["0", "-2", "2.5", "banana"])
    def test_bad_env_values_raise_config_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", value)
        with pytest.raises(ConfigError, match="REPRO_SWEEP_WORKERS"):
            resolve_workers(None, pending=4)

    def test_empty_env_value_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "")
        assert resolve_workers(None, pending=1) == 1

    @pytest.mark.parametrize("value", [0, -1, True, 2.0, "3"])
    def test_bad_explicit_values_raise_config_error(self, value):
        with pytest.raises(ConfigError):
            resolve_workers(value, pending=4)

    def test_config_error_is_an_experiment_error(self):
        # callers catching the broader class keep working
        assert issubclass(ConfigError, ExperimentError)


class TestCacheSizeCap:
    def _filled_cache(self, tmp_path, serial_results):
        """A cache of two records with strictly increasing mtimes."""
        cache = SweepDiskCache(tmp_path)
        options = TINY_SPEC.optimizer_options()
        keys = [
            usecase_key(usecase, 1, options)
            for usecase in TINY_SPEC.usecases()
        ]
        for key, result, age in zip(keys, serial_results, (200, 100)):
            cache.put(key, result)
            stamp = os.stat(cache.path_for(key)).st_mtime - age
            os.utime(cache.path_for(key), (stamp, stamp))
        return cache, keys

    def test_total_bytes_sums_the_records(self, tmp_path, serial_results):
        cache, keys = self._filled_cache(tmp_path, serial_results)
        expected = sum(
            os.path.getsize(cache.path_for(key)) for key in keys
        )
        assert cache.total_bytes() == expected
        assert SweepDiskCache(tmp_path / "missing").total_bytes() == 0

    def test_prune_evicts_oldest_first(self, tmp_path, serial_results):
        cache, keys = self._filled_cache(tmp_path, serial_results)
        newest_size = os.path.getsize(cache.path_for(keys[1]))
        removed = cache.prune(newest_size)
        assert removed == 1
        assert cache.get(keys[0]) is None      # the old record went
        assert cache.get(keys[1]) is not None  # the fresh one survived
        assert cache.total_bytes() <= newest_size

    def test_prune_is_a_noop_under_the_cap(self, tmp_path, serial_results):
        cache, keys = self._filled_cache(tmp_path, serial_results)
        assert cache.prune(cache.total_bytes()) == 0
        assert len(cache) == len(keys)

    def test_prune_zero_evicts_everything(self, tmp_path, serial_results):
        cache, keys = self._filled_cache(tmp_path, serial_results)
        assert cache.prune(0) == len(keys)
        assert cache.total_bytes() == 0

    def test_resolve_cache_max_bytes(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_MAX_BYTES", raising=False)
        assert resolve_cache_max_bytes(None) is None
        assert resolve_cache_max_bytes(12345) == 12345
        assert resolve_cache_max_bytes("12345") == 12345
        for alias in ("", "0", "off", "none"):
            assert resolve_cache_max_bytes(alias) is None
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_BYTES", "4096")
        assert resolve_cache_max_bytes(None) == 4096
        assert resolve_cache_max_bytes(99) == 99  # explicit beats env
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_BYTES", "lots")
        with pytest.raises(ConfigError, match="REPRO_SWEEP_CACHE_MAX_BYTES"):
            resolve_cache_max_bytes(None)
        with pytest.raises(ConfigError):
            resolve_cache_max_bytes(-5)

    def test_put_prunes_opportunistically(
        self, tmp_path, serial_results, monkeypatch
    ):
        # size the cap to exactly one record: every put enforces it
        # immediately (PRUNE_EVERY = 1), so a long sweep can never blow
        # far past the budget mid-run
        monkeypatch.setattr(cache_module, "PRUNE_EVERY", 1)
        probe = SweepDiskCache(tmp_path / "probe")
        options = TINY_SPEC.optimizer_options()
        first_key = usecase_key(TINY_SPEC.usecases()[0], 1, options)
        one_record = os.path.getsize(probe.put(first_key, serial_results[0]))
        cache = SweepDiskCache(tmp_path / "capped", max_bytes=one_record)
        for usecase, result in zip(TINY_SPEC.usecases(), serial_results):
            cache.put(usecase_key(usecase, 1, options), result)
            assert cache.total_bytes() <= one_record
            assert len(cache) <= 1

    def test_put_without_cap_never_prunes(
        self, tmp_path, serial_results, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "PRUNE_EVERY", 1)
        cache = SweepDiskCache(tmp_path)
        options = TINY_SPEC.optimizer_options()
        for usecase, result in zip(TINY_SPEC.usecases(), serial_results):
            cache.put(usecase_key(usecase, 1, options), result)
        assert len(cache) == TINY_SPEC.size

    def test_prune_every_batches_the_scans(
        self, tmp_path, serial_results, monkeypatch
    ):
        # with PRUNE_EVERY above the put count the cap is not enforced
        # until the threshold is crossed (the end-of-sweep prune covers
        # the tail)
        monkeypatch.setattr(cache_module, "PRUNE_EVERY", 99)
        cache = SweepDiskCache(tmp_path, max_bytes=1)
        options = TINY_SPEC.optimizer_options()
        for usecase, result in zip(TINY_SPEC.usecases(), serial_results):
            cache.put(usecase_key(usecase, 1, options), result)
        assert len(cache) == TINY_SPEC.size  # untouched so far
        cache.prune(1)
        assert len(cache) == 0

    def test_run_sweep_honours_the_env_cap(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "capped"
        run_sweep(TINY_SPEC, use_cache=False, workers=1,
                  cache_dir=cache_dir)
        cache = SweepDiskCache(cache_dir)
        assert len(cache) == TINY_SPEC.size
        # rerun with a cap that fits exactly the largest single record:
        # the sweep prunes down to it after writing
        cap = max(
            os.path.getsize(record)
            for record in cache_dir.glob("*/*.json")
        )
        monkeypatch.setenv("REPRO_SWEEP_CACHE_MAX_BYTES", str(cap))
        run_sweep(TINY_SPEC, use_cache=False, workers=1,
                  cache_dir=cache_dir)
        assert cache.total_bytes() <= cap
        assert len(cache) == 1


class TestCacheSharedDirectory:
    """Pool workers share one cache directory: a peer's concurrent
    prune or put must never crash this process's cache."""

    def test_prune_tolerates_peer_deletions_and_counts_them(
            self, tmp_path, serial_results):
        from types import SimpleNamespace

        cache = SweepDiskCache(tmp_path)
        cache.put("key-a", serial_results[0])
        cache.put("key-b", serial_results[0])
        real_root = cache.root

        class PhantomRecord:
            """A record a peer evicted between scan and unlink."""

            def stat(self):
                return SimpleNamespace(st_mtime=0.0, st_size=10_000)

            def unlink(self):
                raise FileNotFoundError("peer got there first")

        class RacingRoot:
            def exists(self):
                return True

            def glob(self, pattern):
                yield PhantomRecord()
                yield from real_root.glob(pattern)

        cache.root = RacingRoot()
        removed = cache.prune(0)
        assert removed == 2  # the two real records
        assert cache.prune_races == 1
        assert cache.pruned == 2

    def test_put_survives_a_peer_removing_the_shard_dir(
            self, tmp_path, serial_results, monkeypatch):
        import shutil
        import tempfile as tempfile_module

        cache = SweepDiskCache(tmp_path)
        real_mkstemp = tempfile_module.mkstemp
        raced = {"done": False}

        def racing_mkstemp(**kwargs):
            if not raced["done"]:
                raced["done"] = True
                shutil.rmtree(kwargs["dir"], ignore_errors=True)
                raise FileNotFoundError(kwargs["dir"])
            return real_mkstemp(**kwargs)

        monkeypatch.setattr(tempfile_module, "mkstemp", racing_mkstemp)
        cache.put("key-a", serial_results[0])
        assert raced["done"]
        hit = cache.get("key-a")
        assert hit is not None
        assert result_to_dict(hit) == result_to_dict(serial_results[0])
