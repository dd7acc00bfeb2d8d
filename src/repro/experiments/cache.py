"""Persistent on-disk cache for per-use-case sweep results.

The process-wide ``_SWEEP_CACHE`` in :mod:`repro.experiments.sweep` only
helps within one interpreter; the full 2664-case grid takes hours, so an
interrupted run used to lose everything and every fresh process (each
figure benchmark, each CLI invocation) recomputed the whole sweep.  This
module stores one JSON record per use case under a content-hash key of
everything that determines the result:

    (UseCase, seed, OptimizerOptions, code-version tag)

so repeated runs hit disk, interrupted sweeps resume where they stopped,
and a change to result-affecting code (bump :data:`CODE_VERSION`) or to
any input invalidates exactly the stale records.

Records round-trip bit-exactly: JSON serialises floats via ``repr``,
which is lossless for IEEE doubles, and :func:`result_from_dict`
reconstructs every dataclass field, so a cached
:class:`~repro.experiments.usecase.UseCaseResult` compares equal to the
freshly computed one field by field.

The cache directory is chosen explicitly (``cache_dir=`` /
``--cache-dir``) or through the ``REPRO_SWEEP_CACHE_DIR`` environment
variable (set to ``0``/``off``/empty to disable); the benchmark harness
points it at ``benchmarks/results/sweep-cache`` so all figure benches
share one cache across processes.  A total-size cap
(``REPRO_SWEEP_CACHE_MAX_BYTES`` / :meth:`SweepDiskCache.prune`) evicts
oldest-mtime-first so long-lived sweeps and the analysis service cannot
grow the cache without bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.analysis.timing import TimingModel
from repro.cache.config import CacheConfig
from repro.core.optimizer import (
    InsertedPrefetch,
    OptimizationReport,
    OptimizerOptions,
)
from repro.core.profit import ProfitTerms
from repro.energy.metrics import EnergyBreakdown
from repro.errors import ExperimentError
from repro.experiments.scenario import AXES
from repro.experiments.usecase import (
    ProgramMeasurement,
    UseCase,
    UseCaseResult,
)

#: Version tag of the result-producing code.  Bump whenever analysis,
#: optimizer, simulator, or energy-model changes alter results — every
#: cached record keyed under the old tag becomes unreachable.
CODE_VERSION = "2026.08-4"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

#: Environment variable capping the cache's total size in bytes.
CACHE_MAX_BYTES_ENV = "REPRO_SWEEP_CACHE_MAX_BYTES"

#: Puts between the opportunistic prunes of a capped cache.
PRUNE_EVERY = 32

#: Record format version (layout of the JSON files themselves).
_FORMAT = 1


def resolve_cache_dir(
    cache_dir: Union[None, str, Path] = None,
) -> Optional[Path]:
    """The effective cache directory, or ``None`` when caching is off.

    An explicit ``cache_dir`` wins; otherwise :data:`CACHE_DIR_ENV` is
    consulted.  In both places the strings ``""``, ``0``, ``off`` and
    ``none`` mean "disabled" (that is how ``--no-cache`` and ad-hoc
    environment overrides switch the disk layer off).
    """
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV, "")
    value = str(cache_dir).strip()
    if not value or value.lower() in ("0", "off", "none"):
        return None
    return Path(value)


def resolve_cache_max_bytes(
    max_bytes: Union[None, int, str] = None,
) -> Optional[int]:
    """The effective cache size cap in bytes, or ``None`` (unbounded).

    An explicit ``max_bytes`` wins; otherwise :data:`CACHE_MAX_BYTES_ENV`
    is consulted.  ``""``, ``0``, ``off`` and ``none`` mean "no cap";
    anything else must parse as a positive integer byte count.
    """
    from repro.errors import ConfigError

    source = "max_bytes"
    if max_bytes is None:
        max_bytes = os.environ.get(CACHE_MAX_BYTES_ENV, "")
        source = CACHE_MAX_BYTES_ENV
    value = str(max_bytes).strip()
    if not value or value.lower() in ("0", "off", "none"):
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigError(
            f"{source} must be a positive integer byte count, got {value!r}"
        ) from None
    if parsed <= 0:
        raise ConfigError(
            f"{source} must be a positive integer byte count, got {value!r}"
        )
    return parsed


# ----------------------------------------------------------------------
# content-hash keys
# ----------------------------------------------------------------------
def options_fingerprint(options: OptimizerOptions) -> Dict[str, Any]:
    """All result-affecting optimizer knobs as JSON-able plain data."""
    data = dataclasses.asdict(options)
    # frozensets (locked_blocks) are not JSON-able; sort for stability.
    for name, value in data.items():
        if isinstance(value, (set, frozenset)):
            data[name] = sorted(value)
    # Omit-when-default axes (refine) enter the fingerprint only when
    # set: keys of records written before the axis existed stay valid.
    for axis in AXES.values():
        if axis.omit_default and axis.option and not data.get(axis.option):
            data.pop(axis.option, None)
    return data


def usecase_key(
    usecase: UseCase,
    seed: int,
    options: OptimizerOptions,
    code_version: str = CODE_VERSION,
) -> str:
    """Content-hash key of one use-case evaluation.

    Two evaluations share a key exactly when they are guaranteed to
    produce the same :class:`UseCaseResult`: same case row
    (:meth:`UseCase.row`), same executor seed, same optimizer options,
    same code version.
    """
    payload = {
        "usecase": usecase.row(),
        "seed": seed,
        "options": options_fingerprint(options),
        "code_version": code_version,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# (de)serialisation of the result dataclasses
# ----------------------------------------------------------------------
def _config_to_dict(config: CacheConfig) -> Dict[str, int]:
    return {
        "associativity": config.associativity,
        "block_size": config.block_size,
        "capacity": config.capacity,
    }


def _config_from_dict(data: Dict[str, Any]) -> CacheConfig:
    return CacheConfig(**data)


def _timing_to_dict(timing: TimingModel) -> Dict[str, int]:
    data = {
        "hit_cycles": timing.hit_cycles,
        "miss_penalty_cycles": timing.miss_penalty_cycles,
        "prefetch_issue_cycles": timing.prefetch_issue_cycles,
    }
    # Only multi-level records carry the L2 penalty: single-level
    # records keep their original shape (and stay valid).
    if timing.l2_hit_penalty_cycles is not None:
        data["l2_hit_penalty_cycles"] = timing.l2_hit_penalty_cycles
    return data


def _energy_to_dict(energy: EnergyBreakdown) -> Dict[str, float]:
    data = {
        "cache_dynamic_j": energy.cache_dynamic_j,
        "dram_dynamic_j": energy.dram_dynamic_j,
        "cache_static_j": energy.cache_static_j,
        "dram_static_j": energy.dram_static_j,
    }
    if energy.l2_dynamic_j or energy.l2_static_j:
        data["l2_dynamic_j"] = energy.l2_dynamic_j
        data["l2_static_j"] = energy.l2_static_j
    return data


def _measurement_to_dict(m: ProgramMeasurement) -> Dict[str, Any]:
    data = {
        "tau_w": m.tau_w,
        "tau_a": m.tau_a,
        "energy": _energy_to_dict(m.energy),
        "miss_rate_acet": m.miss_rate_acet,
        "miss_rate_wcet": m.miss_rate_wcet,
        "executed_instructions": m.executed_instructions,
        "static_instructions": m.static_instructions,
        "prefetch_transfer_energy_j": m.prefetch_transfer_energy_j,
    }
    if m.l2_accesses or m.l2_hits or m.l2_fills or m.prefetch_l2_hits:
        data["l2_accesses"] = m.l2_accesses
        data["l2_hits"] = m.l2_hits
        data["l2_fills"] = m.l2_fills
        data["prefetch_l2_hits"] = m.prefetch_l2_hits
    return data


def _measurement_from_dict(data: Dict[str, Any]) -> ProgramMeasurement:
    fields = dict(data)
    fields["energy"] = EnergyBreakdown(**fields["energy"])
    return ProgramMeasurement(**fields)


def _inserted_to_dict(ins: InsertedPrefetch) -> Dict[str, Any]:
    data = dataclasses.asdict(ins)
    data["terms"] = dataclasses.asdict(ins.terms)
    return data


def _inserted_from_dict(data: Dict[str, Any]) -> InsertedPrefetch:
    fields = dict(data)
    fields["terms"] = ProfitTerms(**fields["terms"])
    return InsertedPrefetch(**fields)


def _report_to_dict(report: OptimizationReport) -> Dict[str, Any]:
    return {
        "program": report.program,
        "config": _config_to_dict(report.config),
        "timing": _timing_to_dict(report.timing),
        "tau_original": report.tau_original,
        "tau_final": report.tau_final,
        "misses_original": report.misses_original,
        "misses_final": report.misses_final,
        "static_instructions_original": report.static_instructions_original,
        "static_instructions_final": report.static_instructions_final,
        "inserted": [_inserted_to_dict(i) for i in report.inserted],
        "candidates_evaluated": report.candidates_evaluated,
        "candidates_rejected": report.candidates_rejected,
        "passes": report.passes,
        # Deterministic pipeline cache counters; the wall-clock profile
        # is machine-dependent and intentionally not persisted.
        "pipeline": dict(report.pipeline),
    }


def _report_from_dict(data: Dict[str, Any]) -> OptimizationReport:
    fields = dict(data)
    fields["config"] = _config_from_dict(fields["config"])
    fields["timing"] = TimingModel(**fields["timing"])
    fields["inserted"] = [_inserted_from_dict(i) for i in fields["inserted"]]
    return OptimizationReport(**fields)


def result_to_dict(result: UseCaseResult) -> Dict[str, Any]:
    """Serialise a :class:`UseCaseResult` to plain JSON-able data."""
    return {
        "usecase": result.usecase.row(),
        "original": _measurement_to_dict(result.original),
        "optimized": _measurement_to_dict(result.optimized),
        "report": _report_to_dict(result.report),
    }


def result_from_dict(data: Dict[str, Any]) -> UseCaseResult:
    """Reconstruct a :class:`UseCaseResult` from :func:`result_to_dict`."""
    return UseCaseResult(
        usecase=UseCase.from_row(data["usecase"]),
        original=_measurement_from_dict(data["original"]),
        optimized=_measurement_from_dict(data["optimized"]),
        report=_report_from_dict(data["report"]),
    )


# ----------------------------------------------------------------------
# the cache proper
# ----------------------------------------------------------------------
class SweepDiskCache:
    """One JSON file per use-case result, sharded by key prefix.

    Writes are atomic (temp file + rename) so concurrent sweeps and
    interrupted runs can never leave a torn record; unreadable or
    stale-format records are treated as misses *and deleted on sight*,
    so a corrupted file costs one failed parse ever, not one per run.

    When constructed with ``max_bytes``, the cap is also enforced
    opportunistically: every :data:`PRUNE_EVERY`-th :meth:`put`
    triggers a :meth:`prune`, so a long sweep cannot blow far past the
    budget before its final end-of-run prune.

    Multiple *processes* may share one cache directory (the sweep's
    and the service's pool workers write to the same root): the atomic
    rename makes concurrent same-key writers safe (last replace wins,
    and deterministic results make the copies identical), and
    :meth:`prune` tolerates records deleted underneath it by a peer's
    concurrent prune — counted in ``prune_races``, never a crash.

    Attributes:
        root: The cache directory (created on first use).
        hits: Records served from disk so far.
        misses: Lookups that found no (valid) record.
        discarded: Corrupted/stale records deleted by :meth:`get`.
        pruned: Records evicted by :meth:`prune` over this instance's
            lifetime.
        prune_races: Records that vanished mid-prune because a peer
            (another node pruning the shared directory) got there
            first.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.discarded = 0
        self.pruned = 0
        self.prune_races = 0
        self._puts_since_prune = 0

    def path_for(self, key: str) -> Path:
        """The record file of a key (two-level sharding keeps dirs small)."""
        if len(key) < 3:
            raise ExperimentError(f"cache key too short: {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[UseCaseResult]:
        """The cached result of a key, or ``None``.

        A record that exists but cannot be parsed (truncated write from
        a crashed pre-atomic-rename version, stale format, hand-edited
        junk) is deleted, not just skipped: left in place it would be a
        guaranteed re-parse failure on every future run, and — worse —
        it would never be rewritten if the recompute that follows this
        miss crashes too.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("format") != _FORMAT:
                raise ValueError("stale record format")
            result = result_from_dict(data["result"])
        except OSError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):
            # The file is there but unreadable — evict the corpse so
            # the slot is cleanly recomputed and rewritten.
            try:
                os.unlink(path)
                self.discarded += 1
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: UseCaseResult) -> Path:
        """Persist a result atomically; returns the record path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"format": _FORMAT, "key": key, "result": result_to_dict(result)}
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
        except FileNotFoundError:
            # A peer process removed the (empty) shard directory between
            # our mkdir and mkstemp; recreate and try once more.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._puts_since_prune += 1
            if self._puts_since_prune >= PRUNE_EVERY:
                self._puts_since_prune = 0
                self.prune(self.max_bytes)
        return path

    def __len__(self) -> int:
        """Number of records currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for record in self.root.glob("*/*.json"):
            try:
                record.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def total_bytes(self) -> int:
        """Total size of all records on disk, in bytes."""
        total = 0
        if not self.root.exists():
            return 0
        for record in self.root.glob("*/*.json"):
            try:
                total += record.stat().st_size
            except OSError:
                pass
        return total

    def prune(self, max_bytes: int) -> int:
        """Evict oldest-mtime-first until the cache fits ``max_bytes``.

        Long-lived sweeps and the analysis service would otherwise grow
        the cache without bound; eviction by modification time keeps the
        most recently written (and rewritten) records.  Concurrent
        writers — including *other nodes* pruning the same shared
        directory — are safe: a record vanishing between the scan and
        the unlink is treated as already evicted (its size still comes
        off the running total, since it is gone either way) and counted
        in ``prune_races``.

        Returns:
            How many records this call removed itself.
        """
        if not self.root.exists():
            return 0
        records = []
        total = 0
        for record in self.root.glob("*/*.json"):
            try:
                stat = record.stat()
            except FileNotFoundError:
                self.prune_races += 1
                continue
            except OSError:
                continue
            records.append((stat.st_mtime, stat.st_size, record))
            total += stat.st_size
        records.sort()  # oldest mtime first
        removed = 0
        for mtime, size, record in records:
            if total <= max_bytes:
                break
            try:
                record.unlink()
            except FileNotFoundError:
                # A peer evicted (or rewrote then evicted) it first.
                self.prune_races += 1
                total -= size
                continue
            except OSError:
                continue
            total -= size
            removed += 1
        self.pruned += removed
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SweepDiskCache {self.root} hits={self.hits} "
            f"misses={self.misses}>"
        )
