"""Property-based tests of the paper's formal guarantees.

Touzeau et al. (arXiv:1701.08030) and Hardy & Puaut (arXiv:0807.0993)
both stress that soundness bugs in cache analysis corrupt WCET bounds
*silently* — no crash, just an optimistic number.  So the guarantees are
re-derived here as executable invariants over randomly generated
programs × sampled Table 2 configurations:

* **Theorem 1** — optimization never increases τ_w (re-derived from
  scratch by :func:`verify_wcet_guarantee`, not trusted from the
  optimizer's own gate);
* **Definition 5** — stripping prefetches recovers the original
  instruction stream exactly (:func:`verify_prefetch_equivalence`);
* **Definition 10** — every inserted prefetch's latency Λ fits in the
  minimum memory time to the first use (:func:`verify_effectiveness`
  returns no under-charged reference).

A small deterministic subset runs in tier-1; the wide hypothesis
sweeps are marked ``slow`` (run them with ``pytest -m slow``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.timing import TimingModel
from repro.bench.generator import random_program
from repro.cache.config import TABLE2
from repro.core.guarantees import (
    verify_effectiveness,
    verify_prefetch_equivalence,
    verify_wcet_guarantee,
)
from repro.core.optimizer import OptimizerOptions, optimize

#: Table 2 sample spanning the interesting regimes: direct-mapped and
#: set-associative, small and large blocks, tight and roomy capacities.
def _sample_table2():
    wanted = [
        (1, 16, 256),
        (2, 16, 512),
        (4, 32, 1024),
        (1, 32, 2048),
        (2, 64, 4096),
    ]
    ids = []
    for assoc, block, capacity in wanted:
        for kid, cfg in TABLE2.items():
            if (cfg.associativity, cfg.block_size, cfg.capacity) == (
                assoc,
                block,
                capacity,
            ):
                ids.append(kid)
                break
    assert ids, "Table 2 sample came up empty"
    return tuple(ids)


CONFIG_SAMPLE = _sample_table2()

TIMING = TimingModel()  # 1 / 30 / 1 — the fixture model of the suite


def _check_all_guarantees(seed: int, config_id: str, with_persistence: bool):
    """Optimize one generated program and re-derive every guarantee."""
    config = TABLE2[config_id]
    original = random_program(seed, target_size=70)
    options = OptimizerOptions(
        max_evaluations=15, with_persistence=with_persistence
    )
    optimized, report = optimize(original, config, TIMING, options=options)

    check = verify_wcet_guarantee(
        original,
        optimized,
        config,
        TIMING,
        strict=False,
        with_persistence=with_persistence,
    )
    assert check.theorem1_holds, (
        f"Theorem 1 violated for seed {seed} on {config_id}: "
        f"τ_w {check.tau_original} -> {check.tau_optimized}"
    )
    assert check.condition2_holds, (
        f"Condition 2 violated for seed {seed} on {config_id}: misses "
        f"{check.misses_original} -> {check.misses_optimized}"
    )
    assert verify_prefetch_equivalence(original, optimized), (
        f"Definition 5 violated for seed {seed} on {config_id}: the "
        f"optimized program is not the original plus prefetches"
    )
    ineffective = verify_effectiveness(
        optimized, config, TIMING, with_persistence=with_persistence
    )
    assert ineffective == [], (
        f"Definition 10 violated for seed {seed} on {config_id}: "
        f"under-charged references {ineffective}"
    )
    assert check.ineffective_prefetches == ineffective
    # the independent re-analysis agrees with the optimizer's own report
    assert check.tau_optimized <= report.tau_original + 1e-6
    return report


class TestGuaranteesDeterministic:
    """Fast, fixed-seed slice of the invariants — runs in tier-1."""

    @pytest.mark.parametrize("seed", (0, 7, 23))
    @pytest.mark.parametrize("config_id", CONFIG_SAMPLE[:2])
    def test_guarantees_hold(self, seed, config_id):
        _check_all_guarantees(seed, config_id, with_persistence=True)

    def test_guarantees_hold_under_classic_baseline(self):
        _check_all_guarantees(11, CONFIG_SAMPLE[0], with_persistence=False)

    def test_some_sampled_case_actually_inserts(self):
        """Guard against vacuity: the sample must exercise insertions."""
        inserted = 0
        for seed in range(6):
            report = _check_all_guarantees(
                seed, CONFIG_SAMPLE[0], with_persistence=True
            )
            inserted += report.prefetch_count
        assert inserted > 0, "no generated program accepted any prefetch"


@pytest.mark.slow
class TestGuaranteesPropertyBased:
    """Wide hypothesis sweep (Theorem 1 / Def. 5 / Def. 10)."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        config_id=st.sampled_from(CONFIG_SAMPLE),
    )
    def test_guarantees_hold_for_random_programs(self, seed, config_id):
        _check_all_guarantees(seed, config_id, with_persistence=True)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        config_id=st.sampled_from(CONFIG_SAMPLE),
    )
    def test_guarantees_hold_under_classic_baseline(self, seed, config_id):
        _check_all_guarantees(seed, config_id, with_persistence=False)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unlimited_budget_still_sound(self, seed):
        """No evaluation cap: the gates alone must uphold Theorem 1."""
        config = TABLE2[CONFIG_SAMPLE[0]]
        original = random_program(seed, target_size=40)
        optimized, _ = optimize(
            original,
            config,
            TIMING,
            options=OptimizerOptions(max_evaluations=None),
        )
        check = verify_wcet_guarantee(
            original, optimized, config, TIMING, strict=False
        )
        assert check.theorem1_holds
        assert verify_prefetch_equivalence(original, optimized)
