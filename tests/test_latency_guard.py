"""The array-backed latency guard == pairwise slack evaluation.

:func:`repro.analysis.wcet._latency_guard` sweeps the ACFG's flat
arrays once per prefetch (and once per wrapped loop instance) instead of
evaluating every (prefetch, use) pair.  The per-pair functions
:func:`~repro.analysis.slack.min_path_slack` and
:func:`~repro.analysis.slack.wraparound_slack` stay as the oracle: these
tests rebuild the guarded set pair by pair and require it to be equal —
on generated programs with random prefetch placements, with data
prefetches (no instruction-cache target), under a two-level hierarchy
(where an L2-resident target shrinks Λ), and for delta runs of the
pipeline whose divergence boundary is above 0.  The batched slack
sweeps are also checked bit for bit against the per-pair DP under
arbitrary weights.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.slack import (
    min_path_slack,
    min_path_slacks,
    min_tail_slack,
    rest_instance_spans,
    wraparound_slack,
)
from repro.analysis.wcet import analyze_wcet, compute_ref_times, prefetch_lambda
from repro.bench.generator import random_program
from repro.bench.registry import load
from repro.cache.config import CacheConfig, hierarchy_for
from repro.data.model import DataAccess, DataKind
from repro.energy.cacti import cacti_model, hierarchy_model
from repro.energy.technology import technology
from repro.program.acfg import build_acfg

CONFIG = CacheConfig(1, 16, 256)  # the paper's k1
TIMING = cacti_model(CONFIG, technology("45nm")).timing_model()
HIERARCHY = hierarchy_for(CONFIG, "4:16:4096:6")
TIMING_L2 = hierarchy_model(HIERARCHY, technology("45nm")).timing


def pairwise_guard(acfg, cache, timing, t_w, kinds=None):
    """The guarded set, one (prefetch, use) pair at a time.

    ``kinds``, when given, collects ``"straight"``/``"wrapped"`` per
    guarding pair."""
    spans = rest_instance_spans(acfg)
    refs = acfg.ref_vertices()
    guarded = set()
    for prefetch in refs:
        if not prefetch.is_prefetch:
            continue
        target = acfg.target_block_or_none(prefetch.rid)
        if target is None:
            continue
        latency = float(prefetch_lambda(cache, timing, prefetch.rid, target))
        for use in refs:
            if (
                use.is_prefetch
                or acfg.block_of(use.rid) != target
                or not cache.classification(use.rid).is_hit
            ):
                continue
            if use.rid > prefetch.rid:
                if min_path_slack(acfg, t_w, prefetch.rid, use.rid) < latency:
                    guarded.add(use.rid)
                    if kinds is not None:
                        kinds.append("straight")
                continue
            # Wrap-around: the innermost REST instance holding the prefetch.
            for join, last, exits in reversed(spans):
                if join <= prefetch.rid <= last:
                    if join <= use.rid and wraparound_slack(
                        acfg, t_w, prefetch.rid, use.rid, join, exits
                    ) < latency:
                        guarded.add(use.rid)
                        if kinds is not None:
                            kinds.append("wrapped")
                    break
    return frozenset(guarded)


def place_prefetches(cfg, rng, count, data_share=0.2):
    """Insert ``count`` prefetches at random points, most of them aimed
    a few instructions ahead (close enough to be guarded), and return
    the ``(block name, index)`` of the last insertion."""
    blocks = [b.name for b in cfg.blocks if b.instructions]
    for _ in range(count):
        name = rng.choice(blocks)
        block = cfg.block(name)
        index = rng.randint(0, len(block.instructions))
        if rng.random() < data_share:
            cfg.insert_data_prefetch(
                name, index, DataAccess(DataKind.PREFETCH, "buf")
            )
            continue
        if index < len(block.instructions) and rng.random() < 0.7:
            ahead = rng.randint(index, len(block.instructions) - 1)
            target = block.instructions[ahead].uid
        else:
            target = rng.choice(list(cfg.instructions())).uid
        cfg.insert_prefetch(name, index, target)
    return name, index


def check_guard(wcet, timing):
    acfg = wcet.acfg
    t_w = compute_ref_times(acfg, wcet.cache, timing)
    assert wcet.latency_guarded == pairwise_guard(acfg, wcet.cache, timing, t_w)
    return wcet.latency_guarded


class TestGuardEqualsPairwise:
    @pytest.mark.parametrize("seed", [3, 11, 42, 77, 1234])
    def test_generated_random_placements(self, seed):
        rng = random.Random(seed)
        cfg = random_program(seed, target_size=150, max_depth=3)
        place_prefetches(cfg, rng, count=12)
        wcet = analyze_wcet(build_acfg(cfg, CONFIG.block_size), CONFIG, TIMING)
        check_guard(wcet, TIMING)

    def test_guard_is_exercised(self):
        """The corpus above guards straight-line and wrapped uses."""
        kinds = []
        for seed in [3, 11, 42, 77, 1234]:
            rng = random.Random(seed)
            cfg = random_program(seed, target_size=150, max_depth=3)
            place_prefetches(cfg, rng, count=12)
            acfg = build_acfg(cfg, CONFIG.block_size)
            wcet = analyze_wcet(acfg, CONFIG, TIMING)
            t_w = compute_ref_times(acfg, wcet.cache, TIMING)
            pairwise_guard(acfg, wcet.cache, TIMING, t_w, kinds)
        assert "straight" in kinds and "wrapped" in kinds

    def test_only_data_prefetches_guard_nothing(self):
        cfg = load("ndes")
        rng = random.Random(5)
        place_prefetches(cfg, rng, count=6, data_share=1.0)
        wcet = analyze_wcet(build_acfg(cfg, CONFIG.block_size), CONFIG, TIMING)
        assert wcet.acfg.prefetch_rids
        assert check_guard(wcet, TIMING) == frozenset()

    @pytest.mark.parametrize("seed", [2, 19, 64])
    def test_two_level_hierarchy(self, seed):
        rng = random.Random(seed)
        cfg = random_program(seed, target_size=150, max_depth=3)
        place_prefetches(cfg, rng, count=12)
        acfg = build_acfg(cfg, CONFIG.block_size)
        wcet = analyze_wcet(acfg, CONFIG, TIMING_L2, hierarchy=HIERARCHY)
        check_guard(wcet, TIMING_L2)

    def test_hierarchy_shrinks_lambda(self):
        """Some prefetch of the hierarchy corpus gets the L2 Λ."""
        shrunk = 0
        for seed in [2, 19, 64]:
            rng = random.Random(seed)
            cfg = random_program(seed, target_size=150, max_depth=3)
            place_prefetches(cfg, rng, count=12)
            acfg = build_acfg(cfg, CONFIG.block_size)
            wcet = analyze_wcet(acfg, CONFIG, TIMING_L2, hierarchy=HIERARCHY)
            for rid in acfg.prefetch_rids:
                target = acfg.target_block_or_none(rid)
                if target is not None and prefetch_lambda(
                    wcet.cache, TIMING_L2, rid, target
                ) == TIMING_L2.l2_hit_penalty_cycles:
                    shrunk += 1
        assert shrunk > 0

    @pytest.mark.parametrize("hierarchy", [None, HIERARCHY])
    @pytest.mark.parametrize("program", ["ndes", "adpcm"])
    def test_delta_runs(self, program, hierarchy):
        timing = TIMING if hierarchy is None else TIMING_L2
        pipeline = AnalysisPipeline(CONFIG, timing, hierarchy=hierarchy)
        cfg = load(program)
        rng = random.Random(program)
        place_prefetches(cfg, rng, count=4, data_share=0.0)
        base = pipeline.analyze(cfg, with_may=False)
        check_guard(base.wcet, timing)
        for _ in range(6):
            edit = place_prefetches(cfg, rng, count=1, data_share=0.1)
            candidate = pipeline.analyze(
                cfg, with_may=False, base=base, edit=edit
            )
            check_guard(candidate.wcet, timing)
            base = candidate
        # Every candidate spliced and warm-started (boundary > 0).
        assert pipeline.stats.delta_runs == 6
        assert pipeline.stats.delta_fallbacks == 0


def check_batched_slacks(acfg, rng):
    """Batched sweeps == per-pair DP under random weights, including
    weights on non-REF vertices (which both must ignore)."""
    n = len(acfg.vertices)
    t_w = [rng.uniform(0.0, 50.0) for _ in range(n)]
    for _ in range(10):
        from_rid = rng.randrange(0, n - 1)
        to_rids = rng.sample(range(from_rid + 1, n), min(8, n - from_rid - 1))
        batched = min_path_slacks(acfg, t_w, from_rid, to_rids)
        assert batched == {
            to: min_path_slack(acfg, t_w, from_rid, to) for to in to_rids
        }
    for join, _, exits in rest_instance_spans(acfg):
        evictor = rng.choice([join] + list(exits))
        tail = min_tail_slack(acfg, t_w, evictor, exits)
        use = next((r for r in acfg.ref_rids if r > join), None)
        if use is None or tail == float("inf"):
            continue
        head = min_path_slack(acfg, t_w, join, use)
        assert tail + head == wraparound_slack(
            acfg, t_w, evictor, use, join, exits
        )


class TestBatchedSlacksEqualPairwise:
    """The run-summed sweeps are bit-identical to the per-pair DP."""

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_random_weights(self, seed):
        acfg = build_acfg(
            random_program(seed, target_size=150, max_depth=3),
            CONFIG.block_size,
        )
        check_batched_slacks(acfg, random.Random(seed))


@pytest.mark.slow
class TestGuardProperty:
    """Hypothesis sweep over shapes, placements and both hierarchies."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=20),
        two_level=st.booleans(),
    )
    def test_guard_equals_pairwise(self, seed, count, two_level):
        rng = random.Random(seed)
        cfg = random_program(seed, target_size=200, max_depth=3)
        place_prefetches(cfg, rng, count=count)
        acfg = build_acfg(cfg, CONFIG.block_size)
        if two_level:
            wcet = analyze_wcet(acfg, CONFIG, TIMING_L2, hierarchy=HIERARCHY)
            check_guard(wcet, TIMING_L2)
        else:
            check_guard(analyze_wcet(acfg, CONFIG, TIMING), TIMING)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batched_slacks(self, seed):
        rng = random.Random(seed)
        acfg = build_acfg(
            random_program(seed, target_size=150, max_depth=3),
            CONFIG.block_size,
        )
        check_batched_slacks(acfg, rng)
