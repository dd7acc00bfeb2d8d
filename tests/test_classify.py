"""Tests for the classification pass (must/may/persistence over ACFG),
including end-to-end soundness against concrete execution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import random_program
from repro.cache.classify import Classification, analyze_cache
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.errors import AnalysisError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder
from repro.program.layout import AddressLayout
from repro.sim.executor import block_trace


class TestClassificationBasics:
    def test_straight_line_first_touch_miss_then_hit(self, straight_program, big_cache):
        acfg = build_acfg(straight_program, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        seen_blocks = set()
        for rid in acfg.ref_rids:
            block = acfg.block_of(rid)
            classification = analysis.classification(rid)
            if block in seen_blocks:
                assert classification is Classification.ALWAYS_HIT
            else:
                assert classification in (
                    Classification.ALWAYS_MISS,
                    Classification.PERSISTENT,
                )
            seen_blocks.add(block)

    def test_loop_rest_context_hits_in_big_cache(self, loop_program, big_cache):
        acfg = build_acfg(loop_program, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        rest_refs = [
            rid
            for rid in acfg.ref_rids
            if any(el.kind == "R" for el in acfg.context[rid])
        ]
        assert rest_refs
        for rid in rest_refs:
            assert analysis.classification(rid).is_hit

    def test_thrashing_loop_mostly_misses_in_tiny_cache(
        self, thrash_program, tiny_cache
    ):
        acfg = build_acfg(thrash_program, block_size=tiny_cache.block_size)
        analysis = analyze_cache(acfg, tiny_cache)
        rest_refs = [
            rid
            for rid in acfg.ref_rids
            if any(el.kind == "R" for el in acfg.context[rid])
        ]
        non_hit = [
            rid
            for rid in rest_refs
            if not analysis.classification(rid).is_always_hit
        ]
        # the 320-byte body cannot live in a 256-byte cache
        assert len(non_hit) > len(rest_refs) / 4

    def test_conditional_first_touch_is_persistent(self, big_cache):
        b = ProgramBuilder("p")
        with b.loop(bound=10):
            b.code(2)
            with b.if_then(taken_prob=0.5):
                b.code(8)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        assert analysis.count(Classification.PERSISTENT) > 0

    def test_block_size_mismatch_rejected(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=32)
        with pytest.raises(AnalysisError):
            analyze_cache(acfg, tiny_cache)

    def test_classification_of_non_ref_raises(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        analysis = analyze_cache(acfg, tiny_cache)
        with pytest.raises(AnalysisError):
            analysis.classification(acfg.source)

    def test_must_only_mode_has_no_always_miss(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        analysis = analyze_cache(
            acfg, tiny_cache, with_may=False, with_persistence=False
        )
        assert analysis.count(Classification.ALWAYS_MISS) == 0
        assert analysis.may is None

    def test_must_only_always_hits_match_full_mode(self, loop_program, tiny_cache):
        acfg = build_acfg(loop_program, block_size=tiny_cache.block_size)
        fast = analyze_cache(acfg, tiny_cache, with_may=False)
        full = analyze_cache(acfg, tiny_cache)
        for rid in acfg.ref_rids:
            assert (
                fast.classification(rid).is_always_hit
                == full.classification(rid).is_always_hit
            )

    def test_hit_ratio_static_bounds(self, loop_program, big_cache):
        acfg = build_acfg(loop_program, block_size=big_cache.block_size)
        analysis = analyze_cache(acfg, big_cache)
        assert 0.0 <= analysis.hit_ratio_static() <= 1.0


def _concrete_outcomes(cfg, config, seed):
    """Replay one concrete run; returns {(uid, occurrence): hit}."""
    layout = AddressLayout(cfg)
    cache = ConcreteCache(config)
    outcomes = []
    for block in block_trace(cfg, seed=seed):
        for instr in block.instructions:
            mem_block = config.block_of_address(layout.address(instr.uid))
            outcomes.append((instr.uid, cache.access(mem_block)))
    return outcomes


class TestSoundnessAgainstConcrete:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_classification_sound(self, seed):
        """AH references never miss concretely; AM references never hit.

        The concrete trace visits (instruction, dynamic occurrence)
        pairs; an instruction classified AH in *every* context it
        appears in must never miss, and AM in every context must never
        hit.  (Per-context matching would need context tracking in the
        executor; the all-contexts projection is the sound comparison.)
        """
        config = CacheConfig(2, 16, 256)
        cfg = random_program(seed, target_size=90)
        acfg = build_acfg(cfg, block_size=config.block_size)
        analysis = analyze_cache(acfg, config)
        per_uid = {}
        for rid in acfg.ref_rids:
            per_uid.setdefault(acfg.instr[rid].uid, set()).add(
                analysis.classification(rid)
            )
        for run_seed in (0, 1, 2):
            for uid, hit in _concrete_outcomes(cfg, config, run_seed):
                classes = per_uid[uid]
                if classes == {Classification.ALWAYS_HIT}:
                    assert hit, f"AH uid {uid} missed (program seed {seed})"
                if classes == {Classification.ALWAYS_MISS}:
                    assert not hit, f"AM uid {uid} hit (program seed {seed})"

    @pytest.mark.parametrize("seed", range(8))
    def test_persistent_uids_miss_at_most_once(self, seed):
        """A uid persistent in all contexts misses at most once per run."""
        config = CacheConfig(2, 16, 256)
        cfg = random_program(seed + 100, target_size=90)
        acfg = build_acfg(cfg, block_size=config.block_size)
        analysis = analyze_cache(acfg, config)
        persistent_uids = set()
        for rid in acfg.ref_rids:
            uid = acfg.instr[rid].uid
            if analysis.classification(rid) in (
                Classification.ALWAYS_HIT,
                Classification.PERSISTENT,
            ):
                persistent_uids.add(uid)
            else:
                persistent_uids.discard(uid)
        # Project to memory blocks: a persistent block misses <= 1 time.
        layout = AddressLayout(cfg)
        block_of_uid = {
            i.uid: config.block_of_address(layout.address(i.uid))
            for i in cfg.instructions()
        }
        persistent_blocks = {block_of_uid[uid] for uid in persistent_uids}
        # only blocks ALL of whose uids are persistent qualify
        for uid, block in block_of_uid.items():
            if uid not in persistent_uids and block in persistent_blocks:
                persistent_blocks.discard(block)
        cache = ConcreteCache(config)
        miss_count = {}
        for block in block_trace(cfg, seed=3):
            for instr in block.instructions:
                mem_block = block_of_uid[instr.uid]
                if not cache.access(mem_block):
                    miss_count[mem_block] = miss_count.get(mem_block, 0) + 1
        for block in persistent_blocks:
            assert miss_count.get(block, 0) <= 1
