"""Tests for the independent guarantee checkers."""

from __future__ import annotations

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.core.guarantees import (
    GuaranteeCheck,
    verify_effectiveness,
    verify_prefetch_equivalence,
    verify_wcet_guarantee,
)
from repro.core.optimizer import optimize
from repro.errors import GuaranteeViolation
from repro.program.builder import ProgramBuilder


def _program():
    b = ProgramBuilder("g")
    b.code(4)
    with b.loop(bound=10, sim_iterations=8):
        b.code(90)
    b.code(2)
    return b.build()


class TestGuaranteeCheck:
    def test_flags(self):
        check = GuaranteeCheck(100.0, 90.0, 10, 8, [])
        assert check.theorem1_holds
        assert check.condition2_holds
        assert check.all_effective
        bad = GuaranteeCheck(100.0, 101.0, 10, 11, [7])
        assert not bad.theorem1_holds
        assert not bad.condition2_holds
        assert not bad.all_effective


class TestVerifyWCETGuarantee:
    def test_identical_programs_pass(self, tiny_cache, timing):
        cfg = _program()
        check = verify_wcet_guarantee(cfg, cfg.clone(), tiny_cache, timing)
        assert check.theorem1_holds
        assert check.tau_original == check.tau_optimized

    def test_strict_mode_raises_on_regression(self, tiny_cache, timing):
        """A hand-made BAD transformation (a prefetch that relocates
        everything but saves nothing) must be caught."""
        cfg = _program()
        bad = cfg.clone()
        # Prefetch the entry block itself: zero benefit, pure relocation.
        entry_uid = bad.blocks[0].instructions[0].uid
        bad.insert_prefetch(bad.blocks[1].name, 0, entry_uid)
        check = verify_wcet_guarantee(
            cfg, bad, tiny_cache, timing, strict=False
        )
        if not check.theorem1_holds:
            with pytest.raises(GuaranteeViolation):
                verify_wcet_guarantee(cfg, bad, tiny_cache, timing, strict=True)

    def test_optimizer_output_always_passes(self, tiny_cache, timing):
        cfg = _program()
        optimized, _ = optimize(cfg, tiny_cache, timing)
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert check.theorem1_holds

    def test_analyses_each_program_once(self, tiny_cache, timing,
                                        monkeypatch):
        """Theorem 1, Condition 2 and Definition 10 all come from one
        analysis of each program."""
        from repro.core import guarantees

        calls = []

        def counting(acfg, *args, **kwargs):
            calls.append(acfg)
            return analyze_wcet(acfg, *args, **kwargs)

        monkeypatch.setattr(guarantees, "analyze_wcet", counting)
        cfg = _program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        assert report.inserted
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert len(calls) == 2
        assert check.all_effective
        assert check.ineffective_prefetches == verify_effectiveness(
            optimized, tiny_cache, timing
        )


class TestPrefetchEquivalence:
    def test_equivalent_after_insertion(self, tiny_cache, timing):
        cfg = _program()
        optimized, _ = optimize(cfg, tiny_cache, timing)
        assert verify_prefetch_equivalence(cfg, optimized)

    def test_detects_removed_instruction(self):
        cfg = _program()
        other = cfg.clone()
        other.blocks[1].instructions.pop()
        assert not verify_prefetch_equivalence(cfg, other)

    def test_detects_prefetch_in_original(self):
        cfg = _program()
        uid = cfg.blocks[1].instructions[0].uid
        cfg.insert_prefetch(cfg.blocks[0].name, 0, uid)
        assert not verify_prefetch_equivalence(cfg, cfg.clone())

    def test_detects_block_set_mismatch(self):
        cfg = _program()
        other = _program()  # different builder: same shapes, same names
        assert verify_prefetch_equivalence(cfg, other)


class TestEffectiveness:
    def test_clean_program_has_no_violations(self, tiny_cache, timing):
        assert verify_effectiveness(_program(), tiny_cache, timing) == []

    def test_late_prefetch_is_latency_guarded(self, tiny_cache, timing):
        """A prefetch inserted immediately before its use cannot hide
        Λ=30 cycles: the analysis must charge that use the miss latency
        (latency guard), after which the soundness check is clean."""
        from repro.analysis.wcet import analyze_wcet
        from repro.program.acfg import build_acfg

        cfg = _program()
        loop = next(iter(cfg.loops.values()))
        body = cfg.block(loop.header)
        target = body.instructions[40]
        cfg.insert_prefetch(body.name, 39, target.uid)
        acfg = build_acfg(cfg, tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        guarded_uids = {
            acfg.vertex(rid).instr.uid for rid in wcet.latency_guarded
        }
        assert target.uid in guarded_uids
        # with the guard in place, nothing is under-charged
        assert verify_effectiveness(cfg, tiny_cache, timing) == []

    def test_early_prefetch_not_guarded(self, tiny_cache, timing):
        """With 30+ miss cycles of slack, the guard leaves the hit."""
        from repro.analysis.wcet import analyze_wcet
        from repro.program.acfg import build_acfg

        cfg = _program()
        loop = next(iter(cfg.loops.values()))
        body = cfg.block(loop.header)
        target = body.instructions[85]
        cfg.insert_prefetch(body.name, 0, target.uid)
        acfg = build_acfg(cfg, tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        guarded_uids = {
            acfg.vertex(rid).instr.uid for rid in wcet.latency_guarded
        }
        assert target.uid not in guarded_uids
        assert verify_effectiveness(cfg, tiny_cache, timing) == []


class TestMissReduction:
    def test_optimizer_reduces_misses(self, tiny_cache, timing):
        cfg = _program()
        optimized, _ = optimize(cfg, tiny_cache, timing)
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert check.condition2_holds
