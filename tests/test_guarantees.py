"""Tests for the independent guarantee checkers."""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import AnalysisPipeline
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
        cfg = _program()
        optimized, report = optimize(cfg, tiny_cache, timing)
        assert report.inserted
        calls = []
        analyze = AnalysisPipeline.analyze

        def counting(pipeline, program, *args, **kwargs):
            calls.append(program)
            return analyze(pipeline, program, *args, **kwargs)

        monkeypatch.setattr(AnalysisPipeline, "analyze", counting)
        check = verify_wcet_guarantee(cfg, optimized, tiny_cache, timing)
        assert calls == [cfg, optimized]
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


class TestChecksEqualTheOracle:
    """The guarantee checks analyse through fresh pipelines; they must
    report what the same checks built on the python oracle report."""

    @pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
    @pytest.mark.parametrize("l2", [None, "4:16:4096:10"], ids=["l1", "l2"])
    @pytest.mark.parametrize(
        "program,with_persistence",
        [("ndes", True), ("adpcm", True), ("crc", False)],
        # crc gains prefetches at k1 only under the classic baseline
        ids=["ndes", "adpcm", "crc-classic"],
    )
    def test_pipeline_checks_equal_analyze_wcet(
        self, program, with_persistence, l2, refine
    ):
        from repro.analysis.wcet import analyze_wcet
        from repro.bench.registry import load
        from repro.cache.config import TABLE2, hierarchy_for
        from repro.core.guarantees import find_undercharged_references
        from repro.core.optimizer import OptimizerOptions
        from repro.energy.cacti import hierarchy_model
        from repro.energy.technology import technology
        from repro.program.acfg import build_acfg

        config = TABLE2["k1"]
        levels = hierarchy_for(config, l2)
        hierarchy = levels if l2 else None
        timing = hierarchy_model(levels, technology("45nm")).timing
        original = load(program)
        optimized, report = optimize(
            original, config, timing,
            options=OptimizerOptions(
                max_evaluations=60, l2=l2, refine=refine,
                with_persistence=with_persistence,
            ),
        )
        assert report.inserted
        context = dict(
            with_persistence=with_persistence, hierarchy=hierarchy,
            refine=refine,
        )
        before, after = (
            analyze_wcet(
                build_acfg(cfg, config.block_size), config, timing, **context
            )
            for cfg in (original, optimized)
        )
        undercharged = find_undercharged_references(after.acfg, after, timing)
        assert verify_wcet_guarantee(
            original, optimized, config, timing, **context
        ) == GuaranteeCheck(
            tau_original=before.tau_w,
            tau_optimized=after.tau_w,
            misses_original=before.wcet_path_misses,
            misses_optimized=after.wcet_path_misses,
            ineffective_prefetches=undercharged,
        )
        assert verify_effectiveness(
            optimized, config, timing, **context
        ) == undercharged
