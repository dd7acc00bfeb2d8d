"""Tests for the joint improvement criterion (Eqs. 4-9)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.wcet import analyze_wcet
from repro.core.profit import (
    ProfitTerms,
    estimate_profit,
    min_path_slack,
    wraparound_slack,
)
from repro.errors import OptimizationError
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder


def _uniform(acfg, value=2.0):
    return [value if instr is not None else 0.0 for instr in acfg.instr]


class TestMinPathSlack:
    def test_straight_line_sums_between(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        t_w = _uniform(acfg, 3.0)
        refs = acfg.ref_rids
        # between refs[2] and refs[7] lie 4 references
        assert min_path_slack(acfg, t_w, refs[2], refs[7]) == pytest.approx(12.0)

    def test_adjacent_references_have_zero_slack(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        t_w = _uniform(acfg)
        refs = acfg.ref_rids
        assert min_path_slack(acfg, t_w, refs[0], refs[1]) == 0.0

    def test_branch_takes_cheapest_path(self):
        b = ProgramBuilder("p")
        b.code(1)
        with b.if_else() as arms:
            with arms.then_():
                b.code(2)
            with arms.else_():
                b.code(10)
        b.code(1)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        t_w = _uniform(acfg, 1.0)
        refs = acfg.ref_rids
        first, last = refs[0], refs[-1]
        slack = min_path_slack(acfg, t_w, first, last)
        # cheapest route goes through the 2-instruction arm (+ cond chain)
        full = min_path_slack(acfg, t_w, first, refs[-2])
        assert slack <= full + 1.0
        assert slack < 14  # the 10-instruction arm is avoided

    def test_unreachable_returns_infinity(self):
        b = ProgramBuilder("p")
        with b.switch() as sw:
            with sw.case():
                b.code(3)
            with sw.case():
                b.code(3)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        t_w = _uniform(acfg, 1.0)
        # a vertex in case 0 cannot reach a vertex in case 1
        case0 = [r for r in acfg.ref_rids if acfg.block_name[r] == "bb1"]
        case1 = [r for r in acfg.ref_rids if acfg.block_name[r] == "bb2"]
        assert case0 and case1
        assert math.isinf(min_path_slack(acfg, t_w, case0[-1], case1[-1]))

    def test_order_validation(self, straight_program):
        acfg = build_acfg(straight_program, block_size=16)
        t_w = _uniform(acfg)
        with pytest.raises(OptimizationError):
            min_path_slack(acfg, t_w, 5, 5)
        with pytest.raises(OptimizationError):
            min_path_slack(acfg, t_w, 9, 3)


class TestWraparoundSlack:
    def test_covers_tail_plus_head(self, timing):
        b = ProgramBuilder("p")
        with b.loop(bound=8):
            b.code(10)
        cfg = b.build()
        acfg = build_acfg(cfg, block_size=16)
        t_w = _uniform(acfg, 2.0)
        join_rid, exits = None, []
        for src, dst in acfg.back_edges:
            join_rid = dst
            exits.append(src)
        body_refs = [
            rid
            for rid in acfg.ref_rids
            if join_rid < rid <= max(exits)
        ]
        evictor = body_refs[len(body_refs) // 2]
        use = body_refs[1]
        slack = wraparound_slack(acfg, t_w, evictor, use, join_rid, exits)
        # tail (to latch) + head (from join to use) references, 2.0 each
        direct = min_path_slack(acfg, t_w, join_rid, use)
        assert slack > direct
        assert slack < 2.0 * len(body_refs) + 4

    def test_use_must_follow_join(self, loop_program):
        acfg = build_acfg(loop_program, block_size=16)
        t_w = _uniform(acfg)
        (src, dst) = acfg.back_edges[0]
        with pytest.raises(OptimizationError):
            wraparound_slack(acfg, t_w, src, dst - 1, dst, [src])


class TestProfitTerms:
    def make(self, slack=100.0, latency=30.0, n_miss=5, n_insert=5):
        return ProfitTerms(
            mcost=30.0,
            pcost=2.0,
            slack=slack,
            latency=latency,
            n_miss=n_miss,
            n_insert=n_insert,
        )

    def test_effective_iff_latency_fits(self):
        assert self.make(slack=30.0).effective
        assert not self.make(slack=29.0).effective

    def test_value_zero_when_ineffective(self):
        assert self.make(slack=1.0).value == 0.0
        assert not self.make(slack=1.0).profitable

    def test_value_weights_counts(self):
        terms = self.make(n_miss=10, n_insert=1)
        assert terms.value == pytest.approx(30.0 * 10 - 2.0)

    def test_unprofitable_when_insertion_runs_hot(self):
        # miss saved once, prefetch executes 100x
        terms = self.make(n_miss=1, n_insert=100)
        assert terms.value < 0
        assert not terms.profitable

    def test_estimate_profit_end_to_end(self, thrash_program, tiny_cache, timing):
        acfg = build_acfg(thrash_program, block_size=tiny_cache.block_size)
        wcet = analyze_wcet(acfg, tiny_cache, timing)
        refs = acfg.ref_rids
        terms = estimate_profit(
            acfg,
            wcet.t_w,
            timing,
            insert_after_rid=refs[0],
            miss_rid=refs[40],
            n_miss=wcet.n_w(refs[40]) or 1,
            n_insert=1,
        )
        assert terms.latency == timing.prefetch_latency
        assert terms.slack > 0
