"""Tests for the model-checking refinement of NOT_CLASSIFIED references.

Four layers, mirroring the refine module's design notes:

* **unit / fallback** — promotion validation in ``apply_promotions``,
  and budget exhaustion falling back soundly to the unrefined labels
  (same WCET, ``exhausted`` flagged, nothing promoted for abandoned
  sets);
* **acceptance** — pinned classic-baseline bounds on the bs/crc/ndes x
  k1/k15 grid (unchanged by refinement: the classic baseline takes no
  NC -> PS promotions), a pinned optimizer improvement on whet/k9
  attributable to an NC -> AH promotion, and bit-identity of refined
  pipeline runs with the python oracle, ``analyze_wcet``;
* **differential (slow)** — over generated programs, every NC -> AH /
  NC -> AM / NC -> PS promotion agrees with exhaustive concrete
  simulation (AH never misses, AM never hits, a PS block misses at
  most once per run), and refined WCET <= unrefined WCET;
* **walker oracle** — the run-level walker's line sets equal the
  original per-vertex walker's (kept here as the oracle) at every op
  vertex, and exploring only the NC sets promotes exactly what the full
  exploration (``sets=None``) promotes, on every Mälardalen program and
  (slow) on generated ones.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import refine as refine_module
from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.refine import (
    _transition,
    apply_promotions,
    explore_concrete_states,
    nc_sets,
    refine_classifications,
)
from repro.analysis.wcet import analyze_wcet
from repro.bench.generator import random_program
from repro.bench.registry import load, program_names
from repro.cache.classify import Classification, analyze_cache
from repro.cache.concrete import ConcreteCache
from repro.cache.config import TABLE2, CacheConfig, hierarchy_for
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.technology import TECH_45NM
from repro.errors import AnalysisError
from repro.obs.trace import Tracer, activate_tracer, use_span
from repro.program.acfg import build_acfg
from repro.program.layout import AddressLayout
from repro.sim.executor import block_trace

#: Small shapes the bounded exploration converges on quickly; the same
#: family the abstract-vs-concrete differential suite sweeps.
REFINE_CONFIGS = (
    CacheConfig(1, 16, 256),   # direct-mapped
    CacheConfig(2, 16, 256),   # set-associative
    CacheConfig(4, 32, 512),   # wider blocks, more ways
)


def _single_level_timing(config):
    return hierarchy_model(hierarchy_for(config, None), TECH_45NM).timing


def _refined(acfg, config, with_persistence=False, budget=None):
    """(classifications, promotions, exploration) of one refined run."""
    analysis = analyze_cache(acfg, config, with_persistence=with_persistence)
    exploration = explore_concrete_states(acfg, config, budget=budget)
    promotions = refine_classifications(
        acfg, exploration, analysis.classifications
    )
    return analysis.classifications, promotions, exploration


class TestApplyPromotions:
    def test_applies_promotion_to_nc_slot(self):
        refined = apply_promotions(
            [Classification.NOT_CLASSIFIED, Classification.ALWAYS_HIT],
            {0: Classification.ALWAYS_MISS},
        )
        assert refined == [
            Classification.ALWAYS_MISS, Classification.ALWAYS_HIT
        ]

    def test_rejects_promotion_of_classified_reference(self):
        with pytest.raises(AnalysisError, match="only promote"):
            apply_promotions(
                [Classification.ALWAYS_MISS],
                {0: Classification.ALWAYS_HIT},
            )

    def test_rejects_non_strengthening_label(self):
        with pytest.raises(AnalysisError, match="invalid refinement"):
            apply_promotions(
                [Classification.NOT_CLASSIFIED],
                {0: Classification.NOT_CLASSIFIED},
            )

    def test_accepts_persistent_promotion(self):
        refined = apply_promotions(
            [Classification.NOT_CLASSIFIED],
            {0: Classification.PERSISTENT},
        )
        assert refined == [Classification.PERSISTENT]


class TestBudgetExhaustion:
    """Exhaustion must degrade to the unrefined analysis, never break it."""

    def test_tiny_budget_promotes_nothing(self):
        config = TABLE2["k1"]
        acfg = build_acfg(load("bs"), block_size=config.block_size)
        _, promotions, exploration = _refined(acfg, config, budget=1)
        assert exploration.exhausted
        assert promotions == {}

    def test_exhausted_wcet_equals_unrefined(self, monkeypatch):
        monkeypatch.setattr(refine_module, "DEFAULT_BUDGET", 1)
        config = TABLE2["k1"]
        timing = _single_level_timing(config)
        acfg = build_acfg(load("bs"), block_size=config.block_size)
        base = analyze_wcet(acfg, config, timing, with_persistence=False)
        exhausted = analyze_wcet(
            acfg, config, timing, with_persistence=False, refine=True,
        )
        assert exhausted.solution.objective == base.solution.objective
        assert list(exhausted.t_w) == list(base.t_w)

    def test_completed_sets_survive_partial_exhaustion(self):
        """Abandoned sets are absent; completed ones keep their fixpoint."""
        config = TABLE2["k1"]
        acfg = build_acfg(load("crc"), block_size=config.block_size)
        full = explore_concrete_states(acfg, config)
        assert not full.exhausted
        partial = explore_concrete_states(
            acfg, config, budget=max(1, full.explored // 2)
        )
        assert partial.exhausted
        assert set(partial.per_set) < set(full.per_set)
        for set_index, exploration in partial.per_set.items():
            assert exploration.in_lines == full.per_set[set_index].in_lines

    def test_pipeline_counts_exhaustion(self, monkeypatch):
        monkeypatch.setattr(refine_module, "DEFAULT_BUDGET", 1)
        config = TABLE2["k1"]
        timing = _single_level_timing(config)
        pipeline = AnalysisPipeline(
            config, timing, with_persistence=False,
            refine=True,
        )
        result = pipeline.analyze(load("bs"))
        assert pipeline.stats.refine_runs == 1
        assert pipeline.stats.refine_exhausted == 1
        assert pipeline.stats.refine_promotions == 0
        base = analyze_wcet(
            acfg=result.wcet.acfg, config=config, timing=timing,
            with_persistence=False,
        )
        assert result.wcet.solution.objective == base.solution.objective


class TestRefineOffIdentity:
    """With the flag off, nothing in any serialized surface changes."""

    def test_pipeline_counters_omit_refine_keys_when_off(self):
        config = TABLE2["k1"]
        pipeline = AnalysisPipeline(
            config, _single_level_timing(config), with_persistence=False
        )
        pipeline.analyze(load("bs"))
        counters = pipeline.stats.counters()
        assert not any(key.startswith("refine") for key in counters)

    def test_refine_span_reports_its_scope(self):
        config = TABLE2["k1"]
        pipeline = AnalysisPipeline(
            config, _single_level_timing(config), with_persistence=False,
            refine=True,
        )
        spans = []
        tracer = Tracer(sample=1.0, sink=spans.append)
        with activate_tracer(tracer):
            root = tracer.start_span("test", root=True)
            with use_span(root):
                result = pipeline.analyze(load("ndes"))
            root.end()
        (span,) = [s for s in spans if s.name == "pipeline.refine"]
        acfg = result.wcet.acfg
        classifications = analyze_cache(
            acfg, config, with_persistence=False
        ).classifications
        undecided = nc_sets(acfg, config, classifications)
        assert span.attributes["nc_sets"] == len(undecided) > 0
        assert span.attributes["sets_explored"] == len(undecided)
        assert span.attributes["states"] == pipeline.stats.refine_states > 0

    def test_pipeline_counters_include_refine_keys_when_on(self):
        config = TABLE2["k1"]
        pipeline = AnalysisPipeline(
            config, _single_level_timing(config), with_persistence=False,
            refine=True,
        )
        pipeline.analyze(load("ndes"))  # six NC->AM promotions
        counters = pipeline.stats.counters()
        assert counters["refine_runs"] == 1
        assert counters["refine_promotions"] == 6
        assert counters["refine_exhausted"] == 0

    def test_options_fingerprint_omits_refine_when_off(self):
        from repro.experiments.cache import options_fingerprint

        off = options_fingerprint(OptimizerOptions())
        assert "refine" not in off
        on = options_fingerprint(OptimizerOptions(refine=True))
        assert on["refine"] is True
        assert {k: v for k, v in on.items() if k != "refine"} == off

    def test_job_fingerprint_stable_for_refine_off_submissions(self):
        from repro.service.protocol import parse_job

        body = {"kind": "optimize", "params": {"program": "bs",
                                               "config": "k1"}}
        base = parse_job(body)
        explicit_off = parse_job(
            {"kind": "optimize",
             "params": {"program": "bs", "config": "k1", "refine": False}}
        )
        assert explicit_off.params == base.params
        refined = parse_job(
            {"kind": "optimize",
             "params": {"program": "bs", "config": "k1", "refine": True}}
        )
        assert dict(refined.params)["refine"] is True
        assert refined.fingerprint() != base.fingerprint()


GRID_BOUNDS = {
    # (program, config): classic-baseline tau_w, unrefined -> refined.
    # The classic baseline takes no NC->PS promotions, so on this grid
    # refinement leaves every bound as it was.
    ("bs", "k1"): (348.0, 348.0),
    ("bs", "k15"): (348.0, 348.0),
    ("crc", "k1"): (3319.0, 3319.0),
    ("crc", "k15"): (3319.0, 3319.0),
    ("ndes", "k1"): (67219.0, 67219.0),   # promotions are all NC->AM
    ("ndes", "k15"): (18419.0, 18419.0),
}


class TestAcceptanceGrid:
    @pytest.mark.parametrize(
        "program,config_id",
        [("bs", "k1"), ("bs", "k15"), ("crc", "k1"), ("crc", "k15")],
    )
    def test_refined_bound_on_grid(self, program, config_id):
        config = TABLE2[config_id]
        timing = _single_level_timing(config)
        acfg = build_acfg(load(program), block_size=config.block_size)
        base = analyze_wcet(acfg, config, timing, with_persistence=False)
        refined = analyze_wcet(
            acfg, config, timing, with_persistence=False, refine=True
        )
        expect_base, expect_refined = GRID_BOUNDS[(program, config_id)]
        assert base.solution.objective == expect_base
        assert refined.solution.objective == expect_refined
        assert refined.solution.objective <= base.solution.objective

    @pytest.mark.slow
    @pytest.mark.parametrize("program,config_id", sorted(GRID_BOUNDS))
    def test_refined_bound_full_grid(self, program, config_id):
        config = TABLE2[config_id]
        timing = _single_level_timing(config)
        acfg = build_acfg(load(program), block_size=config.block_size)
        base = analyze_wcet(acfg, config, timing, with_persistence=False)
        refined = analyze_wcet(
            acfg, config, timing, with_persistence=False, refine=True
        )
        expect_base, expect_refined = GRID_BOUNDS[(program, config_id)]
        assert base.solution.objective == expect_base
        assert refined.solution.objective == expect_refined

    def test_promotion_tightens_optimized_usecase(self):
        """Acceptance criterion: a use case gains a tighter WCET
        attributable to a promoted reference (whet/k9, classic baseline:
        the single NC->AH promotion tightens both the original bound
        and the optimized one)."""
        config = TABLE2["k9"]
        timing = _single_level_timing(config)
        acfg = build_acfg(load("whet"), block_size=config.block_size)
        classifications, _, exploration = _refined(acfg, config)
        promotions = refine_classifications(
            acfg, exploration, classifications, persistence=False
        )
        assert Counter(promotions.values()) == {Classification.ALWAYS_HIT: 1}

        reports = {}
        for refine in (False, True):
            opts = OptimizerOptions(with_persistence=False, refine=refine)
            _, reports[refine] = optimize(
                load("whet"), config, timing, options=opts
            )
        assert reports[False].tau_original == 5151.0
        assert reports[True].tau_original == 5119.0
        assert reports[False].tau_final == 5099.0
        assert reports[True].tau_final == 5071.0
        assert len(reports[True].inserted) == 3

    @pytest.mark.parametrize("with_persistence", (False, True))
    def test_refine_never_looser_with_either_baseline(self, with_persistence):
        config = TABLE2["k15"]
        timing = _single_level_timing(config)
        for program in ("bs", "crc"):
            acfg = build_acfg(load(program), block_size=config.block_size)
            base = analyze_wcet(
                acfg, config, timing, with_persistence=with_persistence
            )
            refined = analyze_wcet(
                acfg, config, timing, with_persistence=with_persistence,
                refine=True,
            )
            assert refined.solution.objective <= base.solution.objective


class TestCrossKernelBitIdentity:
    """A refined pipeline run is bit-identical to the python oracle."""

    @pytest.mark.parametrize("program", ("bs", "crc"))
    def test_refined_pipeline_identical_across_kernels(self, program):
        config = TABLE2["k1"]
        timing = _single_level_timing(config)
        cfg = load(program)
        python = analyze_wcet(
            build_acfg(cfg, config.block_size), config, timing,
            with_persistence=False, refine=True,
        )
        vectorized = AnalysisPipeline(
            config, timing, with_persistence=False, refine=True,
        ).analyze(cfg).wcet
        assert python.solution.objective == vectorized.solution.objective
        assert list(python.t_w) == list(vectorized.t_w)
        assert (
            list(python.cache.classifications)
            == list(vectorized.cache.classifications)
        )


# ----------------------------------------------------------------------
# differential: promotions vs. exhaustive concrete simulation
# ----------------------------------------------------------------------
def _per_block_concrete_misses(cfg, config, seed):
    """One concrete run: per-uid hit outcomes and per-block miss counts."""
    layout = AddressLayout(cfg)
    cache = ConcreteCache(config)
    outcomes = []
    misses = Counter()
    for block in block_trace(cfg, seed=seed):
        for instr in block.instructions:
            mem_block = config.block_of_address(layout.address(instr.uid))
            hit = cache.access(mem_block)
            outcomes.append((instr.uid, hit))
            if not hit:
                misses[mem_block] += 1
    return outcomes, misses


def _assert_promotions_sound(program_seed, config, run_seeds):
    cfg = random_program(program_seed, target_size=90)
    acfg = build_acfg(cfg, block_size=config.block_size)
    classifications, promotions, exploration = _refined(acfg, config)
    if exploration.exhausted:
        return  # sound fallback; covered by the budget tests
    refined = apply_promotions(classifications, promotions)

    # Promotions are per analysis context (rid); a dynamic fetch only
    # pins down the uid, so the definite per-uid claims need every
    # context of the uid to agree.  The PS claim is per memory block
    # (never evicted => at most one miss per run) and needs no such
    # grouping.
    per_uid = {}
    for rid in acfg.ref_rids:
        per_uid.setdefault(acfg.instr[rid].uid, set()).add(refined[rid])
    promoted_uids = {
        acfg.instr[rid].uid for rid in promotions
    }
    persistent_blocks = {
        acfg.block_of(rid)
        for rid, label in promotions.items()
        if label is Classification.PERSISTENT
    }

    for run_seed in run_seeds:
        outcomes, misses = _per_block_concrete_misses(cfg, config, run_seed)
        for uid, hit in outcomes:
            if uid not in promoted_uids:
                continue
            classes = per_uid[uid]
            if classes == {Classification.ALWAYS_HIT}:
                assert hit, (
                    f"promoted always-hit uid {uid} missed concretely "
                    f"(program seed {program_seed}, {config.label()})"
                )
            if classes == {Classification.ALWAYS_MISS}:
                assert not hit, (
                    f"promoted always-miss uid {uid} hit concretely "
                    f"(program seed {program_seed}, {config.label()})"
                )
        for block in persistent_blocks:
            assert misses[block] <= 1, (
                f"promoted persistent block {block} missed "
                f"{misses[block]} times (program seed {program_seed}, "
                f"{config.label()})"
            )


class TestDifferentialDeterministic:
    @pytest.mark.parametrize("config", REFINE_CONFIGS,
                             ids=lambda c: c.label())
    @pytest.mark.parametrize("program_seed", (3, 17))
    def test_promotions_sound_on_generated_programs(
        self, program_seed, config
    ):
        _assert_promotions_sound(program_seed, config, run_seeds=(0, 1))


@pytest.mark.slow
class TestDifferentialPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        config=st.sampled_from(REFINE_CONFIGS),
    )
    def test_promotions_agree_with_concrete_simulation(
        self, program_seed, config
    ):
        _assert_promotions_sound(program_seed, config, run_seeds=(0, 1, 2))

    @settings(max_examples=15, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        config=st.sampled_from(REFINE_CONFIGS),
        with_persistence=st.booleans(),
    )
    def test_refined_wcet_never_exceeds_unrefined(
        self, program_seed, config, with_persistence
    ):
        cfg = random_program(program_seed, target_size=80)
        acfg = build_acfg(cfg, block_size=config.block_size)
        timing = _single_level_timing(config)
        base = analyze_wcet(
            acfg, config, timing, with_persistence=with_persistence
        )
        refined = analyze_wcet(
            acfg, config, timing, with_persistence=with_persistence,
            refine=True,
        )
        assert refined.solution.objective <= base.solution.objective


# ----------------------------------------------------------------------
# walker oracle: run-level walk == per-vertex walk, NC scope == full
# ----------------------------------------------------------------------
#: Pass cap of the per-vertex oracle walker.
ORACLE_MAX_PASSES = 4096


def _per_vertex_in_lines(acfg, config, set_index, plan):
    """One set's reachable in-lines at every vertex, walked vertex by
    vertex: pass 1 is a full topological sweep, later passes re-process
    only vertices whose forward or back-edge inputs changed.  This is
    the walker the run-level one replaced, kept as its oracle."""
    n = len(acfg)
    preds = [acfg.predecessors(rid) for rid in range(n)]
    back_by_target = {}
    for src, dst in acfg.back_edges:
        back_by_target.setdefault(dst, []).append(src)
    in_lines = [None] * n
    out_lines = [None] * n
    back_changed = {}
    memo = {}
    for pass_count in range(ORACLE_MAX_PASSES):
        changed = [False] * n
        any_changed = False
        for rid in range(n):
            back = back_by_target.get(rid, ())
            if pass_count and not (
                any(changed[p] for p in preds[rid])
                or any(back_changed[src] for src in back)
            ):
                continue
            if rid == acfg.source:
                new_in = frozenset({()})
            else:
                inputs = [
                    out_lines[p] for p in (*preds[rid], *back)
                    if out_lines[p] is not None
                ]
                if not inputs:
                    continue
                new_in = frozenset().union(*inputs)
            if new_in == in_lines[rid]:
                continue
            ops = plan.get(rid)
            new_out = new_in if ops is None else frozenset(
                _transition(config, set_index, line, ops, memo)
                for line in new_in
            )
            in_lines[rid] = new_in
            any_changed = True
            if new_out != out_lines[rid]:
                changed[rid] = True
                out_lines[rid] = new_out
        back_changed = {src: changed[src] for src, _ in acfg.back_edges}
        if not any_changed:
            return in_lines
    raise AssertionError("the per-vertex oracle did not converge")


def _assert_walkers_agree(acfg, config, full):
    for set_index, exploration in full.per_set.items():
        oracle = _per_vertex_in_lines(
            acfg, config, set_index, exploration.plan
        )
        for rid in exploration.plan:
            assert exploration.in_lines[rid] == oracle[rid], (
                f"set {set_index}, vertex {rid}: run-level in-lines "
                f"differ from the per-vertex walk ({config.label()})"
            )


def _assert_scope_matches_full(acfg, config, full, with_persistence,
                               persistence=True):
    classifications = analyze_cache(
        acfg, config, with_persistence=with_persistence
    ).classifications
    undecided = nc_sets(acfg, config, classifications)
    scoped = explore_concrete_states(acfg, config, sets=undecided)
    assert set(scoped.per_set) <= undecided
    assert refine_classifications(
        acfg, scoped, classifications, persistence
    ) == refine_classifications(acfg, full, classifications, persistence)


class TestWalkerOracle:
    @pytest.mark.parametrize("program", program_names())
    def test_malardalen_walk_and_scope_match_the_oracle(self, program):
        for config_id in ("k1", "k13"):
            config = TABLE2[config_id]
            acfg = build_acfg(load(program), block_size=config.block_size)
            full = explore_concrete_states(acfg, config)
            assert not full.exhausted
            _assert_walkers_agree(acfg, config, full)
            for with_persistence in (False, True):
                _assert_scope_matches_full(
                    acfg, config, full, with_persistence
                )

    @pytest.mark.parametrize("program", ("bs", "crc", "ndes", "statemate"))
    def test_l2_scope_matches_full(self, program, monkeypatch):
        """With an L2 (no PS promotions, L2 plan built on the refined
        labels), analyze_wcet refined over the NC sets equals refined
        over every set."""
        config = TABLE2["k1"]
        hierarchy = hierarchy_for(config, "4:16:4096:10")
        timing = hierarchy_model(hierarchy, TECH_45NM).timing
        acfg = build_acfg(load(program), block_size=config.block_size)
        results = []
        for scoped in (True, False):
            if not scoped:
                monkeypatch.setattr(
                    refine_module, "nc_sets", lambda *args: None
                )
            results.append(analyze_wcet(
                acfg, config, timing, hierarchy=hierarchy, refine=True
            ))
        scoped, full = results
        assert list(scoped.cache.classifications) == list(
            full.cache.classifications
        )
        assert scoped.solution.objective == full.solution.objective

    def test_may_result_handed_to_a_must_only_analysis(self):
        """The must-only mode leaves more references NC (no may domain
        proves always-misses), so an analysis handed a may-mode result
        reuses its fixpoints but must explore its own NC sets."""
        config = TABLE2["k1"]
        timing = _single_level_timing(config)
        pipeline = AnalysisPipeline(
            config, timing, with_persistence=False, refine=True,
        )
        start = pipeline.analyze(load("bs"), with_may=True)
        handed = pipeline.analyze(load("bs"), with_may=False, reuse=start)
        assert pipeline.stats.dataflow_hits == 1  # the must fixpoint
        assert set(handed.dataflows["refine"].per_set) != set(
            start.dataflows["refine"].per_set
        )
        acfg = build_acfg(load("bs"), block_size=config.block_size)
        cold = analyze_wcet(
            acfg, config, timing, with_may=False, with_persistence=False,
            refine=True,
        )
        assert handed.wcet.tau_w == cold.tau_w
        assert list(handed.wcet.cache.classifications) == list(
            cold.cache.classifications
        )


@pytest.mark.slow
class TestWalkerOracleGenerated:
    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        config=st.sampled_from(REFINE_CONFIGS),
    )
    def test_generated_walk_and_scope_match_the_oracle(
        self, program_seed, config
    ):
        cfg = random_program(program_seed, target_size=90)
        acfg = build_acfg(cfg, block_size=config.block_size)
        full = explore_concrete_states(acfg, config)
        if full.exhausted:
            return  # scoped runs may complete what full abandoned
        _assert_walkers_agree(acfg, config, full)
        for with_persistence in (False, True):
            _assert_scope_matches_full(acfg, config, full, with_persistence)
