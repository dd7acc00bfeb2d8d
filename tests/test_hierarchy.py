"""Multi-level memory hierarchy (L1/L2 + DRAM) across every layer.

The hierarchy refactor's contract has two halves, and both are tested
here:

* **bit-identity** — a single-level hierarchy is not a special case but
  the *same* computation the pre-hierarchy code ran: timing models,
  WCET bounds, use-case keys and sweep grids must come out identical
  with ``l2=None``;
* **soundness** — when a second level exists, the abstract multi-level
  classification (Hardy & Puaut style: the L2 access stream is the L1
  stream filtered by the L1 classification) must never be optimistic
  against a concrete two-level LRU simulation, and the WCET bound must
  dominate the one-level bound's structure (an L2-guaranteed reference
  is charged the L2 service time, never less).

A deterministic slice runs in tier-1; wide sweeps are ``slow``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.generator import random_program
from repro.cache.classify import (
    analyze_cache,
    analyze_l2_must,
    l2_guaranteed_hits,
)
from repro.cache.concrete import ConcreteCache
from repro.cache.config import (
    CacheConfig,
    CacheLevel,
    HierarchyConfig,
    TABLE2,
    hierarchy_for,
    parse_l2_spec,
)
from repro.analysis.pipeline import AnalysisPipeline
from repro.analysis.timing import TimingModel
from repro.analysis.wcet import analyze_wcet, prefetch_lambda
from repro.energy.cacti import cacti_l2_model, cacti_model, hierarchy_model
from repro.energy.technology import TECH_45NM
from repro.errors import (
    AnalysisError,
    CacheConfigError,
    ProtocolError,
    SimulationError,
)
from repro.program.acfg import build_acfg
from repro.program.builder import ProgramBuilder
from repro.program.layout import AddressLayout
from repro.sim.executor import block_trace
from repro.sim.machine import MemorySystem, simulate

#: The L2 point the acceptance sweep uses: 4-way, 16 B blocks, 4 KiB,
#: 6-cycle service time.
L2_SPEC = "4:16:4096:6"


# ----------------------------------------------------------------------
# configuration layer
# ----------------------------------------------------------------------
class TestHierarchyConfig:
    def test_parse_l2_spec_round_trip(self):
        level = parse_l2_spec(L2_SPEC)
        assert level.config == CacheConfig(4, 16, 4096)
        assert level.latency_cycles == 6
        assert level.label() == "(4, 16, 4096)@6"

    @pytest.mark.parametrize("spec", ("4:16:4096", "4:16:4096:6:1", "a:b:c:d"))
    def test_parse_l2_spec_rejects_malformed(self, spec):
        with pytest.raises(CacheConfigError):
            parse_l2_spec(spec)

    def test_single_level_hierarchy(self):
        config = TABLE2["k1"]
        hierarchy = hierarchy_for(config)
        assert not hierarchy.multi_level
        assert hierarchy.l1 == config
        assert hierarchy.l2_level is None
        # the label degenerates to the L1 label: reports stay unchanged
        assert hierarchy.label() == config.label()

    def test_two_level_hierarchy(self):
        config = TABLE2["k1"]
        hierarchy = hierarchy_for(config, L2_SPEC)
        assert hierarchy.multi_level
        assert hierarchy.l2_level == parse_l2_spec(L2_SPEC)
        assert hierarchy.label() == f"{config.label()} | (4, 16, 4096)@6"

    def test_levels_must_share_block_size(self):
        with pytest.raises(CacheConfigError):
            HierarchyConfig((
                CacheLevel(CacheConfig(1, 16, 256), 1),
                CacheLevel(CacheConfig(4, 32, 4096), 6),
            ))

    def test_capacities_must_not_shrink(self):
        with pytest.raises(CacheConfigError):
            HierarchyConfig((
                CacheLevel(CacheConfig(1, 16, 1024), 1),
                CacheLevel(CacheConfig(4, 16, 256), 6),
            ))

    def test_hierarchy_needs_a_level_and_positive_latency(self):
        with pytest.raises(CacheConfigError):
            HierarchyConfig(())
        with pytest.raises(CacheConfigError):
            CacheLevel(CacheConfig(1, 16, 256), 0)


# ----------------------------------------------------------------------
# timing / energy models
# ----------------------------------------------------------------------
class TestHierarchyTiming:
    def test_single_level_timing_bit_identical(self):
        """hierarchy_model on a single level is exactly the legacy
        cacti_model timing — the refactor's central no-op guarantee."""
        for config_id in ("k1", "k15", "k36"):
            config = TABLE2[config_id]
            legacy = cacti_model(config, TECH_45NM).timing_model()
            threaded = hierarchy_model(
                hierarchy_for(config), TECH_45NM
            ).timing
            assert threaded == legacy
            assert threaded.l2_hit_penalty_cycles is None

    def test_two_level_timing_composition(self):
        config = TABLE2["k1"]
        model = hierarchy_model(hierarchy_for(config, L2_SPEC), TECH_45NM)
        l2 = cacti_l2_model(CacheConfig(4, 16, 4096), TECH_45NM)
        timing = model.timing
        assert timing.l2_hit_penalty_cycles == 6
        # full miss = L2 probe leg + L2-to-DRAM refill leg
        assert timing.miss_penalty_cycles == 6 + l2.miss_penalty_cycles
        assert timing.l2_hit_cycles == timing.hit_cycles + 6

    def test_l2_hit_penalty_validation(self):
        with pytest.raises(AnalysisError):
            TimingModel(1, 30, 1, l2_hit_penalty_cycles=0)
        with pytest.raises(AnalysisError):  # L2 service >= DRAM service
            TimingModel(1, 30, 1, l2_hit_penalty_cycles=30)
        with pytest.raises(AnalysisError):  # property needs a second level
            _ = TimingModel(1, 30, 1).l2_hit_cycles


# ----------------------------------------------------------------------
# concrete two-level simulator
# ----------------------------------------------------------------------
@pytest.fixture
def l2_timing() -> TimingModel:
    return TimingModel(
        hit_cycles=1, miss_penalty_cycles=30, prefetch_issue_cycles=1,
        l2_hit_penalty_cycles=6,
    )


class TestTwoLevelMachine:
    L1 = CacheConfig(1, 16, 64)      # 4 sets, conflict heavy
    L2 = CacheConfig(4, 16, 1024)

    def _system(self, l2_timing):
        return MemorySystem(self.L1, l2_timing, l2_config=self.L2)

    def test_l2_requires_a_two_level_timing_model(self, timing):
        with pytest.raises(SimulationError):
            MemorySystem(self.L1, timing, l2_config=self.L2)

    def test_l2_must_share_the_block_size(self, l2_timing):
        with pytest.raises(SimulationError):
            MemorySystem(self.L1, l2_timing,
                         l2_config=CacheConfig(4, 32, 1024))

    def test_cold_miss_fills_both_levels(self, l2_timing):
        system = self._system(l2_timing)
        assert system.fetch(0) == l2_timing.miss_cycles
        r = system.result
        assert (r.demand_misses, r.l2_accesses, r.l2_hits, r.l2_fills) == (
            1, 1, 0, 1)

    def test_l1_victim_is_served_by_l2(self, l2_timing):
        system = self._system(l2_timing)
        system.fetch(0)        # block 0 -> L1 + L2
        system.fetch(64)       # same L1 set: evicts block 0 from L1
        cycles = system.fetch(0)
        assert cycles == l2_timing.l2_hit_cycles
        assert system.result.l2_hits == 1
        # the L2 transfer never reached DRAM
        counts = system.result.event_counts()
        assert counts.dram_transfers == counts.demand_misses - 1

    def test_l1_hit_never_probes_l2(self, l2_timing):
        system = self._system(l2_timing)
        system.fetch(0)
        system.fetch(4)        # same block: L1 hit
        assert system.result.l2_accesses == 1  # only the cold miss

    def test_prefetch_served_from_l2_is_faster(self, l2_timing):
        system = self._system(l2_timing)
        system.fetch(0)        # warm block 0 into both levels
        system.fetch(64)       # evict it from L1 (stays in L2)
        assert system.issue_prefetch(0) is True
        assert system.result.prefetch_l2_hits == 1
        # the transfer completes after the L2 penalty, not Λ
        system.fetch(64)       # one L1 hit: 1 cycle < 6 remain
        remaining = l2_timing.l2_hit_penalty_cycles - 1
        cycles = system.fetch(0)
        assert cycles == l2_timing.hit_cycles + remaining

    def test_prefetch_from_dram_installs_into_l2_on_arrival(self, l2_timing):
        system = self._system(l2_timing)
        assert system.issue_prefetch(9) is True
        assert system.result.prefetch_l2_hits == 0
        for _ in range(l2_timing.prefetch_latency + 1):
            system.fetch(0)
        assert system.result.l2_fills >= 2  # block 0's miss + the arrival
        system.fetch(64)              # evict block 9's set-mate? no: warm L2
        # after eviction from L1 the prefetched block still sits in L2
        system.fetch(9 * 16 + 64)     # evict block 9 from its L1 set
        assert system.fetch(9 * 16) == l2_timing.l2_hit_cycles

    def test_simulate_results_validate(self, l2_timing):
        cfg = random_program(7, target_size=80)
        result = simulate(cfg, self.L1, l2_timing, l2_config=self.L2)
        result.validate()
        assert result.l2_accesses > 0
        assert result.l2_hits <= result.l2_accesses
        counts = result.event_counts()
        assert counts.l2_accesses == result.l2_accesses
        assert counts.dram_transfers == (
            result.demand_misses + result.prefetch_transfers - result.l2_hits
        )

    def test_single_level_run_unchanged_by_two_level_timing(self, timing,
                                                            l2_timing):
        """Without an L2 the richer timing model must not perturb the
        simulation: same cycles, same counters as the legacy model."""
        cfg = random_program(3, target_size=80)
        legacy = simulate(cfg, self.L1, timing)
        plain = simulate(cfg, self.L1, l2_timing)
        assert plain.memory_cycles == legacy.memory_cycles
        assert plain.demand_misses == legacy.demand_misses
        assert plain.l2_accesses == 0


# ----------------------------------------------------------------------
# abstract multi-level analysis vs. the concrete two-level machine
# ----------------------------------------------------------------------
#: Small conflicty L1s under a larger L2 — the regime where L2-hit
#: classification has something to prove.
HIERARCHIES = tuple(
    hierarchy_for(l1, spec)
    for l1, spec in (
        (CacheConfig(1, 16, 256), "4:16:2048:6"),
        (CacheConfig(2, 16, 128), "4:16:1024:8"),
        (CacheConfig(1, 16, 64), L2_SPEC),
    )
)


def _two_level_outcomes(cfg, hierarchy, seed):
    """Replay one concrete run through an L1+L2 pair.

    Yields ``(uid, l1_hit, l2_hit)`` per dynamic fetch; ``l2_hit`` is
    ``None`` when L1 already served the fetch.
    """
    l1_config = hierarchy.l1
    l2_config = hierarchy.l2_level.config
    layout = AddressLayout(cfg)
    l1 = ConcreteCache(l1_config)
    l2 = ConcreteCache(l2_config)
    for block in block_trace(cfg, seed=seed):
        for instr in block.instructions:
            mem_block = l1_config.block_of_address(layout.address(instr.uid))
            l1_hit = l1.access(mem_block)
            l2_hit = None if l1_hit else l2.access(mem_block)
            yield instr.uid, l1_hit, l2_hit


def _analyze_two_levels(acfg, hierarchy):
    """The L1 classification plus the L2 must stage and its guaranteed
    hits, composed as :func:`analyze_wcet` composes them."""
    analysis = analyze_cache(acfg, hierarchy.l1)
    analysis.l2_must = analyze_l2_must(
        acfg, hierarchy.l2_level.config, analysis.classifications,
        may=analysis.may,
    )
    analysis.l2_hits = l2_guaranteed_hits(
        acfg, analysis.classifications, analysis.l2_must
    )
    return analysis


def _assert_l2_classification_never_optimistic(program_seed, hierarchy,
                                               run_seeds):
    cfg = random_program(program_seed, target_size=90)
    acfg = build_acfg(cfg, block_size=hierarchy.l1.block_size)
    analysis = _analyze_two_levels(acfg, hierarchy)
    assert analysis.l2_hits is not None
    # a uid is L2-guaranteed only when *every* context of it is
    guaranteed_rids = analysis.l2_hits
    per_uid: dict = {}
    for vertex in acfg.ref_vertices():
        per_uid.setdefault(vertex.instr.uid, []).append(
            vertex.rid in guaranteed_rids
        )
    guaranteed_uids = {
        uid for uid, flags in per_uid.items() if all(flags)
    }
    for run_seed in run_seeds:
        for uid, l1_hit, l2_hit in _two_level_outcomes(
            cfg, hierarchy, run_seed
        ):
            if uid in guaranteed_uids and not l1_hit:
                assert l2_hit, (
                    f"L2-guaranteed uid {uid} reached DRAM concretely "
                    f"(program seed {program_seed}, {hierarchy.label()})"
                )
    return guaranteed_uids


def _thrash_program(body_instructions=60, iterations=10):
    """A single top-level loop whose body overflows a small L1.

    The working set (~16 blocks for the default size) thrashes a 4-set
    L1 every iteration but fits comfortably in every test L2, so the
    REST-context references are exactly the regime where the
    multi-level analysis must prove L2 residency.
    """
    b = ProgramBuilder("l2-thrash")
    b.code(4)
    with b.loop(bound=iterations + 2, sim_iterations=iterations):
        b.code(body_instructions)
    b.code(2)
    return b.build()


def _assert_per_context_l2_claims_hold(cfg, hierarchy, run_seeds):
    """Check every per-context L2-hit claim against concrete replays.

    Only valid for single-top-level-loop programs (asserted below):
    there, the *k*-th dynamic occurrence of a uid is governed by its
    FIRST context when ``k == 1`` and its REST context otherwise, so
    each claimed rid can be confronted with exactly the fetches it
    speaks for.  Returns the number of L2-guaranteed rids so callers
    can assert the check was not vacuous.
    """
    acfg = build_acfg(cfg, block_size=hierarchy.l1.block_size)
    analysis = _analyze_two_levels(acfg, hierarchy)
    assert analysis.l2_hits is not None
    contexts_of: dict = {}
    for vertex in acfg.ref_vertices():
        kinds = tuple(el.kind for el in vertex.context)
        assert kinds in ((), ("F",), ("R",)), (
            "the occurrence-to-context mapping needs a single flat loop"
        )
        contexts_of.setdefault(vertex.instr.uid, {})[kinds] = vertex.rid
    for run_seed in run_seeds:
        occurrences: dict = {}
        for uid, l1_hit, l2_hit in _two_level_outcomes(
            cfg, hierarchy, run_seed
        ):
            occurrences[uid] = occurrences.get(uid, 0) + 1
            by_ctx = contexts_of[uid]
            if len(by_ctx) == 1:
                rid = next(iter(by_ctx.values()))
            elif occurrences[uid] == 1:
                rid = by_ctx[("F",)]
            else:
                rid = by_ctx[("R",)]
            if rid in analysis.l2_hits and not l1_hit:
                assert l2_hit, (
                    f"rid {rid} (uid {uid}, occurrence {occurrences[uid]}) "
                    f"claimed L2-guaranteed but reached DRAM "
                    f"({hierarchy.label()})"
                )
    return len(analysis.l2_hits)


class TestMultiLevelDeterministic:
    @pytest.mark.parametrize(
        "hierarchy", HIERARCHIES, ids=lambda h: h.label())
    @pytest.mark.parametrize("program_seed", (3, 17))
    def test_l2_guarantees_sound_on_generated_programs(
        self, program_seed, hierarchy
    ):
        _assert_l2_classification_never_optimistic(
            program_seed, hierarchy, run_seeds=(0, 1)
        )

    @pytest.mark.parametrize(
        "hierarchy", HIERARCHIES[1:], ids=lambda h: h.label())
    def test_per_context_l2_claims_sound_on_thrashing_loop(self, hierarchy):
        """Every per-context L2-hit claim survives concrete replay on a
        loop that thrashes L1 (where such claims actually exist)."""
        _assert_per_context_l2_claims_hold(
            _thrash_program(), hierarchy, run_seeds=(0, 1)
        )

    def test_analysis_proves_some_l2_hits(self):
        """Meaningfulness guard: on a conflicty L1 under a roomy L2 the
        multi-level analysis must actually prove L2 residency somewhere
        (otherwise the soundness assertions above test nothing).  The
        REST contexts of an L1-thrashing loop are the canonical case:
        iteration one definitely misses L1 (filling L2), so from
        iteration two on every leading reference is an L1 miss served
        by the L2 must state."""
        found = _assert_per_context_l2_claims_hold(
            _thrash_program(), HIERARCHIES[2], run_seeds=()
        )
        assert found > 0

    def test_l2_charging_strictly_tightens_on_thrashing_loop(self):
        """On the thrashing loop the two-level bound must be strictly
        below the single-level bound: REST-context always-misses are
        charged the L2 service time instead of the DRAM round trip."""
        hierarchy = HIERARCHIES[2]
        timing_two = hierarchy_model(hierarchy, TECH_45NM).timing
        timing_one = TimingModel(
            hit_cycles=timing_two.hit_cycles,
            miss_penalty_cycles=timing_two.miss_penalty_cycles,
            prefetch_issue_cycles=timing_two.prefetch_issue_cycles,
        )
        cfg = _thrash_program()
        acfg = build_acfg(cfg, block_size=hierarchy.l1.block_size)
        one = analyze_wcet(acfg, hierarchy.l1, timing_one)
        two = analyze_wcet(acfg, hierarchy.l1, timing_two,
                           hierarchy=hierarchy)
        assert two.tau_w < one.tau_w
        assert two.wcet_path_l2_hits > 0
        assert two.wcet_path_misses == one.wcet_path_misses

    def test_l2_charging_tightens_but_never_undercuts_concrete(self):
        """τ_w of the two-level analysis is at most the single-level
        bound (L2 hits replace DRAM charges) and never below the L1
        hit-everything floor."""
        hierarchy = HIERARCHIES[0]
        timing_two = hierarchy_model(hierarchy, TECH_45NM).timing
        # same DRAM distance, no second level
        timing_one = TimingModel(
            hit_cycles=timing_two.hit_cycles,
            miss_penalty_cycles=timing_two.miss_penalty_cycles,
            prefetch_issue_cycles=timing_two.prefetch_issue_cycles,
        )
        for seed in (3, 17):
            cfg = random_program(seed, target_size=90)
            acfg = build_acfg(cfg, block_size=hierarchy.l1.block_size)
            one = analyze_wcet(acfg, hierarchy.l1, timing_one)
            two = analyze_wcet(acfg, hierarchy.l1, timing_two,
                               hierarchy=hierarchy)
            assert two.tau_w <= one.tau_w
            assert two.wcet_path_misses == one.wcet_path_misses

    def test_single_level_hierarchy_is_a_no_op(self):
        """Threading an explicit one-level hierarchy changes nothing —
        the bit-identity half of the contract at the analysis layer."""
        config = CacheConfig(1, 16, 256)
        timing = TimingModel(1, 30, 1)
        cfg = random_program(11, target_size=90)
        acfg = build_acfg(cfg, block_size=config.block_size)
        plain = analyze_wcet(acfg, config, timing)
        threaded = analyze_wcet(acfg, config, timing,
                                hierarchy=hierarchy_for(config))
        assert threaded.tau_w == plain.tau_w
        assert threaded.t_w == plain.t_w
        assert threaded.wcet_path_l2_hits == 0

    def test_prefetch_lambda_shrinks_for_l2_resident_targets(self):
        """prefetch_lambda returns Λ for DRAM-distance targets and the
        L2 penalty when the L2 must-state pins the target."""
        hierarchy = HIERARCHIES[0]
        timing = hierarchy_model(hierarchy, TECH_45NM).timing
        cfg = random_program(3, target_size=90)
        acfg = build_acfg(cfg, block_size=hierarchy.l1.block_size)
        wcet = analyze_wcet(acfg, hierarchy.l1, timing, hierarchy=hierarchy)
        lambdas = {
            prefetch_lambda(wcet.cache, timing, v.rid, acfg.block_of(v.rid))
            for v in acfg.ref_vertices()
        }
        assert lambdas <= {timing.prefetch_latency,
                           timing.l2_hit_penalty_cycles}


# ----------------------------------------------------------------------
# golden corpus: pinned multi-level states, reproduced by the python
# oracle (analyze_wcet) and by the dense pipeline
# ----------------------------------------------------------------------
HIERARCHY_GOLDEN_DIR = Path(__file__).parent / "data" / "hierarchy_golden"


def serialize_hierarchy_analysis(acfg, analysis) -> str:
    """Canonical rendering of a multi-level analysis.

    Classifications, the L2-guaranteed rid set and every L2 must
    fixpoint state; the oracle and the pipeline must reproduce it byte
    for byte (the dense L2 pass replays the python plan, so the whole
    document is kernel-independent).
    """
    from tests.test_kernel_equivalence import _state_repr

    lines = ["[classifications]"]
    for rid in range(len(acfg.vertices)):
        cls = analysis.classifications[rid]
        lines.append(f"{rid} {cls.name if cls is not None else '-'}")
    lines.append("[l2-hits]")
    lines.append(",".join(map(str, sorted(analysis.l2_hits))))
    for direction in ("in", "out"):
        lines.append(f"[l2-must.{direction}]")
        states = (
            analysis.l2_must.in_states if direction == "in"
            else analysis.l2_must.out_states
        )
        for rid in range(len(acfg.vertices)):
            lines.append(f"{rid} {_state_repr(states[rid])}")
    return "\n".join(lines) + "\n"


def _hierarchy_golden_files():
    return sorted(HIERARCHY_GOLDEN_DIR.glob("*.json"))


def _analyze_golden_point(document, kernel):
    """One golden point's analysis: ``python`` is the oracle,
    ``analyze_wcet``; ``vectorized`` a pipeline, whose L2 stage is the
    dense pass."""
    from repro.bench.registry import load

    config = TABLE2[document["config"]]
    hierarchy = hierarchy_for(config, document["l2"])
    timing = hierarchy_model(hierarchy, TECH_45NM).timing
    cfg = load(document["program"])
    if kernel == "python":
        wcet = analyze_wcet(build_acfg(cfg, config.block_size), config,
                            timing, hierarchy=hierarchy)
    else:
        wcet = AnalysisPipeline(
            config, timing, hierarchy=hierarchy
        ).analyze(cfg).wcet
    return wcet.acfg, wcet.cache


class TestHierarchyGoldenCorpus:
    def test_corpus_not_empty(self):
        assert _hierarchy_golden_files(), (
            f"no golden states under {HIERARCHY_GOLDEN_DIR}"
        )

    @pytest.mark.parametrize(
        "path", _hierarchy_golden_files(), ids=lambda p: p.stem
    )
    @pytest.mark.parametrize("kernel", ("python", "vectorized"))
    def test_kernel_reproduces_golden_multi_level_states(self, path, kernel):
        document = json.loads(path.read_text())
        acfg, analysis = _analyze_golden_point(document, kernel)
        payload = serialize_hierarchy_analysis(acfg, analysis)
        digest = hashlib.sha256(payload.encode()).hexdigest()
        assert digest == document["sha256"], (
            f"{kernel} kernel diverged from golden corpus {path.name}"
        )
        assert payload == document["payload"]


# ----------------------------------------------------------------------
# the hierarchy as a grid axis: sweep, CLI, protocol
# ----------------------------------------------------------------------
class TestHierarchyProtocol:
    def test_fabric_sweep_accepts_the_l2_axis(self):
        """A distributed sweep submission is a ``sweep`` job; its
        ``l2`` axis survives parsing in canonical form."""
        from repro.service.protocol import parse_job

        req = parse_job({"kind": "sweep", "params": dict(
            programs=["bs"], configs=["k1"], techs=["45nm"],
            budget=10, l2=[L2_SPEC],
        )})
        assert req.params_dict()["l2"] == [L2_SPEC]

    @pytest.mark.parametrize("bad", ("4:16", "4:16:4096:0", 7, []))
    def test_bad_l2_specs_are_rejected(self, bad):
        from repro.service.protocol import parse_job

        with pytest.raises(ProtocolError, match="l2"):
            parse_job({"kind": "sweep",
                       "params": {"l2": bad if bad == [] else [bad]}})

    def test_fingerprints_without_l2_stay_pre_hierarchy_stable(self):
        """The canonical form only gains an ``l2`` key when the axis is
        requested — omitting it must hash exactly like a submission
        from before the hierarchy existed."""
        from repro.service.protocol import parse_job

        base = parse_job({"kind": "sweep",
                          "params": {"programs": ["bs"]}})
        assert "l2" not in dict(base.params)
        with_l2 = parse_job({"kind": "sweep",
                             "params": {"programs": ["bs"],
                                        "l2": [L2_SPEC]}})
        assert base.fingerprint() != with_l2.fingerprint()

    def test_shard_cases_round_trip_l2_quadruples(self):
        from repro.experiments.scenario import spec_from_params
        from repro.service.protocol import parse_job

        grid = dict(programs=["bs"], configs=["k1"], techs=["45nm"],
                    budget=10)
        req = parse_job({"kind": "sweep",
                         "params": dict(grid, l2=[L2_SPEC, None])})
        rows = [case.row() for case in
                spec_from_params(req.params_dict()).usecases()]
        assert rows[0] == ["bs", "k1", "45nm", L2_SPEC]
        # a null L2 normalises to the triple: same case row, canonical
        # form and fingerprint as a pre-hierarchy submission
        assert rows[1] == ["bs", "k1", "45nm"]
        plain = parse_job({"kind": "sweep", "params": grid})
        null = parse_job({"kind": "sweep", "params": dict(grid, l2=None)})
        assert null == plain
        assert null.fingerprint() == plain.fingerprint()


class TestHierarchySweep:
    @pytest.fixture(autouse=True)
    def _cold_cache(self, monkeypatch):
        from repro.experiments import sweep as sweep_module

        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        monkeypatch.setattr(sweep_module, "_SWEEP_CACHE", {})

    def test_l2_axis_expands_innermost_with_per_level_json(self):
        from repro.experiments.report import sweep_case_to_json
        from repro.experiments.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            programs=("bs",), config_ids=("k1",), techs=("45nm",),
            max_evaluations=10, l2_specs=(None, L2_SPEC),
        )
        cases = spec.usecases()
        assert [c.l2 for c in cases] == [None, L2_SPEC]
        results = run_sweep(spec, use_cache=False, workers=1)
        single, multi = (sweep_case_to_json(r) for r in results)
        assert "l2" not in single
        assert multi["l2"] == L2_SPEC
        assert multi["l2_hit_penalty_cycles"] == 6
        for side in ("l2_original", "l2_optimized"):
            level = multi[side]
            assert level["hits"] <= level["accesses"]
            assert level["dynamic_j"] > 0
            assert level["static_j"] > 0
        # the single-level half of the grid is the pre-hierarchy doc
        assert single["program"] == multi["program"] == "bs"

    @pytest.mark.slow
    def test_acceptance_grid_runs_end_to_end(self):
        """The acceptance sweep: bs/crc/ndes x k1/k15 x one L2 point,
        with per-level energy in every case document."""
        from repro.experiments.report import sweep_to_json
        from repro.experiments.sweep import SweepSpec, run_sweep

        spec = SweepSpec(
            programs=("bs", "crc", "ndes"), config_ids=("k1", "k15"),
            techs=("45nm",), max_evaluations=10, l2_specs=(L2_SPEC,),
        )
        results = run_sweep(spec, use_cache=False)
        document = sweep_to_json(results)
        assert document["summary"]["cases"] == 6
        for case in document["cases"]:
            assert case["l2"] == L2_SPEC
            assert case["l2_optimized"]["dynamic_j"] > 0


class TestHierarchyCLI:
    @pytest.fixture(autouse=True)
    def _cold_cache(self, monkeypatch):
        from repro.experiments import sweep as sweep_module

        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        monkeypatch.setattr(sweep_module, "_SWEEP_CACHE", {})

    def test_sweep_l2_flag_reaches_the_json_document(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--programs", "bs", "--configs", "k1",
                     "--techs", "45nm", "--budget", "10",
                     "--l2", L2_SPEC, "--workers", "1", "--no-cache",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert [c["l2"] for c in document["cases"]] == [L2_SPEC]
        assert document["cases"][0]["l2_hit_penalty_cycles"] == 6

    def test_optimize_reports_the_hierarchy(self, capsys):
        from repro.cli import main

        assert main(["optimize", "bs", "k1", "45nm", "--budget", "10",
                     "--l2", L2_SPEC]) == 0
        out = capsys.readouterr().out
        assert "(4, 16, 4096)@6" in out

    def test_usecase_prints_the_l2_hit_rate(self, capsys):
        from repro.cli import main

        assert main(["usecase", "bs", "k1", "45nm",
                     "--l2", L2_SPEC]) == 0
        out = capsys.readouterr().out
        assert "L2 hit rate" in out


@pytest.mark.slow
class TestMultiLevelPropertyBased:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        hierarchy=st.sampled_from(HIERARCHIES),
    )
    def test_l2_guarantees_sound_across_hierarchies(
        self, program_seed, hierarchy
    ):
        _assert_l2_classification_never_optimistic(
            program_seed, hierarchy, run_seeds=(0, 1, 2)
        )
