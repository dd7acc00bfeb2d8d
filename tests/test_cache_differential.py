"""Differential tests: abstract cache analysis vs. the concrete cache.

The abstract must/may domains are only useful if they are *never
optimistic* with respect to the concrete LRU semantics they abstract
(Touzeau et al., arXiv:1701.08030, build an entire exact model just to
cross-check such classifications).  Two layers of comparison:

* **state level** — driving :class:`MustState`/:class:`MayState` and a
  :class:`ConcreteCache` in lockstep over random access sequences, the
  simulation relation must hold after every access: every must-block is
  cached with concrete age ≤ its must age, and every cached block is in
  the may state with concrete age ≥ its may age;
* **program level** — over generated programs, a reference classified
  always-hit (in every context) must never miss in the trace simulator,
  and always-miss must never hit, across direct-mapped and
  set-associative configurations.

A deterministic slice runs in tier-1; the wide hypothesis sweeps are
marked ``slow``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import random_program
from repro.cache.abstract import MayState, MustState
from repro.cache.classify import Classification, analyze_cache
from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.program.acfg import build_acfg
from repro.program.layout import AddressLayout
from repro.sim.executor import block_trace

#: Direct-mapped and set-associative shapes, small enough to evict.
STATE_CONFIGS = (
    CacheConfig(1, 16, 64),    # direct-mapped, 4 sets
    CacheConfig(1, 16, 256),   # direct-mapped, 16 sets
    CacheConfig(2, 16, 128),   # 2-way, 4 sets
    CacheConfig(4, 16, 128),   # 4-way, 2 sets
    CacheConfig(2, 32, 256),   # 2-way, larger blocks
)

PROGRAM_CONFIGS = (
    CacheConfig(1, 16, 256),   # direct-mapped
    CacheConfig(2, 16, 256),   # set-associative
    CacheConfig(4, 32, 512),   # wider blocks, more ways
)


def _assert_simulation_relation(must, may, concrete, config):
    """The soundness relation between abstract and concrete state."""
    cached = set(concrete.cached_blocks())
    for block in must.blocks():
        # must is an under-approximation with age upper bounds
        assert concrete.contains(block), (
            f"must-state block {block} absent from the concrete cache"
        )
        assert concrete.age_of(block) <= must.age_of(block)
    for block in cached:
        # may is an over-approximation with age lower bounds
        assert block in may, (
            f"cached block {block} missing from the may state"
        )
        assert may.age_of(block) <= concrete.age_of(block)


def _run_sequence(config, sequence):
    must = MustState(config)
    may = MayState(config)
    concrete = ConcreteCache(config)
    for block in sequence:
        # predictions from the *pre*-access states
        if block in must:
            assert concrete.contains(block), (
                f"must predicted a hit for block {block}, concrete misses"
            )
        if block not in may:
            assert not concrete.contains(block), (
                f"may excluded block {block}, concrete hits"
            )
        concrete.access(block)
        must = must.update(block)
        may = may.update(block)
        _assert_simulation_relation(must, may, concrete, config)
    return must, may, concrete


class TestStateLevelDeterministic:
    @pytest.mark.parametrize("config", STATE_CONFIGS, ids=lambda c: c.label())
    def test_thrashing_sequence(self, config):
        # cycle through more blocks than any set holds, twice
        blocks = list(range(3 * config.num_blocks)) * 2
        _run_sequence(config, blocks)

    @pytest.mark.parametrize("config", STATE_CONFIGS, ids=lambda c: c.label())
    def test_repeating_working_set(self, config):
        working_set = list(range(config.associativity + 1))
        _run_sequence(config, working_set * 5)

    def test_join_never_invents_must_blocks(self):
        """After a join, the must state only keeps common blocks — the
        classification can therefore never claim a hit one path lacks."""
        config = CacheConfig(2, 16, 128)
        left = MustState(config).update(1).update(2)
        right = MustState(config).update(3).update(2)
        joined = left.join(right)
        for concrete_path in ([1, 2], [3, 2]):
            concrete = ConcreteCache(config)
            for block in concrete_path:
                concrete.access(block)
            for block in joined.blocks():
                assert concrete.contains(block)

    def test_join_keeps_every_possibly_cached_block_in_may(self):
        config = CacheConfig(2, 16, 128)
        left = MayState(config).update(1).update(2)
        right = MayState(config).update(3)
        joined = left.join(right)
        assert {1, 2, 3} <= set(joined.blocks())


@pytest.mark.slow
class TestStateLevelPropertyBased:
    @settings(max_examples=120, deadline=None)
    @given(
        config=st.sampled_from(STATE_CONFIGS),
        sequence=st.lists(
            st.integers(min_value=0, max_value=40), min_size=0, max_size=60
        ),
    )
    def test_abstract_never_optimistic_on_any_sequence(self, config, sequence):
        _run_sequence(config, sequence)

    @settings(max_examples=60, deadline=None)
    @given(
        config=st.sampled_from(STATE_CONFIGS),
        prefix=st.lists(st.integers(0, 20), max_size=25),
        left=st.lists(st.integers(0, 20), max_size=10),
        right=st.lists(st.integers(0, 20), max_size=10),
        suffix=st.lists(st.integers(0, 20), max_size=15),
    )
    def test_joined_state_sound_for_both_branches(
        self, config, prefix, left, right, suffix
    ):
        """Branch-shaped flows: the joined abstract state must be sound
        for the concrete execution of either arm."""
        base_must = MustState(config)
        base_may = MayState(config)
        for block in prefix:
            base_must = base_must.update(block)
            base_may = base_may.update(block)
        arms_must, arms_may = [], []
        for arm in (left, right):
            must, may = base_must, base_may
            for block in arm:
                must = must.update(block)
                may = may.update(block)
            arms_must.append(must)
            arms_may.append(may)
        must = arms_must[0].join(arms_must[1])
        may = arms_may[0].join(arms_may[1])
        for arm in (left, right):
            concrete = ConcreteCache(config)
            for block in prefix + arm:
                concrete.access(block)
            state_must, state_may = must, may
            for block in suffix:
                if block in state_must:
                    assert concrete.contains(block)
                if block not in state_may:
                    assert not concrete.contains(block)
                concrete.access(block)
                state_must = state_must.update(block)
                state_may = state_may.update(block)
                _assert_simulation_relation(
                    state_must, state_may, concrete, config
                )


# ----------------------------------------------------------------------
# program level: classifications vs. the trace simulator
# ----------------------------------------------------------------------
def _concrete_outcomes(cfg, config, seed):
    """Replay one concrete run; yields (uid, hit) per dynamic fetch."""
    layout = AddressLayout(cfg)
    cache = ConcreteCache(config)
    for block in block_trace(cfg, seed=seed):
        for instr in block.instructions:
            mem_block = config.block_of_address(layout.address(instr.uid))
            yield instr.uid, cache.access(mem_block)


def _assert_classification_never_optimistic(program_seed, config, run_seeds):
    cfg = random_program(program_seed, target_size=90)
    acfg = build_acfg(cfg, block_size=config.block_size)
    analysis = analyze_cache(acfg, config)
    per_uid = {}
    for rid in acfg.ref_rids:
        per_uid.setdefault(acfg.instr[rid].uid, set()).add(
            analysis.classification(rid)
        )
    for run_seed in run_seeds:
        for uid, hit in _concrete_outcomes(cfg, config, run_seed):
            classes = per_uid[uid]
            if classes == {Classification.ALWAYS_HIT}:
                assert hit, (
                    f"always-hit uid {uid} missed concretely (program "
                    f"seed {program_seed}, {config.label()})"
                )
            if classes == {Classification.ALWAYS_MISS}:
                assert not hit, (
                    f"always-miss uid {uid} hit concretely (program "
                    f"seed {program_seed}, {config.label()})"
                )


class TestProgramLevelDeterministic:
    @pytest.mark.parametrize("config", PROGRAM_CONFIGS, ids=lambda c: c.label())
    @pytest.mark.parametrize("program_seed", (3, 17))
    def test_classification_sound_on_generated_programs(
        self, program_seed, config
    ):
        _assert_classification_never_optimistic(
            program_seed, config, run_seeds=(0, 1)
        )


@pytest.mark.slow
class TestProgramLevelPropertyBased:
    @settings(max_examples=20, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        config=st.sampled_from(PROGRAM_CONFIGS),
    )
    def test_classification_sound_across_configs(self, program_seed, config):
        _assert_classification_never_optimistic(
            program_seed, config, run_seeds=(0, 1, 2)
        )


# ----------------------------------------------------------------------
# kernel vs oracle: the dense fixpoint's transfer against the python domains
# ----------------------------------------------------------------------
# The vectorized kernel (repro.cache.kernel) runs the three abstract
# domains as int8 age rows stacked into one batch, and its fixpoint has
# exactly two pieces of transfer code: replay_segment (a segment's
# accesses) and join_rows (a predecessor's join).  Their contract is
# *bit-identity*, not mere soundness: every access and join must land on
# exactly the state the python oracle produces, so this section drives
# those two functions and the oracle in lockstep and converts every row
# back through row_to_state after each access.  The dense kernel has no
# unknown-access transfer; the oracle's is covered by
# tests/test_data_analysis.py.

import numpy as np

from repro.bench.registry import load
from repro.cache.classify import (
    analyze_l2_must,
    l2_guaranteed_hits,
)
from repro.cache.config import TABLE2, hierarchy_for
from repro.cache.kernel import (
    BATCH_ORDER,
    BlockUniverse,
    KernelSchedule,
    classify_references_dense,
    join_rows,
    l2_hits_dense,
    l2_schedule,
    propagate_kernel_batch,
    replay_segment,
    row_to_state,
    state_to_row,
)
from repro.cache.persistence import PersistenceState

DOMAIN_ORACLES = {
    "must": MustState,
    "may": MayState,
    "persistence": PersistenceState,
}
DOMAINS = tuple(DOMAIN_ORACLES)

#: Every Table 2 grid point (36 configurations) — the slow sweep runs
#: the full grid, tier-1 a capacity/associativity-spanning slice.
FULL_GRID = tuple(TABLE2.values())
TIER1_GRID = tuple(TABLE2[k] for k in ("k1", "k8", "k15", "k22", "k30", "k36"))

#: Sets a generated sequence touches, spread over the index range.
SETS_TOUCHED = 4

#: Raw draws of the generated sequences; :func:`_blocks` maps them onto
#: ``SETS_TOUCHED`` sets x up to six tags (associativity 4 + 2).
RAW_SPAN = SETS_TOUCHED * 6
RAW_BLOCKS = st.integers(min_value=0, max_value=RAW_SPAN - 1)


def _width(config):
    """Columns of a config's test universe: ``associativity + 2`` tags
    per set, so every set of every configuration can age and evict."""
    return (config.associativity + 2) * config.num_sets


def _blocks(config, raw):
    """Block ids for raw draws: a few sets spread over the index range,
    ``associativity + 2`` tags each, so a short sequence ages and evicts
    lines even in a cache with hundreds of sets."""
    sets = min(SETS_TOUCHED, config.num_sets)
    stride = config.num_sets // sets
    tags = config.associativity + 2
    return [
        (r % sets) * stride + config.num_sets * ((r // sets) % tags)
        for r in raw
    ]


def _num_max(order):
    """Leading rows the fixpoint joins by max: every domain but may,
    which :data:`BATCH_ORDER` stacks last."""
    return sum(name != "may" for name in order)


def _dual_start(config, order):
    """Initial oracle states and their stacked dense batch."""
    universe = BlockUniverse(config, 0, _width(config))
    states = [DOMAIN_ORACLES[name](config) for name in order]
    batch = np.stack([state_to_row(state, universe) for state in states])
    return states, batch, universe


def _assert_rows_match(order, batch, states, universe, context=""):
    """Every row decodes to its domain's state and re-encodes to itself."""
    for name, row, state in zip(order, batch, states):
        assert row_to_state(name, row, universe) == state, (
            f"{name} diverged {context}on {universe.config.label()}"
        )
        assert state_to_row(state, universe).tobytes() == row.tobytes()


def _replay_lockstep(order, states, batch, universe, blocks, maybe=None):
    """Replay ``blocks`` on ``batch`` (in place) as one segment and on
    the oracle states; assert bit-identity after every access.

    Each access sits on its own vertex followed by an access-free one,
    so the replay's fill of rows without an access is checked too.
    ``maybe`` flags uncertain accesses (the L2 must pass's op), which
    the oracle runs as ``join(update(s, b), s)``.
    """
    config = universe.config
    maybe = maybe or [False] * len(blocks)
    ops = tuple(
        (2 * i, universe.column(block),
         universe.column(block) % config.num_sets, uncertain)
        for i, (block, uncertain) in enumerate(zip(blocks, maybe))
    )
    out = np.empty((2 * len(blocks),) + batch.shape, dtype=np.int8)
    replay_segment(batch, ops, out, config.num_sets, config.associativity)
    for step, (block, uncertain) in enumerate(zip(blocks, maybe)):
        if uncertain:
            states = [state.join(state.update(block)) for state in states]
        else:
            states = [state.update(block) for state in states]
        _assert_rows_match(order, out[2 * step], states, universe,
                           f"at step {step} (access {block}) ")
        assert out[2 * step + 1].tobytes() == out[2 * step].tobytes()
    _assert_rows_match(order, batch, states, universe, "after the segment ")
    return states


def _joined(order, batch_a, batch_b):
    """``join_rows`` of two batches, leaving both operands intact."""
    joined = batch_a.copy()
    join_rows(joined, batch_b, _num_max(order))
    return joined


def _run_dual_sequence(config, domain, sequence):
    """Drive oracle and dense replay in lockstep on a one-row batch;
    assert bit-identity after every access (both decode and encode
    directions)."""
    order = (domain,)
    states, batch, universe = _dual_start(config, order)
    _assert_rows_match(order, batch, states, universe, "initially ")
    _replay_lockstep(order, states, batch, universe, sequence)


def _dual_states(config, domain, sequence):
    order = (domain,)
    states, batch, universe = _dual_start(config, order)
    (state,) = _replay_lockstep(order, states, batch, universe, sequence)
    return state, batch, universe


def _assert_joins_agree(config, domain, seq_a, seq_b):
    """Joins agree across kernels, commute, and are extensive upper
    bounds in the domain order (monotonicity of the lattice join)."""
    order = (domain,)
    state_a, row_a, universe = _dual_states(config, domain, seq_a)
    state_b, row_b, _ = _dual_states(config, domain, seq_b)

    joined = state_a.join(state_b)
    joined_row = _joined(order, row_a, row_b)

    # cross-kernel bit-identity of the join itself
    _assert_rows_match(order, joined_row, [joined], universe, "at the join ")

    # commutativity, in both kernels
    assert state_b.join(state_a) == joined
    assert _joined(order, row_b, row_a).tobytes() == joined_row.tobytes()

    # idempotence, in both kernels
    assert state_a.join(state_a) == state_a
    assert _joined(order, row_a, row_a).tobytes() == row_a.tobytes()

    # the join is an upper bound of both operands (ages only grow for
    # the max-join domains, only shrink for may) — dense rows make the
    # lattice order directly comparable
    if domain == "may":
        assert (joined_row <= row_a).all() and (joined_row <= row_b).all()
    else:
        assert (joined_row >= row_a).all() and (joined_row >= row_b).all()

    # joining again with either operand changes nothing (absorption)
    assert joined.join(state_a) == joined
    assert _joined(order, joined_row, row_a).tobytes() == joined_row.tobytes()


def _run_branch(config, order, prefix, seq_a, seq_b, suffix):
    """Branch-shaped flow on a stacked batch: prefix, two arms,
    ``join_rows``, suffix — lockstep with the oracle at every access
    and at the join."""
    states, batch, universe = _dual_start(config, order)
    states = _replay_lockstep(order, states, batch, universe, prefix)
    arm_b = batch.copy()
    states_a = _replay_lockstep(order, states, batch, universe, seq_a)
    states_b = _replay_lockstep(order, states, arm_b, universe, seq_b)
    join_rows(batch, arm_b, _num_max(order))
    states = [a.join(b) for a, b in zip(states_a, states_b)]
    _assert_rows_match(order, batch, states, universe, "at the join ")
    _replay_lockstep(order, states, batch, universe, suffix)


def _run_mixed_sequence(config, accesses):
    """Definite and maybe accesses ``(block, maybe)`` on a one-row must
    batch, lockstep with :class:`MustState` at every step."""
    order = ("must",)
    states, batch, universe = _dual_start(config, order)
    blocks = [block for block, _ in accesses]
    maybe = [uncertain for _, uncertain in accesses]
    _replay_lockstep(order, states, batch, universe, blocks, maybe)


def _mixed_sequences(config):
    """The deterministic sequences under three definite/maybe patterns:
    every third access maybe, maybe runs after a definite access to the
    same block (the MRU case the plan compiler must not elide), and
    alternating halves."""
    mixed = []
    for sequence in _deterministic_sequences(config):
        mixed.append([(b, i % 3 == 1) for i, b in enumerate(sequence)])
        mixed.append([
            (b, step > 0) for b in sequence[:20] for step in range(3)
        ])
        mixed.append([(b, (i // 4) % 2 == 1) for i, b in enumerate(sequence)])
    return mixed


def _deterministic_sequences(config):
    width = _width(config)
    thrash = [b % width for b in range(3 * config.num_blocks)] * 2
    # one set cycling through one block more than it holds
    working = [
        config.num_sets * tag for tag in range(config.associativity + 1)
    ] * 5
    mixed = _blocks(config, [(7 * i) % RAW_SPAN for i in range(40)])
    return (thrash, working, mixed)


class TestKernelVsOracleDeterministic:
    """Tier-1 slice: lockstep bit-identity on structured sequences."""

    @pytest.mark.parametrize("config", TIER1_GRID, ids=lambda c: c.label())
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_update_sequences_bit_identical(self, config, domain):
        for sequence in _deterministic_sequences(config):
            _run_dual_sequence(config, domain, sequence)

    @pytest.mark.parametrize("config", TIER1_GRID, ids=lambda c: c.label())
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_joins_agree_and_commute(self, config, domain):
        seq_a = _blocks(config, [(5 * i) % RAW_SPAN for i in range(25)])
        seq_b = _blocks(config, [(11 * i + 3) % RAW_SPAN for i in range(18)])
        _assert_joins_agree(config, domain, seq_a, seq_b)

    @pytest.mark.parametrize("config", TIER1_GRID, ids=lambda c: c.label())
    def test_stacked_batch_bit_identical(self, config):
        """The layout the fixpoint runs: must, persistence and may
        stacked in BATCH_ORDER (two max-joined rows, then may)."""
        assert _num_max(BATCH_ORDER) == 2
        _run_branch(
            config, BATCH_ORDER,
            prefix=_blocks(config, [(3 * i) % RAW_SPAN for i in range(20)]),
            seq_a=_blocks(config, [(5 * i + 1) % RAW_SPAN for i in range(12)]),
            seq_b=_blocks(config, [(11 * i + 2) % RAW_SPAN for i in range(9)]),
            suffix=_blocks(config, [(7 * i) % RAW_SPAN for i in range(15)]),
        )


class TestMaybeAccessDeterministic:
    """The L2 must pass's uncertain access on every Table 2 config: the
    replay without the age-0 reset equals the oracle's
    ``join(update(s, b), s)`` step by step, between definite accesses
    and at the join of two branches."""

    @pytest.mark.parametrize("config", FULL_GRID, ids=lambda c: c.label())
    def test_mixed_sequences_bit_identical(self, config):
        for accesses in _mixed_sequences(config):
            _run_mixed_sequence(config, accesses)

    @pytest.mark.parametrize("config", FULL_GRID, ids=lambda c: c.label())
    def test_mixed_branches_bit_identical(self, config):
        order = ("must",)
        states, batch, universe = _dual_start(config, order)
        prefix = _blocks(config, [(3 * i) % RAW_SPAN for i in range(20)])
        states = _replay_lockstep(order, states, batch, universe, prefix,
                                  [i % 2 == 0 for i in range(20)])
        arm_b = batch.copy()
        seq = _blocks(config, [(5 * i + 1) % RAW_SPAN for i in range(12)])
        states_a = _replay_lockstep(order, states, batch, universe, seq,
                                    [i % 3 == 0 for i in range(12)])
        states_b = _replay_lockstep(order, states, arm_b, universe, seq[::-1],
                                    [True] * 12)
        join_rows(batch, arm_b, 1)
        states = [a.join(b) for a, b in zip(states_a, states_b)]
        _assert_rows_match(order, batch, states, universe, "at the join ")


def _l2_of(config):
    """An L2 behind ``config``: 8-way, same block size, at least four
    times the capacity."""
    return hierarchy_for(
        config, f"8:{config.block_size}:{max(4 * config.capacity, 8192)}:6"
    ).l2_level.config


def _dense_and_python_l2(program, config, relabel=None):
    """The dense L2 pass and its python oracle on one program, both fed
    the vectorized L1 classification (or ``relabel``'s rewrite of it)
    and may rows."""
    acfg = build_acfg(load(program), config.block_size)
    l2_config = _l2_of(config)
    universe = BlockUniverse.for_acfg(acfg, config)
    schedule = KernelSchedule(acfg, universe, frozenset())
    l1 = propagate_kernel_batch(schedule, ("must", "may"))
    labels = classify_references_dense(
        acfg, l1["must"], l1["may"], None, schedule=schedule
    )
    if relabel is not None:
        labels = [relabel(label) for label in labels]
    level = l2_schedule(
        schedule,
        BlockUniverse(l2_config, universe.base_block, universe.width),
        labels, l1["may"],
    )
    dense = propagate_kernel_batch(level, ("must",))["must"]
    python = analyze_l2_must(acfg, l2_config, labels, may=l1["may"])
    return acfg, labels, level, dense, python


class TestDenseL2Deterministic:
    """The dense L2 pass on real programs against ``analyze_l2_must``:
    every in-state and the hit gather against ``l2_guaranteed_hits``."""

    @pytest.mark.parametrize("config", FULL_GRID, ids=lambda c: c.label())
    @pytest.mark.parametrize("program", ["bs", "crc", "ndes"])
    def test_l2_states_and_hits_match_python(self, program, config):
        acfg, labels, level, dense, python = _dense_and_python_l2(
            program, config
        )
        assert list(dense.in_states) == list(python.in_states)
        assert list(dense.out_states) == list(python.out_states)
        assert l2_hits_dense(level, labels, dense) == l2_guaranteed_hits(
            acfg, labels, python
        )

    @pytest.mark.parametrize("config_id", ["k1", "k13", "k36"])
    @pytest.mark.parametrize("program", ["crc", "ndes"])
    def test_maybe_repeats_stay_in_the_plan(self, program, config_id):
        """With every L1 hit relabelled NOT_CLASSIFIED, consecutive
        fetches from one block become repeated maybe accesses.  A
        repeat after a maybe access still ages the younger blocks, so
        the plan must keep it; only a repeat after a definite access is
        a no-op."""
        def unproven(label):
            if label is Classification.ALWAYS_HIT:
                return Classification.NOT_CLASSIFIED
            return label

        acfg, labels, level, dense, python = _dense_and_python_l2(
            program, TABLE2[config_id], relabel=unproven
        )
        assert any(
            a[1] == b[1] and a[3]
            for step in level.steps for a, b in zip(step.ops, step.ops[1:])
        )
        assert list(dense.in_states) == list(python.in_states)
        assert l2_hits_dense(level, labels, dense) == l2_guaranteed_hits(
            acfg, labels, python
        )

    @pytest.mark.parametrize("config_id", ["k1", "k36"])
    def test_plan_mixes_definite_and_maybe_accesses(self, config_id):
        _, _, level, _, _ = _dense_and_python_l2("crc", TABLE2[config_id])
        flags = {op[3] for step in level.steps for op in step.ops}
        assert flags == {False, True}


@pytest.mark.slow
class TestKernelVsOraclePropertyBased:
    """Full Table 2 grid under hypothesis-generated access sequences."""

    @settings(max_examples=150, deadline=None)
    @given(
        config=st.sampled_from(FULL_GRID),
        domain=st.sampled_from(DOMAINS),
        sequence=st.lists(RAW_BLOCKS, max_size=50),
    )
    def test_random_sequences_bit_identical(self, config, domain, sequence):
        _run_dual_sequence(config, domain, _blocks(config, sequence))

    @settings(max_examples=100, deadline=None)
    @given(
        config=st.sampled_from(FULL_GRID),
        domain=st.sampled_from(DOMAINS),
        seq_a=st.lists(RAW_BLOCKS, max_size=30),
        seq_b=st.lists(RAW_BLOCKS, max_size=30),
    )
    def test_joins_agree_on_random_states(self, config, domain, seq_a, seq_b):
        _assert_joins_agree(
            config, domain, _blocks(config, seq_a), _blocks(config, seq_b)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        config=st.sampled_from(FULL_GRID),
        domain=st.sampled_from(DOMAINS),
        prefix=st.lists(RAW_BLOCKS, max_size=20),
        seq_a=st.lists(RAW_BLOCKS, max_size=15),
        seq_b=st.lists(RAW_BLOCKS, max_size=15),
        suffix=st.lists(RAW_BLOCKS, max_size=15),
    )
    def test_join_then_update_bit_identical(
        self, config, domain, prefix, seq_a, seq_b, suffix
    ):
        """Branch-shaped flows: updating a joined state stays lockstep —
        the composition the fixpoint engine exercises constantly."""
        _run_branch(config, (domain,), *(
            _blocks(config, raw) for raw in (prefix, seq_a, seq_b, suffix)
        ))

    @settings(max_examples=40, deadline=None)
    @given(
        config=st.sampled_from(FULL_GRID),
        prefix=st.lists(RAW_BLOCKS, max_size=20),
        seq_a=st.lists(RAW_BLOCKS, max_size=15),
        seq_b=st.lists(RAW_BLOCKS, max_size=15),
        suffix=st.lists(RAW_BLOCKS, max_size=15),
    )
    def test_stacked_branch_bit_identical(
        self, config, prefix, seq_a, seq_b, suffix
    ):
        _run_branch(config, BATCH_ORDER, *(
            _blocks(config, raw) for raw in (prefix, seq_a, seq_b, suffix)
        ))

    @settings(max_examples=150, deadline=None)
    @given(
        config=st.sampled_from(FULL_GRID),
        accesses=st.lists(st.tuples(RAW_BLOCKS, st.booleans()), max_size=50),
    )
    def test_random_mixed_sequences_bit_identical(self, config, accesses):
        """Random definite/maybe sequences, lockstep with MustState."""
        blocks = _blocks(config, [raw for raw, _ in accesses])
        _run_mixed_sequence(config, [
            (block, uncertain)
            for block, (_, uncertain) in zip(blocks, accesses)
        ])
