"""Tests for the persistence ("first miss") domain."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.concrete import ConcreteCache
from repro.cache.config import CacheConfig
from repro.cache.persistence import PersistenceState
from repro.errors import AnalysisError

CFG2 = CacheConfig(2, 16, 64)  # 2 sets, 2-way


class TestUpdate:
    def test_access_sets_age_zero(self):
        state = PersistenceState(CFG2).update(0)
        assert state.age_of(0) == 0
        assert state.is_persistent(0)

    def test_never_loaded_is_persistent(self):
        assert PersistenceState(CFG2).is_persistent(12)

    def test_saturation_is_sticky(self):
        # 3 distinct blocks through a 2-way set push the first to ⊤.
        state = PersistenceState(CFG2).update(0).update(2).update(4)
        assert state.age_of(0) == CFG2.associativity  # ⊤
        assert not state.is_persistent(0)
        # re-accessing other blocks never resurrects persistence...
        state = state.update(2)
        assert not state.is_persistent(0)
        # ...but re-accessing the block itself restarts its life.
        state = state.update(0)
        assert state.is_persistent(0)

    def test_rehit_does_not_age_older_blocks(self):
        state = PersistenceState(CFG2).update(0).update(2)
        before = state.age_of(0)
        state = state.update(2)  # MRU re-access
        assert state.age_of(0) == before

    def test_invalid_age_rejected(self):
        with pytest.raises(AnalysisError):
            PersistenceState(CFG2, {0: {5: 99}})


class TestJoin:
    def test_max_age_wins(self):
        a = PersistenceState(CFG2).update(0).update(2)  # 0 at age 1
        b = PersistenceState(CFG2).update(2).update(0)  # 0 at age 0
        joined = a.join(b)
        assert joined.age_of(0) == 1

    def test_top_is_sticky_across_join(self):
        evicted = PersistenceState(CFG2).update(0).update(2).update(4)
        fresh = PersistenceState(CFG2).update(0)
        joined = evicted.join(fresh)
        assert not joined.is_persistent(0)

    def test_one_sided_block_keeps_age(self):
        a = PersistenceState(CFG2).update(0)
        b = PersistenceState(CFG2)
        joined = a.join(b)
        assert joined.age_of(0) == 0

    def test_config_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            PersistenceState(CFG2).join(PersistenceState(CacheConfig(4, 16, 64)))

    def test_identical_sets_shared(self):
        a = PersistenceState(CFG2).update(0)
        joined = a.join(a)
        assert joined == a


class TestJoinCounterexample:
    """The known unsoundness of the persistence join + update pair
    (Huynh et al., RTAS 2011; Cullmann, TECS 2013).

    On a direct-mapped set, ``x`` is loaded on one path and ``y`` on
    the other.  The join keeps each block at its one-sided age 0, and
    the following ``update(y)`` ages only blocks younger than ``y``'s
    bound, so ``x`` stays "persistent" — yet on the ``x`` path the
    ``y`` access evicts it and ``x`` misses a second time.
    """

    DIRECT = CacheConfig(1, 16, 64)  # 4 sets, 1-way
    X, Y = 0, 4  # both map to set 0

    def test_x_misses_twice_concretely(self):
        cache = ConcreteCache(self.DIRECT)
        assert not cache.access(self.X)  # first load on the x path
        assert not cache.access(self.Y)  # evicts x
        assert not cache.access(self.X)  # second miss

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the persistence join keeps a one-sided block "
        "at its age, so a later same-set access leaves it persistent "
        "(Cullmann, TECS 2013)"))
    def test_state_domain_evicts_x(self):
        x_path = PersistenceState(self.DIRECT).update(self.X)
        y_path = PersistenceState(self.DIRECT).update(self.Y)
        state = x_path.join(y_path).update(self.Y)
        assert not state.is_persistent(self.X)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the fixpoint's dense replay and join share the "
        "object domain's unsoundness (Cullmann, TECS 2013)"))
    def test_dense_kernel_evicts_x(self):
        import numpy as np

        from repro.cache.kernel import join_rows, replay_segment

        top, num_sets = self.DIRECT.associativity, self.DIRECT.num_sets

        def access(batch, block):
            out = np.empty((1,) + batch.shape, dtype=np.int8)
            replay_segment(batch, ((0, block, block % num_sets, False),),
                           out, num_sets, top)

        # one-row persistence batches over blocks 0..7; ⊥ is -1
        x_path = np.full((1, 8), -1, dtype=np.int8)
        y_path = x_path.copy()
        access(x_path, self.X)
        access(y_path, self.Y)
        join_rows(x_path, y_path, num_max=1)
        access(x_path, self.Y)
        assert x_path[0, self.X] == top  # ⊤: not persistent


class TestSoundness:
    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=100),
        assoc=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_persistence_claim_is_per_reference_sound(self, blocks, assoc):
        """At each access: if the in-state carries a below-⊤ age bound
        for the block (i.e. "loaded and never evicted since"), the
        access must hit concretely.

        This is the property the classifier relies on: a reference whose
        in-state is persistent either hits or is the block's first load.
        """
        config = CacheConfig(assoc, 16, assoc * 32)
        state = PersistenceState(config)
        cache = ConcreteCache(config)
        for block in blocks:
            bound = state.age_of(block)
            claims_cached = bound is not None and bound < state.top
            hit = cache.access(block)
            if claims_cached:
                assert hit
            state = state.update(block)

    @given(
        blocks=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=80)
    )
    @settings(max_examples=40, deadline=None)
    def test_age_bound_dominates_concrete_age(self, blocks):
        """The persistence age bound is an upper bound on the concrete
        LRU position while the block is cached."""
        config = CFG2
        state = PersistenceState(config)
        cache = ConcreteCache(config)
        for block in blocks:
            cache.access(block)
            state = state.update(block)
            for cached in cache.cached_blocks():
                bound = state.age_of(cached)
                if bound is not None and bound < state.top:
                    assert cache.age_of(cached) <= bound
