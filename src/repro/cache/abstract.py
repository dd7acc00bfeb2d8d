"""Abstract cache states and semantics (Section 3.1, after ref. [8]).

Implements the classical LRU must/may abstract domains of Ferdinand &
Wilhelm, which the paper reuses for its preliminary WCET analysis:

* **must** analysis — a block in the must state is in the cache in
  *every* concrete state reaching the program point; its age is an upper
  bound.  Membership before an access proves an *always-hit*.
* **may** analysis — a block absent from the may state is in the cache in
  *no* concrete state; its age is a lower bound.  Absence proves an
  *always-miss*.

States are immutable: updates and joins return new objects, which makes
the fixpoint engine and the optimizer's state snapshots trivially safe.

On a single execution path (no joins), the must state is *exact*: ages
equal concrete LRU positions and evictions are recovered precisely —
that is what makes Property 3 of the paper (replaced-block detection)
work on the optimizer's WCET-path states.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.errors import AnalysisError

#: One cache set in an abstract state: ``lines[i]`` is the set of memory
#: blocks with (must: maximal / may: minimal) age ``i``.
SetLines = Tuple[FrozenSet[int], ...]

#: Interned all-empty ``SetLines`` per associativity.  ``lines()`` is the
#: hottest query of the fixpoint engine and most lookups miss (states are
#: sparse), so handing out one shared tuple instead of allocating a fresh
#: ``assoc``-sized tuple per miss is a measurable win.
_EMPTY_LINES: Dict[int, SetLines] = {}


def empty_lines(associativity: int) -> SetLines:
    """The canonical all-empty per-age tuple for ``associativity`` ways."""
    cached = _EMPTY_LINES.get(associativity)
    if cached is None:
        cached = tuple(frozenset() for _ in range(associativity))
        _EMPTY_LINES[associativity] = cached
    return cached


class AbstractCacheState:
    """Common machinery of the must/may domains.

    Concrete subclasses implement :meth:`update` and :meth:`join`.
    Missing set indices represent "no blocks known" (must) / "no blocks
    possibly cached" (may) — the all-invalid state ``ĉ_I`` is simply the
    empty mapping.
    """

    __slots__ = ("config", "_sets", "_hash", "_ages")

    #: Domain identity for ``__eq__``/``__hash__``.  States compare and
    #: hash by *domain*, not concrete class, so a state materialized
    #: from a dense row by the vectorized kernel equals — and hashes
    #: with — the pure-python oracle's state of the same value.
    domain_tag = ""

    def __init__(
        self,
        config: CacheConfig,
        sets: Optional[Dict[int, SetLines]] = None,
    ):
        self.config = config
        # Canonical form: never store an all-empty set entry.
        cleaned: Dict[int, SetLines] = {}
        for index, lines in (sets or {}).items():
            if any(lines):
                if len(lines) != config.associativity:
                    raise AnalysisError(
                        f"set {index}: expected {config.associativity} age "
                        f"positions, got {len(lines)}"
                    )
                cleaned[index] = lines
        self._sets = cleaned
        self._hash: Optional[int] = None
        self._ages: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def lines(self, set_index: int) -> SetLines:
        """Per-age block sets of one cache set."""
        found = self._sets.get(set_index)
        if found is None:
            return empty_lines(self.config.associativity)
        return found

    def age_of(self, block: int) -> Optional[int]:
        """Age bound of ``block`` in its set, or ``None`` when absent.

        Backed by a lazily built block -> age index: the optimizer and
        the classifier probe the same state for many different blocks,
        so one inversion pass beats a linear scan per query.
        """
        ages = self._ages
        if ages is None:
            ages = {}
            for lines in self._sets.values():
                for age, entry in enumerate(lines):
                    for member in entry:
                        ages[member] = age
            self._ages = ages
        return ages.get(block)

    def __contains__(self, block: int) -> bool:
        return self.age_of(block) is not None

    def blocks(self) -> FrozenSet[int]:
        """``B(ĉ)`` (Definition 9): every block present in the state."""
        out = set()
        for lines in self._sets.values():
            for entry in lines:
                out.update(entry)
        return frozenset(out)

    def blocks_in_set(self, set_index: int) -> FrozenSet[int]:
        """Blocks of a single cache set."""
        out = set()
        for entry in self.lines(set_index):
            out.update(entry)
        return frozenset(out)

    def touched_sets(self) -> Tuple[int, ...]:
        """Indices of sets with at least one known block."""
        return tuple(sorted(self._sets))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbstractCacheState):
            return NotImplemented
        return (
            self.domain_tag == other.domain_tag
            and self.config == other.config
            and self._sets == other._sets
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.domain_tag, tuple(sorted(self._sets.items())))
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for index in self.touched_sets():
            ages = [
                "{" + ",".join(map(str, sorted(entry))) + "}"
                for entry in self.lines(index)
            ]
            parts.append(f"s{index}:[{' '.join(ages)}]")
        return f"<{type(self).__name__} {' '.join(parts) or 'empty'}>"

    # ------------------------------------------------------------------
    # domain operations (subclass responsibility)
    # ------------------------------------------------------------------
    def update(self, block: int) -> "AbstractCacheState":
        """Abstract update function ``Û`` for an access to ``block``."""
        raise NotImplementedError

    def join(self, other: "AbstractCacheState") -> "AbstractCacheState":
        """Join function merging states at path convergence."""
        raise NotImplementedError

    def unknown_access(self) -> "AbstractCacheState":
        """Transfer for an access to a *statically unknown* address.

        Needed by the data-cache extension: an input-dependent access
        may touch any set, so each domain must account for the worst.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _replace_set(self, set_index: int, lines: SetLines) -> Dict[int, SetLines]:
        new_sets = dict(self._sets)
        if any(lines):
            new_sets[set_index] = lines
        else:
            new_sets.pop(set_index, None)
        return new_sets

    @classmethod
    def _make(cls, config: CacheConfig, sets: Dict[int, SetLines]):
        """Fast construction for internal use: ``sets`` must already be
        canonical (no all-empty entries, correct line counts)."""
        fresh = cls.__new__(cls)
        fresh.config = config
        fresh._sets = sets
        fresh._hash = None
        fresh._ages = None
        return fresh

    def evicted_by(self, block: int) -> FrozenSet[int]:
        """Blocks leaving the state when ``block`` is accessed.

        Property 3 of the paper: ``B(ĉ) - B(Û(ĉ, s))``.  Restricted to
        the accessed set, since no other set can change.
        """
        before = self.blocks_in_set(self.config.set_index(block))
        after = self.update(block).blocks_in_set(self.config.set_index(block))
        return before - after


class MustState(AbstractCacheState):
    """Must domain: guaranteed cache contents with maximal ages."""

    domain_tag = "must"

    def update(self, block: int) -> "MustState":
        """LRU must-update: ``block`` to age 0; younger blocks age."""
        config = self.config
        set_index = config.set_index(block)
        lines = self.lines(set_index)
        assoc = config.associativity
        age = None
        for idx, entry in enumerate(lines):
            if block in entry:
                age = idx
                break
        new_lines = [frozenset()] * assoc
        if age is None:
            # Miss (in the must view): every known block ages by one; the
            # oldest age class falls out of the guaranteed contents.
            new_lines[0] = frozenset((block,))
            for i in range(1, assoc):
                new_lines[i] = lines[i - 1]
        elif age == 0:
            new_lines = list(lines)
            new_lines[0] = lines[0] | {block}
        else:
            new_lines[0] = frozenset((block,))
            for i in range(1, age):
                new_lines[i] = lines[i - 1]
            new_lines[age] = lines[age - 1] | (lines[age] - {block})
            for i in range(age + 1, assoc):
                new_lines[i] = lines[i]
        return MustState._make(config, self._replace_set(set_index, tuple(new_lines)))

    def join(self, other: "AbstractCacheState") -> "MustState":
        """Must join: intersection of contents, maximum of ages."""
        if not isinstance(other, MustState) or other.config != self.config:
            raise AnalysisError("must-join requires MustState of same config")
        assoc = self.config.associativity
        new_sets: Dict[int, SetLines] = {}
        for index in set(self._sets) & set(other._sets):
            mine = self.lines(index)
            theirs = other.lines(index)
            my_age = _age_map(mine)
            their_age = _age_map(theirs)
            merged: list = [set() for _ in range(assoc)]
            for block, age_a in my_age.items():
                age_b = their_age.get(block)
                if age_b is not None:
                    merged[max(age_a, age_b)].add(block)
            new_sets[index] = tuple(frozenset(entry) for entry in merged)
        return MustState(self.config, new_sets)


    def unknown_access(self) -> "MustState":
        """Worst case: the unknown block lands in *any* set, so every
        set's guaranteed contents age by one position."""
        assoc = self.config.associativity
        new_sets: Dict[int, SetLines] = {}
        empty = frozenset()
        for index, lines in self._sets.items():
            shifted = (empty,) + lines[: assoc - 1]
            if any(shifted):
                new_sets[index] = shifted
        return MustState._make(self.config, new_sets)


class MayState(AbstractCacheState):
    """May domain: possible cache contents with minimal ages."""

    domain_tag = "may"

    def update(self, block: int) -> "MayState":
        """LRU may-update: minimal ages age only below the hit age."""
        config = self.config
        set_index = config.set_index(block)
        lines = self.lines(set_index)
        assoc = config.associativity
        age = None
        for idx, entry in enumerate(lines):
            if block in entry:
                age = idx
                break
        new_lines = [frozenset()] * assoc
        if age is None:
            # The access is a miss in every concrete state: all blocks
            # age; minimal-age (assoc-1) blocks may be evicted everywhere.
            new_lines[0] = frozenset((block,))
            for i in range(1, assoc):
                new_lines[i] = lines[i - 1]
        elif age == 0:
            new_lines = list(lines)
            new_lines[0] = lines[0] | {block}
        else:
            new_lines[0] = frozenset((block,))
            for i in range(1, age):
                new_lines[i] = lines[i - 1]
            new_lines[age] = lines[age - 1] | (lines[age] - {block})
            for i in range(age + 1, assoc):
                new_lines[i] = lines[i]
        return MayState._make(config, self._replace_set(set_index, tuple(new_lines)))

    def join(self, other: "AbstractCacheState") -> "MayState":
        """May join: union of contents, minimum of ages."""
        if not isinstance(other, MayState) or other.config != self.config:
            raise AnalysisError("may-join requires MayState of same config")
        assoc = self.config.associativity
        new_sets: Dict[int, SetLines] = {}
        for index in set(self._sets) | set(other._sets):
            my_age = _age_map(self.lines(index))
            their_age = _age_map(other.lines(index))
            merged: list = [set() for _ in range(assoc)]
            for block in set(my_age) | set(their_age):
                ages = [a for a in (my_age.get(block), their_age.get(block)) if a is not None]
                merged[min(ages)].add(block)
            new_sets[index] = tuple(frozenset(entry) for entry in merged)
        return MayState(self.config, new_sets)


    def unknown_access(self) -> "MayState":
        """An unknown access may hit anywhere or nowhere: the possible
        contents (with their minimal ages) are unchanged — aging any
        block's lower bound could wrongly prove an always-miss."""
        return self


def _age_map(lines: SetLines) -> Dict[int, int]:
    """Invert per-age sets into block -> age."""
    out: Dict[int, int] = {}
    for age, entry in enumerate(lines):
        for block in entry:
            out[block] = age
    return out


def join_all(states: Iterable[AbstractCacheState]) -> AbstractCacheState:
    """Fold :meth:`~AbstractCacheState.join` over one or more states."""
    iterator = iter(states)
    try:
        result = next(iterator)
    except StopIteration:
        raise AnalysisError("join_all requires at least one state") from None
    for state in iterator:
        result = result.join(state)
    return result
