"""Vectorized abstract-domain kernel (dense numpy age vectors).

The pure-python must/may/persistence domains of
:mod:`repro.cache.abstract` and :mod:`repro.cache.persistence` represent
one cache set as per-age block sets.  That representation is the
*oracle*: verified against the concrete LRU semantics by
``tests/test_cache_differential.py`` and deliberately written for
auditability, not speed.  This module is the fast path, the default
kernel and the only incremental engine: the same domains over **dense
age vectors**, proven bit-identical to the oracle by the differential
test layer.  It runs only inside
:class:`~repro.analysis.pipeline.AnalysisPipeline`;
:func:`~repro.cache.classify.analyze_cache` and
:func:`~repro.analysis.wcet.analyze_wcet` are the python oracle.

Representation
--------------

A state is an ``int8`` vector over a contiguous *block universe*
``[base_block, base_block + width)``; column ``c`` holds the age bound
of memory block ``base_block + c``:

* **must / may** — ages ``0 .. assoc-1``; the value ``assoc`` means
  *absent*, so a miss ages every present block and pushes age
  ``assoc-1`` blocks out of the state with no special case.  Must joins
  by ``np.maximum`` (intersection of contents, maximal age: *absent* is
  the additive top), may by ``np.minimum`` (union, minimal age).
* **persistence** — ages ``0 .. assoc`` with ``assoc`` the sticky
  evicted-⊤ and ``-1`` for ⊥ (never loaded).  Join = ``np.maximum``
  (⊥ loses against any real bound, exactly the oracle's
  present-in-one-side rule).

The domains of one analysis are stacked into a ``(depth × width)``
batch in :data:`BATCH_ORDER`.  Two functions are the whole dense
transfer: :func:`replay_segment` applies an access plan (one LRU
formula serves all three domains) and :func:`join_rows` joins a
predecessor's batch.  Because a cache set's columns are exactly
``c ≡ block (mod num_sets)``, the set of an access is a *strided view*
— no gather, no index arrays.

Fixpoint
--------

:func:`propagate_kernel_batch` replays :func:`repro.cache.classify.propagate`
on a :class:`KernelSchedule` — the ACFG compiled into maximal
single-entry chain *segments* (a basic-block instance is one chain, and
chains extend through straight-line control flow).  Per sweep a segment
is one unit of work: its in-state batch is joined from its
predecessors, then either looked up in a content-keyed **segment memo**
(the whole ``(k × depth × width)`` out matrix of the chain comes back
as one memcpy) or replayed.  Convergence uses the same monotone-fixpoint
argument as the oracle: both iterate the identical transfer equations
from the identical initial state, so they converge to the identical
least fixpoint, state for state.

The result is one :class:`DenseDataflowResult` per domain — a drop-in
:class:`~repro.cache.classify.DataflowResult` whose per-vertex states
materialize lazily into ordinary oracle states (so every downstream
consumer sees values indistinguishable from an oracle run), plus
the dense matrices themselves for the pipeline's warm-started delta
re-analysis and the vectorized classifier (:func:`classify_references_dense`).

The L2 must pass runs on the same engine over the L1 schedule's chains
(:func:`l2_schedule`), and its hits are a dense gather
(:func:`l2_hits_dense`).
"""

from __future__ import annotations

import copy
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.abstract import MayState, MustState
from repro.cache.classify import (
    CLASSIFICATION_LAYERS,
    HIT_CLASSES,
    Classification,
    DataflowResult,
)
from repro.cache.config import CacheConfig
from repro.cache.persistence import PersistenceState
from repro.errors import AnalysisError, UniverseOutgrown
from repro.program.acfg import ACFG


# ----------------------------------------------------------------------
# block universe
# ----------------------------------------------------------------------
class BlockUniverse:
    """The contiguous memory-block range a dense state vector covers.

    Column ``c`` stands for memory block ``base_block + c``.  The
    universe is sized with headroom so that the block-id shifts caused
    by prefetch insertions (4 bytes each) rarely force a rebuild; when
    they do, the pipeline rebuilds the universe and clears its segment
    memos (dense rows of different widths are incomparable).
    """

    __slots__ = ("config", "base_block", "width")

    def __init__(self, config: CacheConfig, base_block: int, width: int):
        if width <= 0:
            raise AnalysisError(f"universe width must be positive, got {width}")
        self.config = config
        self.base_block = base_block
        self.width = width

    def covers(self, block: int) -> bool:
        """Whether ``block`` has a column in this universe."""
        return self.base_block <= block < self.base_block + self.width

    def column(self, block: int) -> int:
        """Column index of a memory block."""
        if not self.covers(block):
            raise AnalysisError(
                f"block {block} outside universe "
                f"[{self.base_block}, {self.base_block + self.width})"
            )
        return block - self.base_block

    def block(self, column: int) -> int:
        """Memory block id of a column."""
        return self.base_block + column

    @classmethod
    def for_acfg(cls, acfg: ACFG, config: CacheConfig,
                 headroom: int = 0) -> "BlockUniverse":
        """A universe covering every block an ACFG references.

        ``headroom`` extra columns absorb the upward block-id drift of
        later candidate programs (each insertion shifts addresses by
        one instruction).
        """
        blocks = np.concatenate([
            acfg.block_arr[acfg.ref_mask],
            acfg.target_arr[acfg.target_arr >= 0],
        ])
        if not len(blocks):
            # A program with no references still needs a 1-wide universe
            # so the matrices are well-formed.
            return cls(config, 0, 1 + max(headroom, 0))
        lo = int(blocks.min())
        hi = int(blocks.max())
        return cls(config, lo, hi - lo + 1 + max(headroom, 0))


# ----------------------------------------------------------------------
# state conversion (dense row <-> oracle state objects)
# ----------------------------------------------------------------------
def state_to_row(state, universe: BlockUniverse) -> np.ndarray:
    """Encode an oracle state as a dense row of this universe."""
    config = universe.config
    if isinstance(state, PersistenceState):
        row = np.full(universe.width, -1, dtype=np.int8)
        for set_index in range(config.num_sets):
            for block, age in state.ages(set_index).items():
                row[universe.column(block)] = age
        return row
    if not isinstance(state, (MustState, MayState)):
        raise AnalysisError(
            f"cannot encode {type(state).__name__} as a dense row"
        )
    row = np.full(universe.width, config.associativity, dtype=np.int8)
    for set_index in state.touched_sets():
        for age, entry in enumerate(state.lines(set_index)):
            for block in entry:
                row[universe.column(block)] = age
    return row


def row_to_state(domain: str, row: np.ndarray, universe: BlockUniverse):
    """Decode a dense row into the equivalent oracle state object.

    The result is a plain :class:`MustState`/:class:`MayState`/
    :class:`PersistenceState` in canonical form, so it compares equal
    to — and interns with — states the python kernel produces.
    """
    config = universe.config
    num_sets = config.num_sets
    if domain == "persistence":
        present = np.nonzero(row >= 0)[0]
        pairs: Dict[int, List[Tuple[int, int]]] = {}
        for col in present.tolist():
            # Columns ascend, so per-set pair lists come out sorted by
            # block — already the canonical tuple order.
            block = universe.block(col)
            pairs.setdefault(block % num_sets, []).append(
                (block, int(row[col]))
            )
        return PersistenceState._make(
            config, {index: tuple(items) for index, items in pairs.items()}
        )
    assoc = config.associativity
    present = np.nonzero(row < assoc)[0]
    lines: Dict[int, List[set]] = {}
    for col in present.tolist():
        block = universe.block(col)
        per_set = lines.get(block % num_sets)
        if per_set is None:
            per_set = [set() for _ in range(assoc)]
            lines[block % num_sets] = per_set
        per_set[int(row[col])].add(block)
    sets_frozen = {
        index: tuple(frozenset(entry) for entry in per_set)
        for index, per_set in lines.items()
    }
    cls = MustState if domain == "must" else MayState
    return cls._make(config, sets_frozen)


# ----------------------------------------------------------------------
# schedule compilation
# ----------------------------------------------------------------------
#: Interning table for segment access plans: identical plans — from any
#: schedule, ever — map to the same small integer, so memo keys hash in
#: O(1) instead of re-hashing a nested tuple per probe, while distinct
#: plans can never collide (the id *is* the content).
_OPS_INTERN: Dict[tuple, int] = {}


class SegmentStep:
    """One schedule step: a single-entry chain of vertices.

    Attributes:
        start/end: Contiguous rid range ``[start, end)`` of the chain.
        preds: Forward predecessors of the first vertex.
        back_srcs: Back-edge source rids targeting the first vertex.
        ops: The chain's access plan, in order: one ``(offset, column,
            set, maybe)`` tuple per access, ``offset`` the accessing
            vertex's position in the chain (a prefetch contributes its
            own block, then its target), ``maybe`` set on an uncertain
            L2 access.  Vertices without an access — JOINs, locked
            blocks, elided MRU re-accesses — appear nowhere.
        elided: Accesses the plan omits as MRU re-accesses.
        deps: Indices of the steps holding ``preds`` and ``back_srcs``.
        ops_key: Interned id of ``(chain length, ops)`` — segment-memo
            entries are shared between schedules (e.g. across candidate
            ACFGs) whenever the replayed work is identical.
    """

    __slots__ = ("index", "start", "end", "preds", "back_srcs", "ops",
                 "elided", "deps", "ops_key")

    def __init__(self, index: int, start: int, end: int,
                 preds: Tuple[int, ...], back_srcs: Tuple[int, ...],
                 deps: Tuple[int, ...],
                 ops: Tuple[Tuple[int, int, int, bool], ...], elided: int):
        self.index = index
        self.start = start
        self.end = end
        self.preds = preds
        self.back_srcs = back_srcs
        self.deps = deps
        self.ops = ops
        self.elided = elided
        key = (end - start, ops)
        self.ops_key = _OPS_INTERN.setdefault(key, len(_OPS_INTERN))


#: Chain-length cap.  Chunking long straight-line chains makes the
#: segment memo fine-grained enough to catch cross-candidate recurrence:
#: when the optimizer re-evaluates a site on a slightly mutated program,
#: the far-away chunks see the same ``(ops, in-state)`` pairs as the
#: previous iteration and replay from the memo instead of access by
#: access.
MAX_SEGMENT_LEN = 32


def _locked_mask(blocks: np.ndarray, locked_blocks) -> np.ndarray:
    """Which entries of a block array are locked."""
    return np.isin(blocks, np.fromiter(locked_blocks, dtype=np.int64))


def _outgrown(cols: np.ndarray, universe: BlockUniverse) -> None:
    """Raise :class:`UniverseOutgrown` unless every column is covered."""
    if len(cols) and (cols.min() < 0 or cols.max() >= universe.width):
        block = universe.base_block + int(
            cols.min() if cols.min() < 0 else cols.max()
        )
        raise UniverseOutgrown(
            f"block {block} outside universe [{universe.base_block}, "
            f"{universe.base_block + universe.width})"
        )


def _deps(step_of: List[int], rids: Tuple[int, ...]) -> Tuple[int, ...]:
    """The distinct steps holding ``rids``, in first-seen order."""
    return tuple(dict.fromkeys([step_of[rid] for rid in rids]))


def _target_stream(acfg: ACFG, universe: BlockUniverse,
                   locked_blocks: frozenset) -> np.ndarray:
    """Per-rid prefetch-target column, ``-1`` for none or locked."""
    targets = acfg.target_arr
    targeted = targets >= 0
    if locked_blocks:
        targeted &= ~_locked_mask(targets, locked_blocks)
    cols = targets - universe.base_block
    _outgrown(cols[targeted], universe)
    return np.where(targeted, cols, -1)


def _compile_ops(chain, starts, local_step, own, target, maybe, num_sets):
    """``(ops, bounds, elided)`` of the segments ``starts`` over the
    vertices ``chain`` (segment ``j``'s ops are ``ops[bounds[j]:bounds[j
    + 1]]``), from per-vertex own/target columns (``-1``: none) and
    their ``(vertex, 2)`` maybe flags (``None``: all definite).  A
    repeat of the previous column is elided only after a definite
    access: that leaves the block at age 0, where any access is a
    no-op; a maybe access leaves its age."""
    stream = np.stack([own, target], axis=1).ravel()
    present = stream >= 0
    col = stream[present]
    seg = np.repeat(local_step, 2)[present]
    repeat = np.zeros(len(col), dtype=bool)
    repeat[1:] = (col[1:] == col[:-1]) & (seg[1:] == seg[:-1])
    if maybe is not None:
        maybe = maybe.ravel()[present]
        repeat[1:] &= ~maybe[:-1]
    elided = np.bincount(seg[repeat], minlength=len(starts)).tolist()
    keep = ~repeat
    col, seg = col[keep], seg[keep]
    offsets = np.repeat(chain, 2)[present][keep] - starts[seg]
    flags = itertools.repeat(False) if maybe is None else maybe[keep].tolist()
    ops = list(zip(offsets.tolist(), col.tolist(),
                   (col % num_sets).tolist(), flags))
    bounds = np.searchsorted(seg, np.arange(len(starts) + 1)).tolist()
    return ops, bounds, elided


class KernelSchedule:
    """An ACFG compiled for the dense fixpoint engine.

    Chains extend while a vertex is the unique successor of its unique
    predecessor and no back edge targets it, capped at
    :data:`MAX_SEGMENT_LEN` vertices.  JOIN vertices and branch/merge
    points start new segments.  The access plan matches
    :func:`repro.cache.classify.propagate`'s default instruction-fetch
    plan (own block, then a prefetch's target, locked blocks skipped)
    with one exact omission: inside a segment, an access to the column
    the segment's previous access touched is dropped.  That block is
    at age 0, and an LRU access to the age-0 block leaves must, may and
    persistence states unchanged.

    Chain detection and the column plan are numpy passes over the
    ACFG's flat arrays.  Given ``base`` — the schedule of the graph
    this ACFG was spliced from, on the same universe — the steps that
    end below ``first_changed`` are reused (their back-edge sources
    renumbered) and only the suffix is compiled.

    Raises:
        UniverseOutgrown: A referenced block has no column in
            ``universe`` (the pipeline's coverage probe).
    """

    __slots__ = ("acfg", "universe", "steps", "step_of", "source",
                 "locked_blocks", "ref_rids", "ref_cols", "ref_locked",
                 "steps_reused")

    def __init__(self, acfg: ACFG, universe: BlockUniverse,
                 locked_blocks: frozenset,
                 base: Optional["KernelSchedule"] = None,
                 first_changed: int = 0):
        self.acfg = acfg
        self.universe = universe
        self.source = acfg.source
        self.locked_blocks = locked_blocks
        n = len(acfg)

        # Classification gather arrays: every reference's rid and
        # own-block column, so classify_references_dense is pure numpy
        # gathers.  Their range check doubles as the universe-coverage
        # probe: callers compile optimistically against their live
        # universe and rebuild it when this raises.
        lo = universe.base_block
        rids = np.flatnonzero(acfg.ref_mask)
        blocks = acfg.block_arr[rids]
        cols = blocks - lo
        _outgrown(cols, universe)
        target = _target_stream(acfg, universe, locked_blocks)
        locked = (
            _locked_mask(blocks, locked_blocks) if locked_blocks else None
        )
        self.ref_rids = rids
        self.ref_cols = cols
        self.ref_locked = locked

        steps: List[SegmentStep] = []
        step_of: List[int] = []
        start = 0
        back_by_target: Dict[int, List[int]] = {}
        for src, dst in acfg.back_edges:
            back_by_target.setdefault(dst, []).append(src)
        if (
            base is not None
            and base.universe is universe
            and base.locked_blocks == locked_blocks
            and first_changed > 0
        ):
            # Steps ending below first_changed read only unchanged
            # vertices, predecessor tuples and columns, and their chain
            # ends were decided there too.
            keep = base.step_of[first_changed - 1]
            steps = base.steps[:keep]
            start = base.steps[keep].start
            step_of = base.step_of[:start]
        self.steps_reused = len(steps)

        # Chains over [start, n): rid r continues the chain of r - 1 iff
        # its only predecessor is r - 1, r - 1 has no other successor and
        # no back edge enters r; chunks restart every MAX_SEGMENT_LEN.
        chain = np.arange(start, n)
        cont = (acfg.in_degree[start:] == 1) & (
            acfg.first_pred[start:] == chain - 1
        )
        cont[1:] &= acfg.out_degree[start:n - 1] == 1
        cont[0] = False
        targets_here = [dst - start for dst in back_by_target if dst >= start]
        cont[targets_here] = False
        head = ~cont
        chain_start = np.maximum.accumulate(np.where(head, chain, start))
        head |= (chain - chain_start) % MAX_SEGMENT_LEN == 0
        starts = chain[head]
        local_step = np.cumsum(head) - 1
        step_of.extend((local_step + len(steps)).tolist())

        # The access stream, vertex by vertex: own block, then target.
        own = np.full(n - start, -1, dtype=np.int64)
        suffix_refs = rids >= start
        own[rids[suffix_refs] - start] = cols[suffix_refs]
        if locked is not None:
            own[rids[suffix_refs & locked] - start] = -1
        ops, bounds, elided = _compile_ops(
            chain, starts, local_step, own, target[start:], None,
            universe.config.num_sets,
        )

        pred = acfg._pred
        ends = starts.tolist()[1:] + [n]
        for j, (first, end) in enumerate(zip(starts.tolist(), ends)):
            preds = pred[first]
            back = back_by_target.get(first)
            if back is None and len(preds) == 1:
                deps = (step_of[preds[0]],)
                back = ()
            else:
                back = tuple(back or ())
                deps = _deps(step_of, preds + back)
            steps.append(SegmentStep(
                len(steps), first, end, preds, back, deps,
                tuple(ops[bounds[j]:bounds[j + 1]]), elided[j],
            ))
        # A reused loop entry gets its back-edge sources (renumbered by
        # the splice) and the steps holding them anew.
        for dst, srcs in back_by_target.items():
            if dst < start:
                step = steps[step_of[dst]]
                back = tuple(srcs)
                steps[step.index] = SegmentStep(
                    step.index, step.start, step.end, step.preds, back,
                    _deps(step_of, step.preds + back), step.ops, step.elided,
                )
        self.steps = steps
        self.step_of = step_of

    @property
    def accesses_elided(self) -> int:
        """Accesses the plan omits as MRU re-accesses."""
        return sum(step.elided for step in self.steps)


def schedule_differences(a: KernelSchedule, b: KernelSchedule) -> List[str]:
    """Names of the fields on which two schedules differ (empty: equal) —
    the pipeline's differential mode checks a spliced schedule against
    a full compile with it."""
    problems = []
    for name in ("start", "end", "preds", "back_srcs", "ops", "elided",
                 "deps", "ops_key", "index"):
        if [getattr(s, name) for s in a.steps] != [
            getattr(s, name) for s in b.steps
        ]:
            problems.append(name)
    if a.step_of != b.step_of:
        problems.append("step_of")
    for name in ("ref_rids", "ref_cols"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            problems.append(name)
    if (a.ref_locked is None) != (b.ref_locked is None) or (
        a.ref_locked is not None
        and not np.array_equal(a.ref_locked, b.ref_locked)
    ):
        problems.append("ref_locked")
    return problems


class SegmentMemo:
    """Content-keyed memo of replayed segments.

    Key: ``(domain batch, ops id, in-row bytes)``; value: the chain's
    dense *out* matrix only — within a chain, vertex ``k``'s in-state is
    vertex ``k-1``'s out-state, so the in side is reconstructed from the
    key's in-row plus the stored outs.  Entries transfer between
    schedules because the key carries the access sequence itself, not
    the segment identity.  A row-count cap bounds memory; overflow
    clears the table (correctness never depends on residency).

    ``stats`` is any object with integer ``kernel_segment_hits`` /
    ``kernel_segment_misses`` / ``invalidations`` attributes (the
    pipeline's :class:`~repro.analysis.pipeline.PipelineStats`); the
    memo counts its lookups and overflow clears there.
    """

    __slots__ = ("max_rows", "rows", "stats", "_table")

    def __init__(self, stats, max_rows: int = 400_000):
        self.max_rows = max_rows
        self.rows = 0
        self.stats = stats
        self._table: Dict[Tuple[tuple, int, bytes], np.ndarray] = {}

    def get(self, key: Tuple[tuple, int, bytes]):
        found = self._table.get(key)
        if found is not None:
            self.stats.kernel_segment_hits += 1
        return found

    def put(self, key: Tuple[tuple, int, bytes],
            seg_out: np.ndarray) -> None:
        self.stats.kernel_segment_misses += 1
        self._table[key] = seg_out
        # Count dense rows (vertices × domains), not entries, so the cap
        # tracks actual memory.
        self.rows += seg_out.size // (seg_out.shape[-1] or 1)
        if self.rows > self.max_rows:
            self.clear()
            self.stats.invalidations += 1

    def clear(self) -> None:
        self._table.clear()
        self.rows = 0


# ----------------------------------------------------------------------
# dense dataflow result
# ----------------------------------------------------------------------
class _LazyStates(Sequence):
    """Per-rid oracle states materialized on demand from dense rows."""

    __slots__ = ("_dense", "_reachable", "_domain", "_universe", "_cache")

    def __init__(self, dense: np.ndarray, reachable: np.ndarray,
                 domain: str, universe: BlockUniverse):
        self._dense = dense
        self._reachable = reachable
        self._domain = domain
        self._universe = universe
        self._cache: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._dense)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not self._reachable[index]:
            return None
        found = self._cache.get(index)
        if found is None:
            found = row_to_state(
                self._domain, self._dense[index], self._universe
            )
            self._cache[index] = found
        return found


class DenseDataflowResult(DataflowResult):
    """A :class:`DataflowResult` carrying its dense matrices.

    ``in_states``/``out_states`` are lazy: indexing materializes the
    oracle state for that vertex (and ``None`` for vertices the
    analysis never reached, like the python kernel).  The matrices
    themselves feed warm-started re-analysis and the vectorized
    classifier without ever materializing a state object.
    """

    is_dense = True

    def __init__(self, universe: BlockUniverse, domain: str,
                 dense_in: np.ndarray, dense_out: np.ndarray,
                 reachable: np.ndarray, passes: int):
        self.universe = universe
        self.domain = domain
        self.dense_in = dense_in
        self.dense_out = dense_out
        self.reachable = reachable
        super().__init__(
            in_states=_LazyStates(dense_in, reachable, domain, universe),
            out_states=_LazyStates(dense_out, reachable, domain, universe),
            passes=passes,
        )


# ----------------------------------------------------------------------
# the dense fixpoint
# ----------------------------------------------------------------------
#: Hard cap on fixpoint sweeps, matching the python kernel's bound.
MAX_SWEEPS = 64

#: Canonical stacking order of a batched run.  Max-join domains (must,
#: persistence) come first so their joins apply to one contiguous row
#: slice; may (min-join) is last.
BATCH_ORDER = ("must", "persistence", "may")


def replay_segment(cur: np.ndarray, ops, out: np.ndarray,
                   num_sets: int, top: int) -> None:
    """Replay a segment's access plan on a stacked state batch.

    ``cur`` is the ``(depth × width)`` in-state, updated in place to the
    segment's out-state; ``ops`` is a :attr:`SegmentStep.ops` plan of
    ``(offset, column, set, maybe)`` tuples and ``out`` the ``(k ×
    depth × width)`` matrix receiving every vertex's out-state (rows of
    vertices without an access repeat the state of the last access
    before them).  ``top`` is the associativity.

    The LRU access update is the *same formula* for all three domains —
    on the uint8 reinterpretation of the ages,
    ``sub += (sub < h) & (sub < top)`` over the accessed set's columns,
    with ``h`` the accessed block's stored age, then ``h = 0``.
    Persistence ⊥ (-1) reads as 255: as ``h`` it bounds nothing beyond
    the ``< top`` conjunct (⊥ behaves as the oldest line), as an aged
    entry it fails ``< top`` and stays ⊥.  Must/may rows are never
    negative and an absent block already carries the aging bound
    ``assoc``, so the formula degrades to the plain LRU update there.
    A ``maybe`` op (L2 must only) is ``join(update(s, b), s)``: the
    max-join keeps ``b`` at ``h`` and the younger blocks aged, so it is
    the aging step without the reset.
    """
    curu = cur.view(np.uint8)
    topu = np.uint8(top)
    filled = 0
    for k, col, set_index, maybe in ops:
        if k > filled:
            out[filled:k] = cur
            filled = k
        sub = curu[:, set_index::num_sets]
        # (sub < h) & (sub < top) in one comparison
        np.add(sub, sub < np.minimum(curu[:, col:col + 1], topu), out=sub)
        if not maybe:
            curu[:, col] = 0
    out[filled:] = cur


def join_rows(cur: np.ndarray, other: np.ndarray, num_max: int) -> None:
    """Join the state batch ``other`` into ``cur`` (in place): the first
    ``num_max`` rows (must, persistence) by ``np.maximum``, the rest
    (may) by ``np.minimum``."""
    np.maximum(cur[:num_max], other[:num_max], out=cur[:num_max])
    if num_max < len(cur):
        np.minimum(cur[num_max:], other[num_max:], out=cur[num_max:])


def propagate_kernel_batch(
    schedule: KernelSchedule,
    domains: Sequence[str],
    memo: Optional[SegmentMemo] = None,
    warm: Optional[Tuple[int, Dict[str, "DenseDataflowResult"]]] = None,
) -> Dict[str, "DenseDataflowResult"]:
    """Run several abstract domains over a compiled schedule at once.

    The dense counterpart of :func:`repro.cache.classify.propagate`,
    batched: one topological walk carries a stacked ``(domains ×
    width)`` state, so every join, access and memo probe is paid once
    for the whole batch instead of once per domain.  A segment's
    in-state is joined with :func:`join_rows` and, on a memo miss,
    replayed with :func:`replay_segment` — the only dense transfer code.

    Transfer equations and initial states match the python kernel's, so
    the converged least fixpoint is identical state for state (the
    sweep *count* may differ; no consumer reads it as a semantic
    value).

    Args:
        schedule: Compiled ACFG (see :class:`KernelSchedule`).
        domains: Subset of ``("must", "may", "persistence")``.
        memo: Optional shared :class:`SegmentMemo`.
        warm: Optional ``(boundary, bases)`` warm start with one base
            :class:`DenseDataflowResult` per requested domain: rows
            below ``boundary`` are copied from the bases and segments
            entirely below it are never replayed.  Sound under the
            pipeline's divergence-boundary closure.  Ignored unless
            every domain has a base on the same universe.
    """
    universe = schedule.universe
    config = universe.config
    order = tuple(name for name in BATCH_ORDER if name in domains)
    if len(order) != len(set(domains)) or not order:
        raise AnalysisError(f"unknown or empty domain batch {domains!r}")
    depth = len(order)
    num_max = depth - (1 if "may" in order else 0)
    assoc = config.associativity
    num_sets = config.num_sets
    n = len(schedule.acfg)
    width = universe.width

    dense_in = np.empty((n, depth, width), dtype=np.int8)
    dense_out = np.empty((n, depth, width), dtype=np.int8)
    reachable = np.zeros(n, dtype=bool)

    initial = np.empty((depth, width), dtype=np.int8)
    for i, name in enumerate(order):
        initial[i] = -1 if name == "persistence" else assoc

    boundary = 0
    if warm is not None:
        warm_boundary, bases = warm
        usable = 0 < warm_boundary <= n
        if usable:
            for name in order:
                found = bases.get(name)
                if (
                    found is None
                    or found.universe is not universe
                    or len(found.dense_in) < warm_boundary
                ):
                    usable = False
                    break
        if usable:
            boundary = warm_boundary
            for i, name in enumerate(order):
                found = bases[name]
                dense_in[:boundary, i, :] = found.dense_in[:boundary]
                dense_out[:boundary, i, :] = found.dense_out[:boundary]
            reachable[:boundary] = bases[order[0]].reachable[:boundary]

    steps = schedule.steps
    step_of = schedule.step_of
    num_steps = len(steps)
    changed = [True] * num_steps
    last_in: List[Optional[bytes]] = [None] * num_steps
    # Segments fully below the warm boundary can never re-enter the
    # sweep: the pipeline's closure guarantees their inputs are below
    # the boundary too, and those never change.
    first_step = step_of[boundary] if boundary < n else num_steps
    for index in range(first_step):
        changed[index] = False

    source = schedule.source

    for sweep in range(1, MAX_SWEEPS + 1):
        any_changed = False
        first_sweep = sweep == 1
        for step in steps[first_step:]:
            index = step.index
            if not first_sweep:
                for dep in step.deps:
                    if changed[dep]:
                        break
                else:
                    continue
            start = step.start
            preds = step.preds
            if start == source:
                cur = initial.copy()
            elif len(preds) == 1 and not step.back_srcs:
                # Fast path: chain continuation / single forward pred.
                p = preds[0]
                if not reachable[p]:
                    continue  # unreachable this sweep
                cur = dense_out[p].copy()
            else:
                contributions = [p for p in preds if reachable[p]]
                for src in step.back_srcs:
                    if reachable[src]:
                        contributions.append(src)
                if not contributions:
                    continue  # unreachable this sweep (back edge pending)
                cur = dense_out[contributions[0]].copy()
                for extra in contributions[1:]:
                    join_rows(cur, dense_out[extra], num_max)
            in_bytes = cur.tobytes()
            if last_in[index] == in_bytes:
                changed[index] = False
                continue
            last_in[index] = in_bytes
            end = step.end
            key = (order, step.ops_key, in_bytes)
            hit = memo.get(key) if memo is not None else None
            if hit is not None:
                dense_in[start] = cur
                dense_out[start:end] = hit
                if end - start > 1:
                    dense_in[start + 1:end] = hit[:-1]
            else:
                dense_in[start] = cur
                seg_out = dense_out[start:end]
                replay_segment(cur, step.ops, seg_out, num_sets, assoc)
                if end - start > 1:
                    dense_in[start + 1:end] = seg_out[:-1]
                if memo is not None:
                    memo.put(key, seg_out.copy())
            reachable[start:end] = True
            changed[index] = True
            any_changed = True
        if not any_changed:
            return {
                name: DenseDataflowResult(
                    universe,
                    name,
                    dense_in[:, i, :],
                    dense_out[:, i, :],
                    reachable,
                    sweep,
                )
                for i, name in enumerate(order)
            }
    raise AnalysisError(
        f"dense abstract interpretation did not converge within "
        f"{MAX_SWEEPS} sweeps"
    )


# ----------------------------------------------------------------------
# vectorized classification
# ----------------------------------------------------------------------
def classify_references_dense(
    acfg: ACFG,
    must: DenseDataflowResult,
    may: Optional[DenseDataflowResult],
    persistence: Optional[DenseDataflowResult],
    locked_blocks: Optional[frozenset] = None,
    schedule: Optional[KernelSchedule] = None,
) -> list:
    """Vectorized :func:`repro.cache.classify.classify_references`.

    Gathers every reference's own-block age from the dense in-state
    matrices in one shot and applies the same precedence:
    ``ALWAYS_HIT`` > ``PERSISTENT`` > ``ALWAYS_MISS`` >
    ``NOT_CLASSIFIED``.  Passing the ``schedule`` the results came from
    reuses its precompiled reference gather arrays; otherwise they are
    rebuilt from the ACFG.
    """
    universe = must.universe
    assoc = universe.config.associativity
    base = universe.base_block
    locked = locked_blocks or frozenset()
    if (
        schedule is not None
        and schedule.acfg is acfg
        and schedule.universe is universe
        and schedule.locked_blocks == locked
    ):
        rids = schedule.ref_rids
        cols = schedule.ref_cols
        locked_arr = schedule.ref_locked
    else:
        # Probe columns come from the ACFG directly; every own block is
        # covered by the universe by construction.
        rids = np.flatnonzero(acfg.ref_mask)
        blocks = acfg.block_arr[rids]
        cols = blocks - base
        locked_arr = _locked_mask(blocks, locked) if locked else None

    must_hit = must.reachable[rids] & (must.dense_in[rids, cols] < assoc)
    if locked_arr is not None:
        must_hit |= locked_arr

    # Layered precedence via a small code table: start at NC, overwrite
    # with AM, then PS, then AH — later layers win.  The codes are the
    # indices of classify.CLASSIFICATION_LAYERS, the same layered order
    # the python classifier applies its overwrites in and the only
    # direction refinement promotions (analysis/refine.py) may move a
    # label — keep all three in sync.
    codes = np.zeros(len(rids), dtype=np.int8)
    if may is not None:
        may_reached = may.reachable[rids]
        codes[~may_reached | (may.dense_in[rids, cols] >= assoc)] = 1
    if persistence is not None:
        codes[
            persistence.reachable[rids]
            & (persistence.dense_in[rids, cols] < assoc)
        ] = 2
    codes[must_hit] = 3

    table = CLASSIFICATION_LAYERS
    classifications: list = [None] * len(acfg)
    for rid, code in zip(rids.tolist(), codes.tolist()):
        classifications[rid] = table[code]
    return classifications


# ----------------------------------------------------------------------
# second level (L2 must pass)
# ----------------------------------------------------------------------
_LAYER_CODE = {label: code for code, label in enumerate(CLASSIFICATION_LAYERS)}


def _ref_codes(schedule: KernelSchedule, classifications) -> np.ndarray:
    """Layer codes of the references, in ``schedule.ref_rids`` order."""
    rids = schedule.ref_rids
    return np.fromiter(
        (_LAYER_CODE[classifications[rid]] for rid in rids.tolist()),
        dtype=np.int8, count=len(rids),
    )


def l2_schedule(schedule: KernelSchedule, universe: BlockUniverse,
                classifications, may: DenseDataflowResult) -> KernelSchedule:
    """``schedule``'s chains with :func:`~repro.cache.classify.l2_access_plan`
    on the L2 ``universe`` (same base and width, so the columns carry
    over): always-hits (locked blocks included) make no access, a
    definite L1 miss — always-miss, or absent from a reached may
    in-state — a definite one, anything else and every target a maybe.
    """
    acfg = schedule.acfg
    n = len(acfg)
    rids, cols = schedule.ref_rids, schedule.ref_cols
    codes = _ref_codes(schedule, classifications)
    reaches = codes != _LAYER_CODE[Classification.ALWAYS_HIT]
    definite = (codes == _LAYER_CODE[Classification.ALWAYS_MISS]) | (
        may.reachable[rids]
        & (may.dense_in[rids, cols] >= may.universe.config.associativity)
    )
    own = np.full(n, -1, dtype=np.int64)
    own[rids[reaches]] = cols[reaches]
    maybe = np.ones((n, 2), dtype=bool)
    maybe[rids, 0] = ~definite
    target = _target_stream(acfg, schedule.universe, schedule.locked_blocks)
    steps = schedule.steps
    ops, bounds, elided = _compile_ops(
        np.arange(n), np.array([step.start for step in steps]),
        np.asarray(schedule.step_of), own, target, maybe,
        universe.config.num_sets,
    )
    level = copy.copy(schedule)
    level.universe = universe
    level.steps = [
        SegmentStep(
            step.index, step.start, step.end, step.preds, step.back_srcs,
            step.deps, tuple(ops[bounds[j]:bounds[j + 1]]), elided[j],
        )
        for j, step in enumerate(steps)
    ]
    level.steps_reused = 0
    return level


def l2_hits_dense(schedule: KernelSchedule, classifications,
                  l2_must: DenseDataflowResult) -> frozenset:
    """Vectorized :func:`repro.cache.classify.l2_guaranteed_hits`."""
    rids, cols = schedule.ref_rids, schedule.ref_cols
    missed = ~np.isin(
        _ref_codes(schedule, classifications),
        [_LAYER_CODE[label] for label in HIT_CLASSES],
    )
    held = l2_must.reachable[rids] & (
        l2_must.dense_in[rids, cols] < l2_must.universe.config.associativity
    )
    return frozenset(rids[missed & held].tolist())
