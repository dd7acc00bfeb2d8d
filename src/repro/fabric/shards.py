"""Grid partitioning into content-hash-keyed shards.

A shard is the fabric's distribution unit: an ordered slice of a
sweep's use-case indices, identified by a content hash over the
per-case cache keys it covers (so a shard id is machine-independent
and stable across coordinator restarts for the same grid + options).

Two operations matter:

* :func:`partition` — cut the pending indices of a fresh sweep into
  shards sized for the fleet (enough shards that every worker stays
  busy and the tail is short, but not so many that per-shard dispatch
  overhead dominates);
* :func:`split` — halve a shard for work-stealing: when a lease
  expires or a straggler is speculated against, re-dispatching two
  half shards lets two workers finish what one was slow to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

# The protocol's cap on one shard job: an auto-sized shard must always
# be submittable.
from repro.experiments.scenario import MAX_SHARD_CASES

#: How many shards per unit of fleet capacity :func:`partition` aims
#: for — >1 so the scheduler has slack for stealing and fairness.
SHARDS_PER_SLOT = 4


def shard_id(sweep_id: str, case_keys: Sequence[str],
             speculative: bool = False) -> str:
    """Content-hash id of a shard.

    Hashes the sweep id plus the covered per-case cache keys — two
    shards over the same cases of the same sweep share an id, and a
    speculative clone is distinguishable from its origin.
    """
    digest = hashlib.sha256()
    digest.update(sweep_id.encode("utf-8"))
    if speculative:
        digest.update(b"#steal")
    for key in case_keys:
        digest.update(b"\0")
        digest.update(key.encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass
class Shard:
    """One dispatchable slice of a sweep.

    Attributes:
        id: Content-hash id (:func:`shard_id`).
        sweep_id: Owning sweep.
        tenant: Tenant the owning sweep belongs to (fairness key).
        indices: Grid-order case indices this shard covers.
        keys: The per-case cache keys (parallel to ``indices``).
        attempts: Dispatch attempts so far (a requeue increments).
        speculative: Whether this is a work-stealing clone of a shard
            that is still leased elsewhere (its results merge
            idempotently; its failures are ignored).
    """

    id: str
    sweep_id: str
    tenant: str
    indices: Tuple[int, ...]
    keys: Tuple[str, ...]
    attempts: int = 0
    speculative: bool = field(default=False)

    @property
    def size(self) -> int:
        """Number of cases in the shard (the DRR cost unit)."""
        return len(self.indices)


def auto_shard_size(pending: int, fleet_capacity: int) -> int:
    """The shard size :func:`partition` uses when none is forced.

    Aims for :data:`SHARDS_PER_SLOT` shards per fleet slot so the
    scheduler can keep every worker busy and still has tail shards to
    steal; clamps to ``[1, MAX_SHARD_CASES]``.
    """
    slots = max(1, fleet_capacity)
    target = max(1, slots * SHARDS_PER_SLOT)
    size = max(1, -(-pending // target))  # ceil division
    return min(size, MAX_SHARD_CASES)


def partition(
    sweep_id: str,
    tenant: str,
    indices: Sequence[int],
    keys: Sequence[str],
    shard_size: int,
) -> List[Shard]:
    """Cut pending case indices into shards of ``shard_size``.

    ``keys`` is the full per-case key list of the sweep (indexed by
    case index), so callers pass pending indices without re-deriving
    the key subset themselves.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    shards: List[Shard] = []
    for start in range(0, len(indices), shard_size):
        chunk = tuple(indices[start:start + shard_size])
        chunk_keys = tuple(keys[i] for i in chunk)
        shards.append(Shard(
            id=shard_id(sweep_id, chunk_keys),
            sweep_id=sweep_id,
            tenant=tenant,
            indices=chunk,
            keys=chunk_keys,
        ))
    return shards


def split(shard: Shard) -> List[Shard]:
    """Halve a shard (work-stealing / requeue-after-expiry).

    Attempt counts carry over — splitting is not a fresh start, so a
    flapping worker cannot reset the retry budget by repeatedly
    splitting the same cases.  A single-case shard returns itself.
    """
    if shard.size <= 1:
        return [shard]
    mid = shard.size // 2
    halves = []
    for indices, keys in (
        (shard.indices[:mid], shard.keys[:mid]),
        (shard.indices[mid:], shard.keys[mid:]),
    ):
        halves.append(Shard(
            id=shard_id(shard.sweep_id, keys,
                        speculative=shard.speculative),
            sweep_id=shard.sweep_id,
            tenant=shard.tenant,
            indices=indices,
            keys=keys,
            attempts=shard.attempts,
            speculative=shard.speculative,
        ))
    return halves


def clone_for_steal(shard: Shard, remaining_indices: Sequence[int],
                    keys: Sequence[str]) -> Shard:
    """A speculative clone covering a leased shard's unfinished cases.

    The clone gets a distinct content id (salted) so leases and
    telemetry can tell origin from steal, and ``speculative=True`` so
    its failure never burns the origin's retry budget.
    """
    chunk = tuple(remaining_indices)
    chunk_keys = tuple(keys[i] for i in chunk)
    return Shard(
        id=shard_id(shard.sweep_id, chunk_keys, speculative=True),
        sweep_id=shard.sweep_id,
        tenant=shard.tenant,
        indices=chunk,
        keys=chunk_keys,
        attempts=shard.attempts,
        speculative=True,
    )


def shard_to_json(shard: Shard) -> dict:
    """A shard as plain data (job payloads, records, tests)."""
    return {
        "id": shard.id,
        "sweep_id": shard.sweep_id,
        "tenant": shard.tenant,
        "indices": list(shard.indices),
        "cases": len(shard.indices),
        "attempts": shard.attempts,
        "speculative": shard.speculative,
    }
