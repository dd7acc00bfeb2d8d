"""Lease-based shard scheduling with work-stealing and tenant fairness.

The coordinator owns a sweep's grid; workers own nothing.  Every shard
round-trip is guarded by a *lease* — a coordinator-side deadline on the
dispatch → result cycle — so a worker that dies, hangs or partitions
away is indistinguishable from (and handled exactly like) an expired
lease: the shard's unfinished cases are split and requeued, up to a
retry budget, after which they become the same transient
:class:`~repro.experiments.sweep.FailureRecord` a dead pool worker
produces in a local sweep.

Three scheduling layers stack on the single tick loop:

* **deficit round-robin across tenants** — each tenant has its own
  shard queue and a deficit counter topped up by a fixed quantum per
  scheduling visit; a tenant spends deficit to dispatch shards (cost =
  case count), so many small sweeps and one huge sweep interleave
  fairly instead of FIFO-starving each other;
* **leases** — dispatch creates an asyncio task that drives the worker
  over the HTTP job protocol (submit, poll, fetch); the tick loop
  expires overdue leases, cancels the task (best-effort DELETE on the
  worker) and requeues;
* **work-stealing** — when the queues are dry, idle capacity exists
  and a lease has been running past ``steal_after_s``, the unfinished
  cases of the straggling shard are cloned as a *speculative* shard
  and dispatched elsewhere (MapReduce backup-task style).  Results are
  content-addressed and deterministic, so whichever copy finishes
  second deduplicates in the :class:`~repro.fabric.store.ResultStore`.

Every merged case is emitted to the sweep's event feed the moment its
shard lands; the HTTP layer streams that feed as SSE.
"""

from __future__ import annotations

import asyncio
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from collections import deque

from repro.errors import QueueFullError, ServiceError
from repro.experiments.cache import result_from_dict, usecase_key
from repro.experiments.report import (
    failure_to_json,
    sweep_case_to_json,
    sweep_to_json,
)
from repro.experiments.scenario import KINDS, spec_from_params
from repro.experiments.sweep import DEFAULT_MAX_ATTEMPTS, FailureRecord
from repro.experiments.usecase import UseCase, UseCaseResult
from repro.fabric.shards import (
    Shard,
    auto_shard_size,
    clone_for_steal,
    partition,
    split,
)
from repro.fabric.store import ResultStore
from repro.fabric.transport import WorkerUnreachable, http_json
from repro.obs.log import get_logger
from repro.obs.trace import NOOP_SPAN, Tracer, format_traceparent

_log = get_logger("repro.fabric.coordinator")

#: DRR quantum in cases: deficit added per tenant per scheduling visit.
DRR_QUANTUM = 4

#: Scheduler tick (lease expiry / dispatch / steal cadence).
TICK_S = 0.05

_SWEEP_RUNNING = "running"
_SWEEP_DONE = "done"


@dataclass
class WorkerNode:
    """One registered worker and its live dispatch accounting.

    Attributes:
        url: Base URL of the worker's job API.
        capacity: Shards the coordinator keeps in flight on it at once.
        healthy: Cleared when the node stops answering; an unhealthy
            node gets no dispatches until it re-registers.
        inflight: Shard ids currently leased to this node.
    """

    url: str
    capacity: int = 1
    healthy: bool = True
    inflight: Set[str] = field(default_factory=set)
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    last_error: Optional[str] = None

    @property
    def free_slots(self) -> int:
        if not self.healthy:
            return 0
        return max(0, self.capacity - len(self.inflight))

    def to_json(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "capacity": self.capacity,
            "healthy": self.healthy,
            "inflight": len(self.inflight),
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failed": self.failed,
            "last_error": self.last_error,
        }


@dataclass
class _Lease:
    """One shard round-trip in flight on one worker."""

    shard: Shard
    worker: WorkerNode
    started_at: float  # monotonic
    deadline: float  # monotonic
    task: "asyncio.Task"
    job_id: Optional[str] = None
    stolen: bool = False  # a speculative clone was already launched
    span: Any = NOOP_SPAN  # the fabric.dispatch span of this round-trip


class FabricSweep:
    """One distributed sweep: grid, merge state, and the event feed."""

    def __init__(
        self,
        sweep_id: str,
        tenant: str,
        params: Dict[str, Any],
        cases: List[UseCase],
        keys: List[str],
    ):
        self.id = sweep_id
        self.tenant = tenant
        self.params = params
        self.cases = cases
        self.keys = keys
        self.key_to_index = {key: idx for idx, key in enumerate(keys)}
        self.case_to_index = {case: idx for idx, case in enumerate(cases)}
        n = len(cases)
        self.results: List[Optional[UseCaseResult]] = [None] * n
        self.settled: List[bool] = [False] * n
        self.failures: List[FailureRecord] = []
        self.remaining = n
        self.state = _SWEEP_RUNNING
        self.created_at = time.time()
        self.finished_at: Optional[float] = None
        self.shards_total = 0
        self.shards_completed = 0
        self.shards_requeued = 0
        self.steals = 0
        self.duplicates = 0
        #: Replay buffer + live fan-out: a subscriber attaching late
        #: first replays ``events``, then drains its queue — no merged
        #: case is ever missed or double-delivered.
        self.events: List[Tuple[str, Dict[str, Any]]] = []
        self.subscribers: List["asyncio.Queue"] = []
        self.done_event = asyncio.Event()
        #: The fabric.sweep span — open from submit to :meth:`_finish`;
        #: dispatch spans parent on it so one trace covers the sweep.
        self.span = NOOP_SPAN

    # ------------------------------------------------------------------
    # event feed
    # ------------------------------------------------------------------
    def emit(self, event: str, data: Dict[str, Any]) -> None:
        self.events.append((event, data))
        for queue in list(self.subscribers):
            queue.put_nowait((event, data))

    def subscribe(self) -> Tuple[List[Tuple[str, Dict[str, Any]]],
                                 "asyncio.Queue"]:
        """Replay snapshot + live queue, atomically consistent."""
        queue: "asyncio.Queue" = asyncio.Queue()
        snapshot = list(self.events)
        self.subscribers.append(queue)
        return snapshot, queue

    def unsubscribe(self, queue: "asyncio.Queue") -> None:
        try:
            self.subscribers.remove(queue)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # merge state
    # ------------------------------------------------------------------
    def settle_result(self, index: int, result: UseCaseResult,
                      worker: str) -> bool:
        if self.settled[index]:
            self.duplicates += 1
            return False
        self.settled[index] = True
        self.results[index] = result
        self.remaining -= 1
        row = sweep_case_to_json(result)
        row["index"] = index
        row["key"] = self.keys[index]
        row["worker"] = worker
        self.emit("case", row)
        return True

    def settle_failure(self, record: FailureRecord) -> bool:
        if self.settled[record.index]:
            return False
        self.settled[record.index] = True
        self.remaining -= 1
        self.failures.append(record)
        row = failure_to_json(record)
        row["index"] = record.index
        self.emit("failure", row)
        return True

    def unsettled_of(self, shard: Shard) -> List[int]:
        return [idx for idx in shard.indices if not self.settled[idx]]

    @property
    def done(self) -> bool:
        return self.remaining == 0

    def result_document(self) -> Dict[str, Any]:
        """The final merged document — same shape as ``repro sweep
        --json`` (``cases``/``summary``/``failures``), plus a
        ``fabric`` section with the distribution story."""
        ordered = [r for r in self.results if r is not None]
        failures = sorted(self.failures, key=lambda r: r.index)
        data = sweep_to_json(ordered, failures=failures)
        data["fabric"] = {
            "sweep_id": self.id,
            "tenant": self.tenant,
            "shards": self.shards_total,
            "shards_completed": self.shards_completed,
            "shards_requeued": self.shards_requeued,
            "steals": self.steals,
            "duplicates": self.duplicates,
        }
        return data

    def to_json(self) -> Dict[str, Any]:
        """The sweep record (``GET /v1/fabric/sweeps/<id>``)."""
        total = len(self.cases)
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "params": dict(self.params),
            "cases": total,
            "completed": total - self.remaining - len(self.failures),
            "failed": len(self.failures),
            "remaining": self.remaining,
            "shards": self.shards_total,
            "shards_completed": self.shards_completed,
            "steals": self.steals,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
        }


class Coordinator:
    """Shard scheduler over a fleet of worker nodes.

    Args:
        store: The fleet-shared result store (a bare in-memory one is
            built when omitted).
        telemetry: Optional :class:`ServiceTelemetry` carrying the
            ``fabric_*`` vocabulary.
        lease_timeout_s: Deadline on one shard round-trip; an overdue
            lease is cancelled and its cases requeued (split).
        steal_after_s: Age past which a still-running lease becomes a
            steal candidate once the queues are dry.
        shard_size: Forced cases-per-shard; ``None`` sizes shards to
            the fleet (:func:`~repro.fabric.shards.auto_shard_size`).
        max_queued_shards: Backpressure bound across all tenants.
        rpc_timeout_s: Per-HTTP-call timeout against workers.
        poll_interval_s: Worker job-status poll cadence.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        telemetry=None,
        lease_timeout_s: float = 120.0,
        steal_after_s: float = 5.0,
        shard_size: Optional[int] = None,
        max_queued_shards: int = 1024,
        rpc_timeout_s: float = 10.0,
        poll_interval_s: float = 0.1,
        shard_max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        drr_quantum: int = DRR_QUANTUM,
        tracer: Optional[Tracer] = None,
    ):
        self.store = store if store is not None else ResultStore()
        self.telemetry = telemetry
        self.tracer = (
            tracer if tracer is not None else Tracer(service="coordinator")
        )
        self.lease_timeout_s = lease_timeout_s
        self.steal_after_s = steal_after_s
        self.shard_size = shard_size
        self.max_queued_shards = max_queued_shards
        self.rpc_timeout_s = rpc_timeout_s
        self.poll_interval_s = poll_interval_s
        self.shard_max_attempts = max(1, shard_max_attempts)
        self.drr_quantum = max(1, drr_quantum)

        self.workers: Dict[str, WorkerNode] = {}
        self.sweeps: Dict[str, FabricSweep] = {}
        self._queues: Dict[str, Deque[Shard]] = {}
        self._deficit: Dict[str, float] = {}
        self._ring: List[str] = []  # tenant visit order (DRR)
        self._ring_idx = 0
        self._leases: Dict[str, _Lease] = {}
        self._queued = 0
        self._tick_task: Optional["asyncio.Task"] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._tick_task is None:
            self._tick_task = asyncio.get_running_loop().create_task(
                self._tick_loop(), name="repro-fabric-tick"
            )

    async def close(self) -> None:
        self._closed = True
        tasks = [lease.task for lease in self._leases.values()]
        if self._tick_task is not None:
            tasks.append(self._tick_task)
            self._tick_task = None
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._leases.clear()

    # ------------------------------------------------------------------
    # fleet membership
    # ------------------------------------------------------------------
    def register_worker(self, url: str, capacity: int = 1) -> WorkerNode:
        """Add (or refresh) a worker node; idempotent on the URL.

        Re-registration marks a previously unreachable node healthy
        again — a restarted worker announces itself and immediately
        rejoins the dispatch rotation.
        """
        url = url.rstrip("/")
        node = self.workers.get(url)
        if node is None:
            node = WorkerNode(url=url, capacity=max(1, capacity))
            self.workers[url] = node
        else:
            node.capacity = max(1, capacity)
            node.healthy = True
            node.last_error = None
        if self.telemetry is not None:
            self.telemetry.fabric_workers.set(
                sum(1 for w in self.workers.values() if w.healthy)
            )
        return node

    def fleet_capacity(self) -> int:
        return sum(w.capacity for w in self.workers.values() if w.healthy)

    # ------------------------------------------------------------------
    # sweep submission
    # ------------------------------------------------------------------
    def submit_sweep(self, tenant: str,
                     params: Dict[str, Any]) -> FabricSweep:
        """Accept one sweep: pre-resolve from the store, shard, queue.

        ``params`` is the canonical sweep-parameter dict (programs /
        configs / techs / baseline / budget / seed / kernel) the
        protocol layer validated.  Raises :class:`QueueFullError` when
        the shard backlog is at capacity.
        """
        if not self.workers:
            raise ServiceError(
                "no workers registered with this coordinator", status=503
            )
        # The local sweep's own grid: the merged document keeps the
        # exact case order and keys of a local `repro sweep`.
        spec = spec_from_params(params)
        cases = spec.usecases()
        options = spec.optimizer_options()
        keys = [usecase_key(usecase, spec.seed, options) for usecase in cases]
        sweep = FabricSweep(
            sweep_id=uuid.uuid4().hex[:12],
            tenant=tenant,
            params=params,
            cases=cases,
            keys=keys,
        )
        # Parented on the ambient request span (when the submit was
        # traced); held open until _finish so dispatch/steal/requeue
        # decisions land under one sweep span.
        sweep.span = self.tracer.start_span("fabric.sweep", attributes={
            "sweep_id": sweep.id,
            "tenant": tenant,
            "cases": len(cases),
        })

        # Pre-resolve: anything the fleet (or an earlier sweep) already
        # computed settles immediately and appears in the replay buffer.
        pending: List[int] = []
        for idx, key in enumerate(keys):
            hit = self.store.get(key)
            if hit is not None:
                sweep.settle_result(idx, hit, worker="store")
            else:
                pending.append(idx)
        if len(pending) < len(cases):
            sweep.span.add_event(
                "store_hits", resolved=len(cases) - len(pending)
            )

        if pending:
            size = (
                self.shard_size
                if self.shard_size is not None
                else auto_shard_size(len(pending), self.fleet_capacity())
            )
            shards = partition(sweep.id, tenant, pending, keys, size)
            if self._queued + len(shards) > self.max_queued_shards:
                sweep.span.set_status("error", "fabric backlog full")
                sweep.span.end()
                raise QueueFullError(
                    f"fabric backlog is full ({self._queued} shards "
                    f"queued, cap {self.max_queued_shards})",
                    status=429,
                    retry_after=5,
                )
            sweep.shards_total = len(shards)
            self.sweeps[sweep.id] = sweep
            for shard in shards:
                self._enqueue(shard)
        else:
            self.sweeps[sweep.id] = sweep

        if self.telemetry is not None:
            self.telemetry.fabric_sweeps.inc()
        _log.info(
            "sweep accepted", sweep_id=sweep.id, tenant=tenant,
            cases=len(cases), shards=sweep.shards_total,
            store_hits=len(cases) - len(pending),
        )
        sweep.emit("progress", self._progress_of(sweep))
        if sweep.done:
            self._finish(sweep)
        return sweep

    def get_sweep(self, sweep_id: str) -> Optional[FabricSweep]:
        return self.sweeps.get(sweep_id)

    # ------------------------------------------------------------------
    # tenant queues + DRR
    # ------------------------------------------------------------------
    def _enqueue(self, shard: Shard, front: bool = False) -> None:
        queue = self._queues.get(shard.tenant)
        if queue is None:
            queue = deque()
            self._queues[shard.tenant] = queue
            self._deficit.setdefault(shard.tenant, 0.0)
            self._ring.append(shard.tenant)
        if front:
            queue.appendleft(shard)
        else:
            queue.append(shard)
        self._queued += 1
        if self.telemetry is not None:
            self.telemetry.fabric_queue_depth.set(self._queued)

    def _next_shard(self) -> Optional[Shard]:
        """Deficit-round-robin pick across tenant queues.

        Each visit tops the tenant's deficit up by the quantum; a
        shard dispatches when the deficit covers its case count.  An
        emptied tenant queue forfeits its remaining deficit (classic
        DRR — credit must not accumulate while idle).
        """
        active = [t for t in self._ring if self._queues.get(t)]
        if not active:
            return None
        # Bounded: each full pass adds quantum to some tenant whose
        # head shard costs at most MAX_SHARD_CASES, so a pick happens
        # within ceil(max_size / quantum) passes.
        max_passes = 2 + max(
            self._queues[t][0].size for t in active
        ) // self.drr_quantum
        for _ in range(max_passes * len(active)):
            self._ring_idx %= len(self._ring)
            tenant = self._ring[self._ring_idx]
            queue = self._queues.get(tenant)
            if not queue:
                self._deficit[tenant] = 0.0
                self._ring_idx += 1
                continue
            self._deficit[tenant] += self.drr_quantum
            if queue[0].size <= self._deficit[tenant]:
                shard = queue.popleft()
                self._deficit[tenant] -= shard.size
                if not queue:
                    self._deficit[tenant] = 0.0
                self._queued -= 1
                if self.telemetry is not None:
                    self.telemetry.fabric_queue_depth.set(self._queued)
                return shard
            self._ring_idx += 1
        return None  # pragma: no cover - bound is generous

    # ------------------------------------------------------------------
    # the tick loop: expiry, dispatch, steal
    # ------------------------------------------------------------------
    async def _tick_loop(self) -> None:
        while not self._closed:
            try:
                self._expire_leases()
                self._dispatch()
                self._maybe_steal()
            except Exception:  # defensive: the scheduler must not die
                pass
            await asyncio.sleep(TICK_S)

    def _pick_worker(self) -> Optional[WorkerNode]:
        best = None
        for node in self.workers.values():
            if node.free_slots <= 0:
                continue
            if best is None or node.free_slots > best.free_slots:
                best = node
        return best

    def _pick_unhealthy_worker(self) -> Optional[WorkerNode]:
        """Last resort when the whole fleet is marked down.

        Queued shards must keep burning their retry budget against
        *some* node — otherwise a fleet-wide outage parks the sweep
        forever instead of failing its cases after
        ``shard_max_attempts``.  A node that answers flips back to
        healthy on the spot.
        """
        for node in self.workers.values():
            if node.capacity - len(node.inflight) > 0:
                return node
        return None

    def _dispatch(self) -> None:
        while True:
            worker = self._pick_worker() or self._pick_unhealthy_worker()
            if worker is None:
                return
            shard = self._next_shard()
            if shard is None:
                return
            self._lease(shard, worker)

    def _lease(self, shard: Shard, worker: WorkerNode) -> None:
        shard.attempts += 1
        now = time.monotonic()
        sweep = self.sweeps.get(shard.sweep_id)
        span = self.tracer.start_span(
            "fabric.dispatch",
            parent=sweep.span.context if sweep is not None else None,
            attributes={
                "shard": shard.id,
                "worker": worker.url,
                "attempt": shard.attempts,
                "cases": shard.size,
                "speculative": shard.speculative,
            },
        )
        task = asyncio.get_running_loop().create_task(
            self._run_on_worker(shard, worker, span),
            name=f"repro-fabric-shard-{shard.id}",
        )
        self._leases[shard.id] = _Lease(
            shard=shard,
            worker=worker,
            started_at=now,
            deadline=now + self.lease_timeout_s,
            task=task,
            span=span,
        )
        worker.inflight.add(shard.id)
        worker.dispatched += 1
        if self.telemetry is not None:
            self.telemetry.fabric_shards_dispatched.inc()
        _log.debug(
            "shard dispatched", shard=shard.id, worker=worker.url,
            attempt=shard.attempts, cases=shard.size,
            speculative=shard.speculative,
        )

    def _expire_leases(self) -> None:
        now = time.monotonic()
        for lease in [
            l for l in self._leases.values() if l.deadline <= now
        ]:
            self._release(lease)
            lease.task.cancel()
            lease.span.add_event("lease_expired", worker=lease.worker.url)
            lease.span.set_status(
                "error", f"lease expired after {self.lease_timeout_s:g}s"
            )
            lease.span.end()
            if lease.job_id is not None:
                # Best-effort cancel on the worker; its fate no longer
                # matters — a late result deduplicates in the store.
                asyncio.get_running_loop().create_task(
                    self._cancel_remote(lease.worker, lease.job_id)
                )
            if self.telemetry is not None:
                self.telemetry.fabric_lease_expiries.inc()
            _log.warning(
                "lease expired", shard=lease.shard.id,
                worker=lease.worker.url,
                timeout_s=self.lease_timeout_s,
            )
            self._requeue(
                lease.shard,
                f"lease expired after {self.lease_timeout_s:g}s "
                f"on {lease.worker.url}",
            )

    async def _cancel_remote(self, worker: WorkerNode, job_id: str) -> None:
        try:
            await http_json(
                worker.url, "DELETE", f"/v1/jobs/{job_id}",
                timeout_s=self.rpc_timeout_s,
            )
        except WorkerUnreachable:
            pass

    def _maybe_steal(self) -> None:
        """Clone stragglers' unfinished cases onto idle capacity."""
        if self._queued or not self._leases:
            return
        if self._pick_worker() is None:
            return
        now = time.monotonic()
        for lease in list(self._leases.values()):
            if lease.stolen or lease.shard.speculative:
                continue
            if now - lease.started_at < self.steal_after_s:
                continue
            sweep = self.sweeps.get(lease.shard.sweep_id)
            if sweep is None or sweep.done:
                continue
            remaining = sweep.unsettled_of(lease.shard)
            if not remaining:
                continue
            lease.stolen = True
            clone = clone_for_steal(lease.shard, remaining, sweep.keys)
            sweep.steals += 1
            sweep.span.add_event(
                "steal", shard=lease.shard.id,
                straggler=lease.worker.url, cases=len(remaining),
            )
            if self.telemetry is not None:
                self.telemetry.fabric_steals.inc()
            _log.info(
                "shard stolen", shard=lease.shard.id,
                straggler=lease.worker.url, cases=len(remaining),
            )
            self._enqueue(clone, front=True)
            worker = self._pick_worker()
            if worker is None:
                return

    # ------------------------------------------------------------------
    # one shard round-trip
    # ------------------------------------------------------------------
    def _shard_params(self, shard: Shard) -> Dict[str, Any]:
        sweep = self.sweeps[shard.sweep_id]
        return {
            "cases": [sweep.cases[i].row() for i in shard.indices],
            # The shard kind's other fields, as the canonical sweep
            # params carry them (omit-when-default ones only when set).
            **{f.name: sweep.params[f.name] for f in KINDS["shard"]
               if f.name in sweep.params},
        }

    async def _run_on_worker(self, shard: Shard, worker: WorkerNode,
                             span: Any = NOOP_SPAN) -> None:
        lease = None
        try:
            status, body = await http_json(
                worker.url, "POST", "/v1/jobs",
                {"kind": "shard", "params": self._shard_params(shard)},
                timeout_s=self.rpc_timeout_s,
                traceparent=(
                    format_traceparent(span.context)
                    if span.recording else None
                ),
            )
            if status == 429:
                # The worker's own queue is full — not a death; back
                # off by requeueing without burning the retry budget.
                span.add_event("backpressure", worker=worker.url)
                span.end()
                shard.attempts -= 1
                self._release(self._leases.get(shard.id))
                self._enqueue(shard)
                return
            if status != 202:
                raise WorkerUnreachable(
                    worker.url, f"job submit returned {status}: {body!r}"
                )
            job_id = body["job"]["id"]
            lease = self._leases.get(shard.id)
            if lease is not None:
                lease.job_id = job_id

            while True:
                await asyncio.sleep(self.poll_interval_s)
                status, body = await http_json(
                    worker.url, "GET", f"/v1/jobs/{job_id}",
                    timeout_s=self.rpc_timeout_s,
                )
                if status != 200:
                    raise WorkerUnreachable(
                        worker.url,
                        f"job poll returned {status}: {body!r}",
                    )
                state = body["job"]["state"]
                if state in ("done", "failed", "cancelled"):
                    break

            if state != "done":
                failure = body["job"].get("failure") or {}
                raise WorkerUnreachable(
                    worker.url,
                    f"shard job {state}: "
                    f"{failure.get('message', 'no detail')}",
                )
            status, body = await http_json(
                worker.url, "GET", f"/v1/results/{job_id}",
                timeout_s=self.rpc_timeout_s,
            )
            if status != 200:
                raise WorkerUnreachable(
                    worker.url, f"result fetch returned {status}"
                )
            self._release(self._leases.get(shard.id))
            span.end()
            worker.completed += 1
            if not worker.healthy:
                # The node answered a full round-trip: it is back.
                worker.healthy = True
                worker.last_error = None
                if self.telemetry is not None:
                    self.telemetry.fabric_workers.set(sum(
                        1 for w in self.workers.values() if w.healthy
                    ))
            self._ingest(shard, worker, body["result"])
        except asyncio.CancelledError:
            # Lease expiry or shutdown; the expirer already released us.
            raise
        except (WorkerUnreachable, KeyError, TypeError) as exc:
            # KeyError/TypeError: the node answered something that is
            # not the job protocol — treat like a dead node.
            self._release(self._leases.get(shard.id))
            span.set_status("error", str(exc))
            span.end()
            worker.failed += 1
            worker.healthy = False
            worker.last_error = str(exc)
            if self.telemetry is not None:
                self.telemetry.fabric_workers.set(
                    sum(1 for w in self.workers.values() if w.healthy)
                )
            self._requeue(shard, str(exc))

    def _release(self, lease: Optional[_Lease]) -> None:
        if lease is None:
            return
        self._leases.pop(lease.shard.id, None)
        lease.worker.inflight.discard(lease.shard.id)

    def _requeue(self, shard: Shard, reason: str) -> None:
        """Requeue an unfinished shard, split; or fail it permanently."""
        sweep = self.sweeps.get(shard.sweep_id)
        if sweep is None or sweep.done:
            return
        remaining = sweep.unsettled_of(shard)
        if not remaining:
            self._check_done(sweep)
            return
        if shard.speculative:
            # The origin lease still covers these cases; losing the
            # speculative copy costs nothing.
            return
        if shard.attempts >= self.shard_max_attempts:
            sweep.span.add_event(
                "shard_failed", shard=shard.id,
                attempts=shard.attempts, reason=reason,
            )
            _log.warning(
                "shard failed permanently", shard=shard.id,
                attempts=shard.attempts, reason=reason,
            )
            for idx in remaining:
                sweep.settle_failure(FailureRecord(
                    usecase=sweep.cases[idx],
                    index=idx,
                    error_type="ShardDispatchError",
                    message=reason,
                    attempts=shard.attempts,
                    worker_pid=0,
                    transient=True,
                ))
            sweep.emit("progress", self._progress_of(sweep))
            self._check_done(sweep)
            return
        sweep.shards_requeued += 1
        sweep.span.add_event(
            "shard_requeued", shard=shard.id,
            attempt=shard.attempts, reason=reason,
        )
        if self.telemetry is not None:
            self.telemetry.fabric_shards_requeued.inc()
        _log.warning(
            "shard requeued", shard=shard.id,
            attempt=shard.attempts, reason=reason,
        )
        rebuilt = Shard(
            id=shard.id,
            sweep_id=shard.sweep_id,
            tenant=shard.tenant,
            indices=tuple(remaining),
            keys=tuple(sweep.keys[i] for i in remaining),
            attempts=shard.attempts,
        )
        for half in split(rebuilt):
            self._enqueue(half, front=True)

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def _ingest(self, shard: Shard, worker: WorkerNode,
                doc: Dict[str, Any]) -> None:
        sweep = self.sweeps.get(shard.sweep_id)
        if sweep is None:
            return
        merged = 0
        for row in doc.get("cases", ()):
            key = row.get("key")
            idx = sweep.key_to_index.get(key)
            if idx is None:
                continue
            result = result_from_dict(row["result"])
            self.store.put(key, result)
            if sweep.settle_result(idx, result, worker=worker.url):
                merged += 1
        for failure in doc.get("failures", ()):
            if shard.speculative:
                # A steal's failure never outranks the origin lease.
                continue
            idx = sweep.case_to_index.get(UseCase(
                failure.get("program"),
                failure.get("config"),
                failure.get("tech"),
                failure.get("l2"),
            ))
            if idx is None:
                continue
            sweep.settle_failure(FailureRecord(
                usecase=sweep.cases[idx],
                index=idx,
                error_type=failure.get("error_type", "UnknownError"),
                message=failure.get("message", ""),
                attempts=failure.get("attempts", 1),
                worker_pid=failure.get("worker_pid", 0),
                transient=bool(failure.get("transient", False)),
            ))
        sweep.shards_completed += 1
        if self.telemetry is not None:
            self.telemetry.fabric_shards_completed.inc()
            if merged:
                self.telemetry.fabric_results_merged.inc(merged)
        sweep.emit("progress", self._progress_of(sweep))
        self._check_done(sweep)

    def _progress_of(self, sweep: FabricSweep) -> Dict[str, Any]:
        total = len(sweep.cases)
        return {
            "sweep_id": sweep.id,
            "total": total,
            "completed": total - sweep.remaining - len(sweep.failures),
            "failed": len(sweep.failures),
            "inflight_shards": sum(
                1 for l in self._leases.values()
                if l.shard.sweep_id == sweep.id
            ),
            "queued_shards": self._queued,
        }

    def _check_done(self, sweep: FabricSweep) -> None:
        if sweep.done and sweep.state == _SWEEP_RUNNING:
            self._finish(sweep)

    def _finish(self, sweep: FabricSweep) -> None:
        sweep.state = _SWEEP_DONE
        sweep.finished_at = time.time()
        sweep.span.set_attributes({
            "shards": sweep.shards_total,
            "shards_requeued": sweep.shards_requeued,
            "steals": sweep.steals,
            "duplicates": sweep.duplicates,
            "failed": len(sweep.failures),
        })
        if sweep.failures:
            sweep.span.set_status(
                "error", f"{len(sweep.failures)} case(s) failed"
            )
        sweep.span.end()
        _log.info(
            "sweep done", sweep_id=sweep.id,
            shards=sweep.shards_total, steals=sweep.steals,
            requeued=sweep.shards_requeued, failed=len(sweep.failures),
        )
        summary = sweep.result_document()["summary"]
        sweep.emit("done", {
            "sweep_id": sweep.id,
            "summary": summary,
            "fabric": {
                "shards": sweep.shards_total,
                "shards_completed": sweep.shards_completed,
                "shards_requeued": sweep.shards_requeued,
                "steals": sweep.steals,
            },
        })
        sweep.done_event.set()

    # ------------------------------------------------------------------
    # fleet metrics + introspection
    # ------------------------------------------------------------------
    async def fleet_expositions(self) -> List[Tuple[str, str]]:
        """``(worker_url, raw /metrics text)`` per reachable worker.

        The URL lets the merge layer label each worker's series, so a
        straggling node is identifiable from the fleet ``/metrics``.
        """
        async def fetch(node: WorkerNode) -> Optional[Tuple[str, str]]:
            try:
                status, body = await http_json(
                    node.url, "GET", "/metrics",
                    timeout_s=self.rpc_timeout_s,
                )
            except WorkerUnreachable:
                return None
            if status == 200 and isinstance(body, str):
                return node.url, body
            return None

        pairs = await asyncio.gather(
            *(fetch(node) for node in self.workers.values())
        )
        return [pair for pair in pairs if pair]

    async def fleet_traces(self, trace_id: str) -> List[List[Dict[str, Any]]]:
        """Every worker's span documents for one trace id.

        Unreachable nodes and nodes that never saw the trace (404)
        contribute nothing — trace retrieval is best-effort and must
        not fail because one worker is down.
        """
        async def fetch(node: WorkerNode) -> List[Dict[str, Any]]:
            try:
                status, body = await http_json(
                    node.url, "GET", f"/v1/traces/{trace_id}",
                    timeout_s=self.rpc_timeout_s,
                )
            except WorkerUnreachable:
                return []
            if status == 200 and isinstance(body, dict):
                spans = body.get("spans")
                if isinstance(spans, list):
                    return spans
            return []

        lists = await asyncio.gather(
            *(fetch(node) for node in self.workers.values())
        )
        return [spans for spans in lists if spans]

    def stats(self) -> Dict[str, Any]:
        """Coordinator facts for ``/healthz``."""
        return {
            "workers": [w.to_json() for w in self.workers.values()],
            "sweeps": len(self.sweeps),
            "queued_shards": self._queued,
            "leases": len(self._leases),
            "lease_timeout_s": self.lease_timeout_s,
            "steal_after_s": self.steal_after_s,
            "store": self.store.stats(),
        }
