"""Deterministic fault injection for the sweep/service execution layer.

A production-scale sweep must survive a worker crashing mid-case, a
transient system error, or a corrupted record — but none of those
happen on demand, so the failure-isolation machinery of
:func:`repro.experiments.sweep.run_sweep` would be untestable without a
way to *make* them happen deterministically.  This module is that way:

* the :data:`FAULT_PLAN_ENV` environment variable (``REPRO_FAULT_PLAN``)
  carries a JSON plan that survives the trip into pool workers (the
  environment is inherited under both ``fork`` and ``spawn``), so
  multi-process scenarios — a worker calling ``os._exit`` and breaking
  the pool — are reproducible in CI;
* :func:`set_fault_hook` installs an in-process callable for tests that
  stay single-process (the serial path, thread pools).

A plan maps ``"program/config_id/tech"`` keys (or ``"*"``) to specs::

    REPRO_FAULT_PLAN='{"bs/k1/45nm": {"kind": "crash", "attempts": [1]}}'

Fault kinds:

``crash``
    Raise :class:`SimulatedFault` — a deterministic use-case failure;
    the sweep records it, never retries it.
``transient``
    Raise ``OSError`` — the retriable family; the sweep backs off and
    retries up to its attempt budget.
``exit``
    ``os._exit(13)`` — kills the worker process outright, breaking the
    process pool (the pool-rebuild + requeue path).
``corrupt``
    Let the computation finish, then clobber the optimized ``tau_w``
    with :data:`CORRUPT_MARKER` — a result that is *wrong* without
    being an exception, for downstream-validation tests.

``attempts`` lists the 1-based attempt numbers the fault fires on
(default ``[1]``), so "fail twice then succeed" needs no shared state:
the attempt number travels inside the worker payload.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigError, ReproError

#: Environment variable carrying the JSON fault plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: The value a ``corrupt`` fault writes into the optimized ``tau_w``.
CORRUPT_MARKER = -1.0

FAULT_KINDS = ("crash", "transient", "exit", "corrupt")


class SimulatedFault(ReproError):
    """The deterministic failure a ``crash`` fault raises."""


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        attempts: 1-based attempt numbers the fault fires on.
    """

    kind: str
    attempts: Tuple[int, ...] = (1,)

    def fires_on(self, attempt: int) -> bool:
        """Whether this fault is active on the given attempt."""
        return attempt in self.attempts


#: In-process hook: ``(usecase, attempt) -> Optional[FaultSpec]``.
_HOOK: Optional[Callable[[object, int], Optional[FaultSpec]]] = None


def set_fault_hook(
    hook: Optional[Callable[[object, int], Optional[FaultSpec]]]
) -> None:
    """Install (or clear, with ``None``) the in-process fault hook.

    The hook only reaches code running in *this* process — the serial
    sweep path and thread pools.  Process-pool scenarios must use the
    :data:`FAULT_PLAN_ENV` plan instead.
    """
    global _HOOK
    _HOOK = hook


def parse_fault_plan(text: str) -> Dict[str, FaultSpec]:
    """Parse a JSON fault plan into ``key -> FaultSpec``.

    Raises:
        ConfigError: On malformed JSON, unknown fault kinds, or bad
            ``attempts`` values — named after the knob so a typo in
            ``REPRO_FAULT_PLAN`` fails loudly, not silently.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ConfigError(
            f"{FAULT_PLAN_ENV} is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError(
            f"{FAULT_PLAN_ENV} must be a JSON object, got "
            f"{type(data).__name__}"
        )
    plan: Dict[str, FaultSpec] = {}
    for key, raw in data.items():
        if not isinstance(raw, dict):
            raise ConfigError(
                f"{FAULT_PLAN_ENV}[{key!r}] must be an object"
            )
        kind = raw.get("kind")
        if kind not in FAULT_KINDS:
            raise ConfigError(
                f"{FAULT_PLAN_ENV}[{key!r}].kind must be one of "
                f"{FAULT_KINDS}, got {kind!r}"
            )
        attempts = raw.get("attempts", [1])
        if (not isinstance(attempts, list) or not attempts
                or not all(isinstance(a, int) and a >= 1 for a in attempts)):
            raise ConfigError(
                f"{FAULT_PLAN_ENV}[{key!r}].attempts must be a non-empty "
                f"list of attempt numbers >= 1, got {attempts!r}"
            )
        plan[key] = FaultSpec(kind=kind, attempts=tuple(attempts))
    return plan


@functools.lru_cache(maxsize=8)
def _cached_plan(text: str) -> Dict[str, FaultSpec]:
    return parse_fault_plan(text)


def env_plan() -> Dict[str, FaultSpec]:
    """The parsed :data:`FAULT_PLAN_ENV` plan (empty when unset).

    Parsed once per distinct text.  :func:`repro.experiments.sweep.run_sweep`
    calls it before any case runs, so a malformed plan fails the sweep
    up front instead of becoming one failure record per case.

    Raises:
        ConfigError: When the plan is malformed (see
            :func:`parse_fault_plan`).
    """
    text = os.environ.get(FAULT_PLAN_ENV, "").strip()
    return _cached_plan(text) if text else {}


def _env_fault(usecase, attempt: int) -> Optional[FaultSpec]:
    plan = env_plan()
    if not plan:
        return None
    key = f"{usecase.program}/{usecase.config_id}/{usecase.tech}"
    spec = plan.get(key) or plan.get("*")
    if spec is not None and spec.fires_on(attempt):
        return spec
    return None


def active_fault(usecase, attempt: int) -> Optional[FaultSpec]:
    """The fault to inject for this (use case, attempt), if any.

    The in-process hook wins over the environment plan; both absent —
    the overwhelmingly common case — costs one ``os.environ`` lookup.
    """
    if _HOOK is not None:
        spec = _HOOK(usecase, attempt)
        if spec is not None and spec.fires_on(attempt):
            return spec
        return None
    return _env_fault(usecase, attempt)


def inject_before(usecase, attempt: int) -> None:
    """Fire any pre-computation fault (crash/transient/exit)."""
    spec = active_fault(usecase, attempt)
    if spec is None:
        return
    label = f"{usecase.program}/{usecase.config_id}/{usecase.tech}"
    if spec.kind == "crash":
        raise SimulatedFault(
            f"injected crash for {label} (attempt {attempt})"
        )
    if spec.kind == "transient":
        raise OSError(
            f"injected transient fault for {label} (attempt {attempt})"
        )
    if spec.kind == "exit":
        os._exit(13)


def inject_after(usecase, attempt: int, result):
    """Apply any post-computation fault (``corrupt``) to ``result``."""
    spec = active_fault(usecase, attempt)
    if spec is not None and spec.kind == "corrupt":
        result.optimized.tau_w = CORRUPT_MARKER
    return result
