"""Job request/response schemas of the analysis service.

A job is ``{"kind": ..., "params": {...}}``.  Four kinds exist:

* ``optimize`` — optimize one program for one cache/technology and
  report the optimizer's outcome plus the WCET guarantee;
* ``usecase`` — the paper's paired original/optimized measurement of
  one use case (full serialized result + ratios);
* ``sweep`` — a grid of use cases, returning per-case rows and the
  aggregate summary (the same document as ``repro sweep --json``);
* ``shard`` — an explicit case list (not a product grid) dispatched by
  a fabric coordinator; returns per-case serialized results keyed by
  the fleet content hash (:mod:`repro.fabric`).

The fabric coordinator adds two request families of its own —
:func:`parse_fabric_sweep` (``POST /v1/fabric/sweeps``) and
:func:`parse_worker_registration` (``POST /v1/fabric/workers``) —
validated here with the same field-naming error discipline.

:func:`parse_job` normalises a raw JSON payload into a
:class:`JobRequest`: the kind's field list, defaults, validators and
canonical-form rules all come from the axis table of
:mod:`repro.experiments.scenario`, and any violation raises
:class:`~repro.errors.ProtocolError`, which the HTTP layer maps to a
400 response naming the offending field.

Normalisation matters beyond error hygiene: the request's
:meth:`~JobRequest.fingerprint` — a content hash over the canonical
form, salted with :data:`~repro.experiments.cache.CODE_VERSION` — is
the coalescing key, so two payloads that differ only in spelled-out
defaults share one in-flight computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ProtocolError
from repro.experiments.cache import CODE_VERSION
from repro.experiments.scenario import canonical, resolve_int

#: The job kinds the service accepts.
JOB_KINDS = ("optimize", "usecase", "sweep", "shard")

#: The kernel the fabric submission path defaults to: the vectorized
#: abstract-domain kernel is the soak-tested default at fleet scale
#: (the differential CI job keeps it bit-identical to ``python``).
FABRIC_DEFAULT_KERNEL = "vectorized"


@dataclass(frozen=True)
class JobRequest:
    """A validated, normalised job.

    Attributes:
        kind: One of :data:`JOB_KINDS`.
        params: Canonical parameters (every default filled in, lists as
            tuples) — hashable, so requests can key dictionaries.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    def param(self, name: str) -> Any:
        """Look up one canonical parameter."""
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def params_dict(self) -> Dict[str, Any]:
        """The canonical parameters as a plain (JSON-able) dict."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self.params
        }

    def to_json(self) -> Dict[str, Any]:
        """The request as it is echoed back in job records."""
        return {"kind": self.kind, "params": self.params_dict()}

    def fingerprint(self) -> str:
        """Content hash: the coalescing and cache-bridge key.

        Two requests share a fingerprint exactly when they are
        guaranteed to produce the same result: same kind, same
        canonical parameters, same result-producing code
        (:data:`CODE_VERSION`).
        """
        blob = json.dumps(
            {
                "kind": self.kind,
                "params": self.params_dict(),
                "code_version": CODE_VERSION,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_job(payload: Any) -> JobRequest:
    """Validate and normalise one ``POST /v1/jobs`` body.

    Raises:
        ProtocolError: On any schema violation; the message names the
            offending field (the HTTP layer returns it in a 400 body).
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"job must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ProtocolError(
            f"kind: expected one of {JOB_KINDS}, got {kind!r}")
    params = payload.get("params", {})
    if not isinstance(params, Mapping):
        raise ProtocolError(
            f"params: expected a JSON object, got {type(params).__name__}")
    return JobRequest(kind=kind, params=canonical(kind, params))


# ----------------------------------------------------------------------
# fabric request families (coordinator endpoints)
# ----------------------------------------------------------------------
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz0123456789-_")


def _resolve_tenant(field: str, value: Any) -> str:
    if value is None:
        return "default"
    if (not isinstance(value, str) or not value or len(value) > 64
            or set(value) - _TENANT_CHARS):
        raise ProtocolError(f"{field}: expected 1-64 chars of [a-z0-9_-], "
                            f"got {value!r}")
    return value


def parse_fabric_sweep(payload: Any) -> Tuple[str, Dict[str, Any]]:
    """Validate one ``POST /v1/fabric/sweeps`` body.

    Returns ``(tenant, canonical sweep params dict)``.  The fabric
    path defaults the optimizer kernel to
    :data:`FABRIC_DEFAULT_KERNEL` (the single-node paths keep the
    optimizer's own default) — ``"kernel": "python"`` stays
    selectable per sweep.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"sweep must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"tenant", "params"})
    if unknown:
        raise ProtocolError(f"unknown field(s) {unknown} for a fabric sweep")
    tenant = _resolve_tenant("tenant", payload.get("tenant"))
    params = payload.get("params", {})
    if not isinstance(params, Mapping):
        raise ProtocolError(
            f"params: expected a JSON object, got {type(params).__name__}")
    if "kernel" not in params:
        params = dict(params, kernel=FABRIC_DEFAULT_KERNEL)
    return tenant, JobRequest(
        "sweep", canonical("sweep", params, where="a fabric sweep")
    ).params_dict()


def parse_worker_registration(payload: Any) -> Tuple[str, int]:
    """Validate one ``POST /v1/fabric/workers`` body.

    Returns ``(worker base url, capacity)``.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"registration must be a JSON object, "
            f"got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"url", "capacity"})
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {unknown} for a worker registration")
    url = payload.get("url")
    if not isinstance(url, str) or not url.startswith("http://"):
        raise ProtocolError(
            f"url: expected an http://host:port base url, got {url!r}")
    from repro.fabric.transport import split_base_url

    split_base_url(url)  # raises ServiceError on malformed urls
    capacity = payload.get("capacity", 1)
    return url.rstrip("/"), resolve_int("capacity", capacity,
                                        minimum=1, maximum=1024)
