"""Job request/response schemas of the analysis service.

A job is ``{"kind": ..., "params": {...}}``.  Three kinds exist:

* ``optimize`` — optimize one program for one cache/technology and
  report the optimizer's outcome plus the WCET guarantee;
* ``usecase`` — the paper's paired original/optimized measurement of
  one use case (full serialized result + ratios);
* ``sweep`` — a grid of use cases, returning per-case rows and the
  aggregate summary (the same document as ``repro sweep --json``).

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
from repro.experiments.scenario import canonical

#: The job kinds the service accepts.
JOB_KINDS = ("optimize", "usecase", "sweep")


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

