"""Blocking Python client for the analysis service.

:class:`ServiceClient` wraps the job protocol in synchronous calls —
submit, poll, fetch, cancel — with retry + *full-jitter* exponential
backoff on the two transient statuses the server emits under load
(429 queue-full, 503) and on connection errors during server startup.

Jitter matters when many clients share one service: when it restarts,
every client sees the same connection error at the same instant —
deterministic exponential backoff would march them all back in
lockstep, a thundering herd at exactly the moment the service is
weakest.  Full jitter (delay drawn uniformly from ``[0, cap]``) spreads
the retries across the whole window instead.  A server-sent
``Retry-After`` is honoured with *equal* jitter (at least half the
hint, never more than the hint), so an explicit hint still bounds the
wait from both sides.

    client = ServiceClient("127.0.0.1", 8080)
    job = client.submit("optimize", program="fdct", config="k1")
    result = client.result(job["id"], timeout=120.0)
    print(result["tau_original"], "->", result["tau_final"])

The ``sleep`` and ``rng`` hooks are injectable so tests exercise the
backoff schedule without real waiting or real randomness
(``rng=lambda: 1.0`` reproduces the old deterministic schedule).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ServiceError

#: Statuses worth retrying: queue backpressure and transient overload.
RETRYABLE_STATUSES = (429, 503)


def split_base_url(base_url: str) -> Tuple[str, int]:
    """``http://host:port`` -> ``(host, port)``; validates the scheme."""
    parts = urlsplit(base_url)
    if parts.scheme != "http" or not parts.hostname:
        raise ServiceError(
            f"service url must be http://host:port, got {base_url!r}",
            status=400,
        )
    return parts.hostname, parts.port or 80


def backoff_delay(
    attempt: int,
    base: float = 0.1,
    cap: float = 2.0,
    rng: Optional[Callable[[], float]] = None,
) -> float:
    """Full-jitter exponential backoff (AWS style).

    The delay is ``rng() * min(cap, base * 2**attempt)`` with ``rng``
    uniform on ``[0, 1)`` — the exponential term bounds the window,
    the jitter decorrelates many clients retrying in unison.  Pass
    ``rng=lambda: 1.0`` for the deterministic upper envelope.
    """
    if rng is None:
        rng = random.random
    return rng() * min(cap, base * (2 ** attempt))


def retry_after_delay(
    hint: float, rng: Optional[Callable[[], float]] = None
) -> float:
    """Equal-jitter delay for a server-sent ``Retry-After`` hint.

    Uniform on ``[hint/2, hint]``: never sooner than half the hint
    (the server asked for breathing room), never later than the hint
    itself (``rng=lambda: 1.0`` gives exactly the hint).
    """
    if rng is None:
        rng = random.random
    return hint * 0.5 + rng() * hint * 0.5


class ServiceClient:
    """A blocking client with retry + exponential backoff.

    Args:
        host / port: Server address.
        timeout: Per-request socket timeout (seconds).
        max_retries: Retries on 429/503/connection-refused before
            giving up (0 = fail on the first rejection).
        backoff_base / backoff_cap: The exponential schedule
            (:func:`backoff_delay`).
        sleep: Injectable ``time.sleep`` replacement for tests.
        rng: Injectable uniform-[0,1) source for the jitter
            (``lambda: 1.0`` makes every delay deterministic).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        max_retries: int = 5,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
        traceparent: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._rng = rng
        #: Default W3C ``traceparent`` header sent with every request
        #: (per-call ``traceparent=`` arguments override it).
        self.traceparent = traceparent

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _once(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              traceparent: Optional[str] = None,
              ) -> Tuple[int, Dict[str, str], Any]:
        """One HTTP round-trip: (status, headers, decoded body)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body)
                headers["Content-Type"] = "application/json"
            tp = traceparent if traceparent is not None else self.traceparent
            if tp:
                headers["traceparent"] = tp
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            header_map = {k.lower(): v for k, v in response.getheaders()}
            content_type = header_map.get("content-type", "")
            if "json" in content_type:
                decoded: Any = json.loads(raw.decode("utf-8"))
            else:
                decoded = raw.decode("utf-8", errors="replace")
            return response.status, header_map, decoded
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 max_retries: Optional[int] = None,
                 traceparent: Optional[str] = None) -> Any:
        """A round-trip with the retry/backoff policy applied.

        Raises :class:`ServiceError` carrying the final status (and
        ``retry_after`` when the server sent one) on any >= 400
        response that outlived the retries.
        """
        retries = self.max_retries if max_retries is None else max_retries
        # Pass traceparent positionally only when set: tests (and
        # subclasses) stub ``_once`` with the historical three-argument
        # signature, which untraced requests must keep satisfying.
        extra = (traceparent,) if traceparent is not None else ()
        attempt = 0
        while True:
            try:
                status, headers, decoded = self._once(
                    method, path, body, *extra
                )
            except (ConnectionError, OSError) as exc:
                if attempt >= retries:
                    raise ServiceError(
                        f"cannot reach service at "
                        f"{self.host}:{self.port}: {exc}"
                    ) from exc
                self._sleep(backoff_delay(attempt, self.backoff_base,
                                          self.backoff_cap, rng=self._rng))
                attempt += 1
                continue
            if status < 400:
                return decoded
            retry_after = _parse_retry_after(headers.get("retry-after"))
            if status in RETRYABLE_STATUSES and attempt < retries:
                delay = (retry_after_delay(retry_after, rng=self._rng)
                         if retry_after is not None
                         else backoff_delay(attempt, self.backoff_base,
                                            self.backoff_cap, rng=self._rng))
                self._sleep(delay)
                attempt += 1
                continue
            message = (decoded.get("error", str(decoded))
                       if isinstance(decoded, dict) else str(decoded))
            raise ServiceError(
                f"{method} {path} -> {status}: {message}",
                status=status,
                retry_after=retry_after,
            )

    # ------------------------------------------------------------------
    # the job protocol
    # ------------------------------------------------------------------
    def submit(self, kind: str, max_retries: Optional[int] = None,
               traceparent: Optional[str] = None,
               **params: Any) -> Dict[str, Any]:
        """Submit a job; returns its record (see :class:`Job`)."""
        body = {"kind": kind, "params": params}
        return self._request(
            "POST", "/v1/jobs", body=body, max_retries=max_retries,
            traceparent=traceparent,
        )["job"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """The current job record."""
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued or running job; returns its final record."""
        return self._request("DELETE", f"/v1/jobs/{job_id}",
                             max_retries=0)["job"]

    def result(self, job_id: str, timeout: float = 120.0,
               poll_interval: float = 0.05) -> Dict[str, Any]:
        """Block until the job finishes; returns its result document.

        Polls the job record, then fetches ``/v1/results/<id>``.
        Raises :class:`ServiceError` on failure/cancellation or when
        ``timeout`` seconds pass without a terminal state.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                break
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['state']} after "
                    f"{timeout:g}s"
                )
            self._sleep(poll_interval)
        return self._request("GET", f"/v1/results/{job_id}",
                             max_retries=0)["result"]

    def run(self, kind: str, timeout: float = 120.0,
            **params: Any) -> Dict[str, Any]:
        """Submit + wait: the one-call convenience path."""
        job = self.submit(kind, **params)
        return self.result(job["id"], timeout=timeout)

    # ------------------------------------------------------------------
    # operational endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw ``/metrics`` text exposition."""
        return self._request("GET", "/metrics")

    def trace(self, trace_id: str) -> Dict[str, Any]:
        """One collected trace: ``{"trace_id", "spans": [...]}``.

        404 (raised as :class:`ServiceError`) means the service never
        sampled that trace or has evicted it.
        """
        return self._request("GET", f"/v1/traces/{trace_id}", max_retries=0)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
