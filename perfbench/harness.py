"""Measurement plumbing shared by every workload: the metric catalogue,
the percentile rule, per-request accounting and the run stamp."""

from __future__ import annotations

import contextlib
import functools
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics ``--trace 0`` reports, as ``(name, unit)``.  Every
#: workload reports every one of them; they are all "lower is better".
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s", "s"),
    ("tau_w_cycles", "cycles"),
    ("energy_nj", "nJ"),
)

#: Per-layer metrics ``--trace 1`` reports, as ``(name, unit)``.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("analysis.acfg_s", "s"),
    ("analysis.fixpoint_s", "s"),
    ("analysis.classify_s", "s"),
    ("analysis.refine_s", "s"),
    ("analysis.l2_s", "s"),
    ("analysis.guard_s", "s"),
    ("analysis.ipet_s", "s"),
    ("analysis.structural_misses", "count"),
    ("analysis.delta_runs", "count"),
    ("analysis.delta_fallbacks", "count"),
    ("analysis.segment_hit_ratio", "ratio"),
    ("analysis.segment_lookups", "count"),
    ("analysis.refine_promotions", "count"),
    ("analysis.refine_exhausted", "count"),
    ("analysis.bound_violations", "count"),
    ("core.search_self_s", "s"),
    ("core.candidates_evaluated", "count"),
    ("core.accept_ratio", "ratio"),
    ("sim.simulate_s", "s"),
    ("sim.fetches", "count"),
    ("experiments.measure_s", "s"),
    ("experiments.usecase_s", "s"),
    ("experiments.sweep_self_s", "s"),
    ("experiments.cache_key_s", "s"),
    ("experiments.cache_get_s", "s"),
    ("experiments.cache_put_s", "s"),
    ("experiments.cache_hit_ratio", "ratio"),
    ("experiments.cache_lookups", "count"),
    ("service.queue_wait_s", "s"),
    ("service.exec_s", "s"),
    ("service.overhead_s", "s"),
    ("service.cached_share", "ratio"),
    ("service.status_polls", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.spans", "count"),
    ("obs.absent_metrics", "count"),
    ("e2e.latency_p90_s", "s"),
    ("e2e.latency_samples", "count"),
    ("e2e.error_rate", "ratio"),
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Environment variables that silently change what a run computes or
#: where it reads results from; a run refuses to start while one is set.
FORBIDDEN_ENV = (
    "REPRO_SWEEP_CACHE_DIR",
    "REPRO_SWEEP_WORKERS",
    "REPRO_SWEEP_CACHE_MAX_BYTES",
    "REPRO_CACHE_KERNEL",
    "REPRO_FAULT_PLAN",
)

#: A p90 needs at least ten samples beyond it.
MIN_P90_SAMPLES = 100


def percentile(samples: List[float], pct: int) -> Optional[float]:
    """The ``pct``-th percentile, or ``None`` when fewer samples than
    the rule allows (p50 needs one sample, p90 needs 100)."""
    if not samples or (pct > 50 and len(samples) < MIN_P90_SAMPLES):
        return None
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Executable:
    """One measured executable: its bound, its simulated time, energy."""

    rid: str
    tau_w: float
    tau_a: float
    energy_j: float
    #: A final (optimized or measured) executable, as opposed to the
    #: original a use case starts from; only finals enter the sums.
    final: bool = True


#: Keys of the lookup table of :func:`calibration_slice`: 500 000
#: entries, about 35 MB, far beyond the per-core caches.
_TABLE_KEYS = range(0, 4_000_000, 8)
#: Table lookups per slice.  Measured on the two-vCPU VM, a slow host
#: phase stretched the pure-Python loop 2.0x, random lookups in this
#: table 4.0x and the workloads 2.6-2.7x; at 3 000 lookups (about 30%
#: of a fast slice) the slice stretched like the workloads.
_LOOKUPS = 3_000
#: Consecutive slices look up different keys, 20 slices apart: the
#: lines one slice reads (about 0.6 MB) have left the 2 MB per-core
#: cache by the time it reads them again, so every lookup goes to the
#: shared cache or to memory, whatever the program did in between.
_PROBE_ROUNDS = 20


def lookup_table() -> Tuple[Dict[int, int], List[List[int]]]:
    """The table :func:`calibration_slice` reads, and the key sets the
    slices look up in turn, in a fixed random order."""
    table = {key: key for key in _TABLE_KEYS}
    keys = random.Random(1).sample(list(table), _LOOKUPS * _PROBE_ROUNDS)
    return table, [keys[i::_PROBE_ROUNDS] for i in range(_PROBE_ROUNDS)]


def calibration_slice(table: Dict[int, int], probes: List[int]) -> None:
    """A fixed slice of work whose duration tracks how fast the host
    runs this process right now: a pure-Python loop, which follows the
    CPU, and random lookups in a large table, which follow the memory
    latency the host gives this process (neighbours that share its
    last-level cache stretch them)."""
    total = 0
    for i in range(25_000):
        total += (i * i) % 7
    for key in probes:
        total += table[key]


class Clock:
    """The benchmark's clock and host-speed gauge.

    On a shared virtual machine the speed of the program drifts by a
    third or more over tens of seconds.  :meth:`tick`, called at request and
    analysis boundaries, runs a :func:`calibration_slice` at most every
    ``INTERVAL_S``; :meth:`now` is wall time minus the slices, and
    :meth:`factor` converts seconds measured over an interval into
    reference seconds: seconds on a host where one slice takes
    ``REFERENCE_S`` of CPU time.  The slices are timed in thread CPU
    time, so that the service's pool worker, which shares the CPU,
    does not inflate them.
    """

    INTERVAL_S = 0.25
    REFERENCE_S = 0.002

    def __init__(self) -> None:
        #: CPU seconds of each slice.
        self.slices: List[float] = []
        self.table, self.probes = lookup_table()
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self._last = float("-inf")

    def now(self) -> float:
        return time.perf_counter() - self.paused_s

    def tick(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self._last < self.INTERVAL_S:
            return
        from repro.obs.trace import active_tracer

        cpu = time.thread_time()
        with active_tracer().start_span("bench.calibration"):
            calibration_slice(self.table,
                              self.probes[len(self.slices) % len(self.probes)])
        cpu = time.thread_time() - cpu
        end = time.perf_counter()
        self.slices.append(cpu)
        self.paused_s += end - start
        self.paused_cpu_s += cpu
        self._last = end

    def factor(self, first: int = 0) -> float:
        """Reference seconds per measured second, from the slices taken
        since slice number ``first`` (at least one is taken)."""
        if len(self.slices) <= first:
            self.tick(force=True)
        return self.REFERENCE_S / statistics.median(self.slices[first:])

    def recent_factor(self, count: int = 5) -> float:
        """:meth:`factor` from the last ``count`` slices: the host's
        speed right now."""
        return self.factor(max(0, len(self.slices) - count))


@dataclass
class Tally:
    """Per-run accounting: requests, failures, latencies, outputs.

    Times are work seconds (:meth:`Clock.now`); each round keeps the
    factor that converts its times into reference seconds.
    """

    clock: Clock = field(default_factory=Clock)
    attempted: int = 0
    failures: List[Tuple[str, str]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    round_walls: List[float] = field(default_factory=list)
    round_factors: List[float] = field(default_factory=list)
    round_ends: List[int] = field(default_factory=list)
    #: Executables of the first round; later rounds must reproduce them.
    executables: Optional[List[Executable]] = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, rid: str, reason: str) -> None:
        self.failures.append((rid, reason))

    def request(self, rid: str, call: Callable[[], object]):
        """Time one request; an exception becomes a failure record."""
        from repro.obs.trace import active_tracer

        self.attempted += 1
        self.clock.tick()
        start = self.clock.now()
        try:
            with active_tracer().start_span(
                "bench.request", root=True, attributes={"rid": rid}
            ):
                outcome = call()
        except Exception as exc:  # one request must not end the run
            self.fail(rid, f"{type(exc).__name__}: {exc}")
            outcome = None
        self.latencies.append(self.clock.now() - start)
        return outcome

    def run_round(self, run: Callable[["Tally"], None]) -> None:
        """Time one round and keep its reference-seconds factor."""
        first = len(self.clock.slices)
        start = self.clock.now()
        run(self)
        self.round_walls.append(self.clock.now() - start)
        self.round_factors.append(self.clock.factor(first))
        self.round_ends.append(len(self.latencies))

    def reference_latencies(self) -> List[float]:
        """Every latency in reference seconds, by its round's factor."""
        out, begin = [], 0
        for end, factor in zip(self.round_ends, self.round_factors):
            out += [lat * factor for lat in self.latencies[begin:end]]
            begin = end
        return out

    def record_round(self, executables: List[Executable]) -> None:
        """Keep the first round's outputs; compare later rounds to them."""
        if self.executables is None:
            self.executables = executables
        elif executables != self.executables:
            self.fail("round", "outputs differ from the first round")

    def violations(self) -> List[Executable]:
        """Executables whose simulated memory time exceeds their bound."""
        return [e for e in self.executables or () if e.tau_a > e.tau_w]


def import_seconds(modules: str) -> float:
    """Wall time of a fresh interpreter importing ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {modules}"],
                   env=env, check=True, timeout=60)
    return time.perf_counter() - start


@contextlib.contextmanager
def analysis_ticks(clock: Clock) -> Iterator[None]:
    """Tick ``clock`` at every analysis-pipeline call, so that long
    requests (an ``optimize`` runs for seconds) are gauged inside too."""
    from repro.analysis.pipeline import AnalysisPipeline

    analyze = AnalysisPipeline.analyze

    @functools.wraps(analyze)
    def ticked(self, *args, **kwargs):
        clock.tick()
        return analyze(self, *args, **kwargs)

    AnalysisPipeline.analyze = ticked
    try:
        yield
    finally:
        AnalysisPipeline.analyze = analyze


def git_sha() -> Optional[str]:
    """The checkout's commit, or ``None`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def stamp() -> Dict[str, object]:
    """What the numbers depend on besides the code."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }
