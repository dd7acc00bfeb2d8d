"""The four workloads.  Each one replays a fixed request set, one
request at a time (a closed loop of one client), once per round.

Every round replays the set in a fresh order drawn from the seed, so a
run averages over request orders (and the garbage collections that
land on different requests with each order).

A workload object is built once per set-up sample; :meth:`start` makes
the per-round state (a fresh cache directory, a fresh server),
:meth:`run_round` replays the requests into a :class:`Tally`,
:meth:`stop` tears the round down and :meth:`finish` runs the checks
that are not part of the timed phase.  Programs are called through
their module attributes, so traced mode's probes see every call.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

from harness import Clock, Executable, Tally

from repro.bench import registry
from repro.cache.config import TABLE2, hierarchy_for
from repro.core import optimizer
from repro.energy.cacti import hierarchy_model
from repro.energy.dram import DRAMModel
from repro.energy.metrics import EnergyBreakdown, account_energy
from repro.energy.technology import technology
from repro.experiments import cache as disk_cache
from repro.experiments import sweep, usecase
from repro.experiments.metrics import SOURCE_DISK, SweepMetrics
from repro.service.app import BackgroundServer
from repro.service.client import ServiceClient
from repro.sim import machine

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

TECH = "45nm"
SIM_SEED = 1
L2_SPEC = "4:16:4096:10"
#: Slack for float comparisons of τ_w (the optimizer's own epsilon).
TAU_EPSILON = optimizer.TAU_EPSILON

#: Modules a fresh process imports before its first request can go out.
IMPORTS = (
    "numpy, repro.core.optimizer, repro.experiments.usecase, "
    "repro.experiments.sweep, repro.service.app, repro.service.client"
)


class Workload:
    """Base: no per-round state, no untimed checks."""

    name = ""
    #: Per-layer metrics this workload must produce; one that does not
    #: appear in a traced round is reported as absent.
    expected: Tuple[str, ...] = ()

    def __init__(self, seed: int, size: str, workdir: Path, clock: Clock):
        self.rng = random.Random(seed)
        self.workdir = workdir
        #: The run's clock; request loops tick it (see :class:`Clock`).
        self.clock = clock

    def start(self) -> None:
        pass

    def run_round(self, tally: Tally) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def finish(self, tally: Tally) -> None:
        pass

    def layer_values(self) -> Dict[str, float]:
        return {}

    #: CPU seconds of helper processes the workload started and reaped;
    #: they are no part of the program, and ``cpu_s`` leaves them out.
    helper_cpu_s = 0.0


_STAGE_METRICS = tuple(
    f"analysis.{stage}_s"
    for stage in ("acfg", "fixpoint", "classify", "guard", "ipet")
)
_COUNTER_METRICS = (
    "analysis.structural_misses", "analysis.delta_runs",
    "analysis.delta_fallbacks", "analysis.segment_hit_ratio",
    "analysis.segment_lookups",
)
_CORE_METRICS = (
    "core.search_self_s", "core.candidates_evaluated", "core.accept_ratio",
)


class OptimizeLoop(Workload):
    """``optimize`` at k1/45nm, budget 120, a fresh pipeline per request."""

    name = "optimize_loop"
    expected = _STAGE_METRICS + _COUNTER_METRICS + _CORE_METRICS
    PROGRAMS = {"full": ("fdct", "ndes", "adpcm"), "tiny": ("bs",)}

    def __init__(self, seed, size, workdir, clock):
        super().__init__(seed, size, workdir, clock)
        self.programs = list(self.PROGRAMS[size])
        self.config = TABLE2["k1"]
        models = hierarchy_model(hierarchy_for(self.config, None),
                                 technology(TECH))
        self.timing = models.timing
        self.energy_model = models.l1
        self.options = optimizer.OptimizerOptions(
            max_evaluations=120, with_persistence=True, kernel="vectorized",
            refine=False, l2=None,
        )
        self.finals: List[tuple] = []

    def _optimize(self, program: str):
        return optimizer.optimize(
            registry.load(program), self.config, self.timing,
            options=self.options,
        )

    def run_round(self, tally):
        self.finals = []
        self.rng.shuffle(self.programs)
        for program in self.programs:
            outcome = tally.request(program, lambda: self._optimize(program))
            if outcome is None:
                continue
            work, report = outcome
            pin = PINS["optimize_loop"][program]
            got = {
                "tau_final": report.tau_final,
                "misses_final": report.misses_final,
                "passes": report.passes,
                "prefetches": report.prefetch_count,
            }
            wrong = {k: v for k, v in got.items() if k in pin and pin[k] != v}
            if wrong:
                tally.fail(program, f"outcome {wrong} differs from pin {pin}")
            if report.tau_final > report.tau_original + TAU_EPSILON:
                tally.fail(program, "Theorem 1: tau_final > tau_original")
            self.finals.append((program, work, report))

    def _measure(self, rid, cfg, tau_w, final) -> Executable:
        sim = machine.simulate(cfg, self.config, self.timing, seed=SIM_SEED)
        energy = account_energy(
            sim.event_counts(), self.energy_model, DRAMModel(technology(TECH))
        )
        return Executable(rid, tau_w, sim.memory_cycles, energy.total_j, final)

    def finish(self, tally):
        # The soundness oracle: simulate the original and the final
        # executable of every request of the last round.
        exes = []
        for program, work, report in self.finals:
            exes.append(self._measure(f"{program}/original",
                                      registry.load(program),
                                      report.tau_original, False))
            exes.append(self._measure(program, work, report.tau_final, True))
        tally.record_round(exes)


class AnalyzePrecise(Workload):
    """``measure_program`` through a refine (+ L2) pipeline per request."""

    name = "analyze_precise"
    expected = (
        _STAGE_METRICS + _COUNTER_METRICS
        + ("analysis.refine_s", "analysis.l2_s", "analysis.refine_promotions",
           "analysis.refine_exhausted", "sim.simulate_s", "sim.fetches",
           "experiments.measure_s")
    )
    PROGRAMS = {"full": tuple(registry.program_names()),
                "tiny": ("bs", "lcdnum")}
    HIERARCHIES = (("k1", None), ("k13", None), ("k1", L2_SPEC))

    def __init__(self, seed, size, workdir, clock):
        super().__init__(seed, size, workdir, clock)
        self.requests = [(p, k, l2) for p in self.PROGRAMS[size]
                         for k, l2 in self.HIERARCHIES]

    @staticmethod
    def _measure(program, config_id, l2):
        case = usecase.UseCase(program, config_id, TECH, l2)
        options = optimizer.OptimizerOptions(
            with_persistence=True, kernel="vectorized", refine=True, l2=l2,
        )
        pipeline = usecase.pipeline_for_usecase(case, options)
        return usecase.measure_program(
            registry.load(program), case.cache_config(), TECH, seed=SIM_SEED,
            pipeline=pipeline, l2=l2,
        )

    def run_round(self, tally):
        exes = []
        self.rng.shuffle(self.requests)
        for program, config_id, l2 in self.requests:
            rid = f"{program}/{config_id}/{l2 or '-'}"
            m = tally.request(rid, lambda: self._measure(program, config_id, l2))
            if m is None:
                continue
            exe = Executable(rid, m.tau_w, m.tau_a, m.energy.total_j)
            _check_pins(tally, self.name, rid, [exe])
            exes.append(exe)
        tally.record_round(sorted(exes, key=lambda e: e.rid))


def _check_pins(tally: Tally, section: str, rid: str,
                exes: List[Executable]) -> None:
    """Each executable's (τ_w, τ_a, energy) must equal its pin, bit for
    bit; a request fails once, however many of its executables differ."""
    wrong = {}
    for exe in exes:
        digest = [exe.tau_w, exe.tau_a, exe.energy_j]
        pin = PINS[section].get(exe.rid)
        if digest != pin:
            wrong[exe.rid] = (digest, pin)
    if wrong:
        tally.fail(rid, f"digests differ from pins (got, pin): {wrong}")


def _check_usecase(tally: Tally, section: str, rid: str,
                   doc: dict) -> List[Executable]:
    """Check one serialized use-case result (Theorem 1 and the pins of
    both executables); returns its two executables."""
    if doc["optimized"]["tau_w"] > doc["original"]["tau_w"] + TAU_EPSILON:
        tally.fail(rid, "Theorem 1: optimized tau_w > original tau_w")
    exes = [
        Executable(
            f"{rid}/{side}", doc[side]["tau_w"], doc[side]["tau_a"],
            EnergyBreakdown(**doc[side]["energy"]).total_j,
            side == "optimized",
        )
        for side in ("original", "optimized")
    ]
    _check_pins(tally, section, rid, exes)
    return exes


class SweepCold(Workload):
    """Serial ``run_sweep`` into an empty disk cache, then a warm replay."""

    name = "sweep_cold"
    expected = (
        _STAGE_METRICS + _COUNTER_METRICS + _CORE_METRICS
        + ("sim.simulate_s", "sim.fetches", "experiments.measure_s",
           "experiments.usecase_s", "experiments.sweep_self_s",
           "experiments.cache_key_s", "experiments.cache_get_s",
           "experiments.cache_put_s", "experiments.cache_hit_ratio",
           "experiments.cache_lookups")
    )
    #: The 20 cheapest programs of the suite (≤ 1 s for six capacities
    #: at budget 20): small and mid-size, no fdct-scale outliers.
    PROGRAMS = {
        "full": ("fibcall", "sqrt", "insertsort", "recursion", "fac", "bs",
                 "lcdnum", "fir", "prime", "cnt", "janne_complex", "qurt",
                 "duff", "select", "expint", "bsort100", "crc", "icall",
                 "st", "matmult"),
        "tiny": ("fibcall", "sqrt"),
    }

    def __init__(self, seed, size, workdir, clock):
        super().__init__(seed, size, workdir, clock)
        self.programs = list(self.PROGRAMS[size])
        grid = sweep.default_grid(techs=(TECH,))
        self.spec = sweep.SweepSpec(
            programs=tuple(self.programs),
            config_ids=grid.config_ids, techs=(TECH,), seed=SIM_SEED,
            max_evaluations=20, baseline="classic", kernel="vectorized",
            l2_specs=(None,), refine=False,
        )
        self.cache_dir = None
        self.cold: List[str] = []

    def _sweep(self, metrics, progress=None):
        return sweep.run_sweep(
            self.spec, progress=progress, use_cache=False, workers=1,
            cache_dir=self.cache_dir, metrics=metrics, max_failures=None,
        )

    def start(self):
        self.cache_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)

    def run_round(self, tally):
        metrics = SweepMetrics()
        marks = [tally.clock.now()]

        def progress(case, result):
            tally.clock.tick()
            marks.append(tally.clock.now())

        self.rng.shuffle(self.programs)
        self.spec = replace(self.spec, programs=tuple(self.programs))
        tally.attempted += self.spec.size
        results = self._sweep(metrics, progress=progress)
        tally.latencies += [b - a for a, b in zip(marks, marks[1:])]
        for record in metrics.failures:
            case = record.usecase
            tally.fail(f"{case.program}/{case.config_id}",
                       f"{record.error_type}: {record.message}")
        exes, self.cold = [], []
        for result in results:
            doc = disk_cache.result_to_dict(result)
            rid = "/".join(doc["usecase"][:2])
            exes += _check_usecase(tally, self.name, rid, doc)
            self.cold.append(json.dumps(doc, sort_keys=True))
        tally.record_round(sorted(exes, key=lambda e: e.rid))

    def finish(self, tally):
        # Untimed: replay the grid against the last round's (now warm)
        # directory; every case must come from disk, bit for bit.
        tally.attempted += 1
        metrics = SweepMetrics()
        warm = [json.dumps(disk_cache.result_to_dict(r), sort_keys=True)
                for r in self._sweep(metrics)]
        if warm != self.cold:
            tally.fail("warm", "warm pass differs from the cold pass")
        if any(r.source != SOURCE_DISK for r in metrics.records):
            tally.fail("warm", "warm pass recomputed cases")


class ServiceJobs(Workload):
    """An in-process server and one polling client, ``usecase`` jobs."""

    name = "service_jobs"
    expected = (
        "experiments.cache_key_s", "experiments.cache_get_s",
        "experiments.cache_hit_ratio", "experiments.cache_lookups",
        "service.queue_wait_s", "service.exec_s", "service.overhead_s",
        "service.cached_share", "service.status_polls",
    )
    PROGRAMS = {
        "full": ("fibcall", "sqrt", "insertsort", "recursion", "fac", "bs",
                 "lcdnum", "fir", "prime", "cnt"),
        "tiny": ("fibcall", "sqrt"),
    }
    CONFIGS = {
        "full": ("k1", "k3", "k7", "k13", "k15", "k19", "k25", "k31"),
        "tiny": ("k1", "k13"),
    }
    #: Status-poll interval in reference seconds (see :class:`Clock`),
    #: well below the job latency (median about 7 ms).  A fixed
    #: wall-clock interval would poll a job more often the slower the
    #: host runs it, and each poll takes the CPU from the pool worker;
    #: a short one keeps the CPU from idling long after a job ends.
    POLL_S = 0.001

    def __init__(self, seed, size, workdir, clock):
        super().__init__(seed, size, workdir, clock)
        self.uniques = [(p, k) for p in self.PROGRAMS[size]
                        for k in self.CONFIGS[size]]
        self.server = None
        self.client = None
        self.spinner = None
        self.records: List[dict] = []
        self.polls_per_round: List[int] = []
        self.polls = 0
        self.last_record: dict = {}

    def _sequence(self) -> List[Tuple[str, str]]:
        """The distinct jobs in a fresh order, plus about a quarter more
        that repeat an earlier one (served by the disk-cache fast path)."""
        sequence = list(self.uniques)
        self.rng.shuffle(sequence)
        for _ in range(len(self.uniques) // 3):
            job = self.rng.choice(self.uniques)
            first = sequence.index(job)
            sequence.insert(self.rng.randint(first + 1, len(sequence)), job)
        return sequence

    @staticmethod
    def _params(program, config_id, seed=SIM_SEED):
        return dict(program=program, config=config_id, tech=TECH,
                    baseline="persistence", budget=20, seed=seed,
                    refine=False)

    def start(self):
        self.server = BackgroundServer(
            workers=1,
            cache_dir=tempfile.mkdtemp(prefix="service-", dir=self.workdir),
            max_cache_bytes=None, max_queue=64, job_timeout_s=600.0,
            trace_sample=1.0,
        ).start()
        self.client = ServiceClient(port=self.server.port, timeout=30.0,
                                    max_retries=0)
        self._client_status = self.client.status
        self.client.status = self._status
        self.polls = 0
        # One job outside the request set starts the worker pool.
        self._job(**self._params(self.uniques[0][0], "k1", seed=2))
        # A spinner at idle priority keeps the pinned CPU from halting
        # between a job's end and the client's next poll: waking a
        # halted virtual CPU waits on the host's scheduler, which made
        # round times vary by half while their CPU time moved by 13%.
        # It spins only while its parent lives, so it cannot outlive a
        # run that dies.
        self.spinner = subprocess.Popen([
            sys.executable, "-c",
            "import os\nparent = os.getppid()\n"
            "while os.getppid() == parent: pass",
        ])
        os.sched_setscheduler(self.spinner.pid, os.SCHED_IDLE,
                              os.sched_param(0))

    def _status(self, job_id):
        self.clock.tick()
        self.polls += 1
        self.last_record = self._client_status(job_id)
        return self.last_record

    def _job(self, **params):
        """Submit and poll to completion; returns (result, job record,
        latency).  The latency is raw wall time, calibration slices
        included, like the record's server-side timestamps."""
        start = time.time()
        job = self.client.submit("usecase", **params)
        doc = self.client.result(
            job["id"], timeout=60.0,
            poll_interval=self.POLL_S / self.clock.recent_factor())
        return doc, self.last_record, time.time() - start

    def run_round(self, tally):
        first: Dict[Tuple[str, str], str] = {}
        exes = []
        self.polls = 0
        for i, (program, config_id) in enumerate(self._sequence()):
            rid = f"{program}/{config_id}"
            outcome = tally.request(
                f"{rid}#{i}", lambda: self._job(**self._params(program, config_id))
            )
            if outcome is None:
                continue
            doc, record, latency = outcome
            self.records.append(dict(record, latency_s=latency))
            text = json.dumps(doc, sort_keys=True)
            if (program, config_id) in first:
                if text != first[(program, config_id)]:
                    tally.fail(f"{rid}#{i}", "repeat differs from first response")
                continue
            first[(program, config_id)] = text
            exes += _check_usecase(tally, self.name, rid, doc)
        self.polls_per_round.append(self.polls)
        tally.record_round(sorted(exes, key=lambda e: e.rid))

    def stop(self):
        if self.spinner is not None:
            self.spinner.kill()
            _, _, usage = os.wait4(self.spinner.pid, 0)
            self.spinner.returncode = -9
            self.spinner = None
            self.helper_cpu_s += usage.ru_utime + usage.ru_stime
        if self.server is not None:
            self.server.stop()
            self.server = None
        # The pool worker must be reaped before the run reads the CPU
        # time of its children.
        for child in multiprocessing.active_children():
            child.join(timeout=30)

    def layer_values(self):
        if not self.records:
            return {}
        done = [r for r in self.records if r.get("finished_at") is not None]
        return {
            "service.queue_wait_s": median(
                r["started_at"] - r["created_at"] for r in done),
            "service.exec_s": median(
                r["finished_at"] - r["started_at"] for r in done),
            "service.overhead_s": median(
                r["latency_s"] - (r["finished_at"] - r["created_at"])
                for r in done),
            "service.cached_share": (
                sum(1 for r in self.records if r.get("cached"))
                / len(self.records)),
            "service.status_polls": self.polls_per_round[0],
        }


WORKLOADS = {cls.name: cls for cls in
             (OptimizeLoop, AnalyzePrecise, SweepCold, ServiceJobs)}
