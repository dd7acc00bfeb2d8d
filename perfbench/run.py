"""The repository benchmark: one workload per run, from one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload optimize_loop --seed 1 \\
        --seconds 10 --trace 0

Workloads: optimize_loop, analyze_precise, sweep_cold, service_jobs
(see perfbench/README.md).  A run sets the workload up three times
(median reported as ``setup_s``), replays its request set in rounds
while the next round would end within ``--seconds``, checks every
output, and prints the
metrics; the last line of standard output is one JSON object.  With
``--trace 1`` one more round runs under span recording and the JSON
holds the per-layer metrics instead of the end-to-end ones.

Exits 2 without a result when a pinned environment variable is set or
the program under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import (
    END_TO_END,
    FORBIDDEN_ENV,
    PER_LAYER,
    ROOT,
    Clock,
    Tally,
    analysis_ticks,
    cpu_seconds,
    import_seconds,
    peak_rss_mb,
    percentile,
    stamp,
)

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("optimize_loop", "analyze_precise", "sweep_cold",
                  "service_jobs")


def _load_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(src)


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str, workdir: Path) -> dict:
    """Run one workload; returns the run record (see :func:`main`).

    Times are reported in reference seconds (see :class:`Clock`); the
    record also keeps them as measured.
    """
    from spans import SpanLog, layer_metrics, summary, traced
    from workloads import IMPORTS, PINS, WORKLOADS

    cls = WORKLOADS[name]
    clock = Clock()
    imports, setups = [], []
    for i in range(SETUP_SAMPLES):
        clock.tick(force=True)
        imports.append(import_seconds(IMPORTS))
        clock.tick(force=True)
        start = clock.now()
        workload = cls(seed, size, workdir, clock)
        workload.start()
        setups.append(clock.now() - start)
        if i < SETUP_SAMPLES - 1:
            workload.stop()
    setup_raw = statistics.median(imports) + statistics.median(setups)
    setup_s = setup_raw * clock.factor()

    tally = Tally(clock=clock)
    cpu0, paused0 = cpu_seconds(), clock.paused_cpu_s
    helper0 = workload.helper_cpu_s
    begin = time.perf_counter()
    while True:
        with analysis_ticks(clock):
            tally.run_round(workload.run_round)
        workload.stop()
        # Stop before a round that would end past ``seconds``, so that a
        # slow host phase does not stretch the run by a whole round.
        done = len(tally.round_walls)
        if (time.perf_counter() - begin) * (done + 1) / done > seconds:
            break
        workload.start()
    rounds = len(tally.round_walls)
    run_factor = statistics.median(tally.round_factors)
    cpu_raw = (cpu_seconds() - cpu0 - (clock.paused_cpu_s - paused0)
               - (workload.helper_cpu_s - helper0)) / rounds
    rss = peak_rss_mb()
    layer = {k: v * run_factor if k.endswith("_s") else v
             for k, v in workload.layer_values().items()}
    workload.finish(tally)

    known = set(PINS["known_violations"].get(name, ()))
    violations = tally.violations()
    for exe in violations:
        if exe.rid not in known:
            tally.fail(exe.rid, f"new bound violation: tau_a {exe.tau_a} "
                                f"> tau_w {exe.tau_w}")
    finals = [e for e in tally.executables or () if e.final]
    latencies = tally.reference_latencies()
    walls = [w * f for w, f in zip(tally.round_walls, tally.round_factors)]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "size": size,
        "stamp": stamp(), "rounds": rounds,
        "measured": {
            "setup_s": setup_raw,
            "round_walls_s": tally.round_walls,
            "cpu_s": cpu_raw,
            "latency_p50_s": percentile(tally.latencies, 50),
        },
        "round_factors": tally.round_factors,
        "latency_samples": len(latencies),
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": cpu_raw * run_factor,
            "peak_rss_mb": rss,
            "latency_p50_s": percentile(latencies, 50),
            "tau_w_cycles": sum(e.tau_w for e in finals),
            "energy_nj": sum(e.energy_j for e in finals) * 1e9,
        },
        "latency_p90_s": percentile(latencies, 90),
        "bound_violations": [
            {"rid": e.rid, "tau_w": e.tau_w, "tau_a": e.tau_a}
            for e in violations
        ],
    }

    if trace:
        workload.start()
        log = SpanLog()
        traced_tally = Tally(clock=clock)
        with traced(log):
            traced_tally.run_round(workload.run_round)
        workload.stop()
        tally.attempted += traced_tally.attempted
        tally.failures += traced_tally.failures
        if traced_tally.executables not in (None, tally.executables):
            tally.fail("traced", "traced round outputs differ")
        factor = traced_tally.round_factors[0]
        layer.update({k: v * factor if k.endswith("_s") else v
                      for k, v in layer_metrics(log).items()})
        layer.update({
            "analysis.bound_violations": len(violations),
            "obs.trace_overhead_ratio": traced_tally.round_walls[0] * factor
            / record["end_to_end"]["wall_s"] - 1.0,
            "obs.spans": len(log.rows),
            "e2e.latency_samples": len(latencies),
            "e2e.error_rate": tally.failed / tally.attempted,
        })
        if record["latency_p90_s"] is not None:
            layer["e2e.latency_p90_s"] = record["latency_p90_s"]
        absent = [m for m in cls.expected if m not in layer]
        layer["obs.absent_metrics"] = len(absent)
        record["absent"] = absent
        record["per_layer"] = {m: layer.get(m, 0) for m, _ in PER_LAYER}
        record["spans"] = summary(log)
        log.write(workdir / "spans.jsonl")

    record["attempted"] = tally.attempted
    record["failures"] = tally.failures
    return record


def report(record: dict, trace: bool) -> dict:
    """Print the readable summary; returns the final JSON object."""
    e2e = record["end_to_end"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"rounds={record['rounds']} stamp={json.dumps(record['stamp'])}")
    for metric, unit in END_TO_END:
        print(f"{metric:16s} {e2e[metric]!r:>24} {unit}")
    p90 = record["latency_p90_s"]
    print(f"{'latency_p90_s':16s} {p90 if p90 is not None else '-':>24} s "
          f"(samples={record['latency_samples']})")
    failed, attempted = len(record["failures"]), record["attempted"]
    print(f"{'error_rate':16s} {failed / attempted!r:>24} "
          f"({failed}/{attempted})")
    for rid, reason in record["failures"]:
        print(f"  FAILED {rid}: {reason}")
    print(f"{'bound_violations':16s} {len(record['bound_violations']):>24} "
          f"count")
    for v in record["bound_violations"]:
        print(f"  {v['rid']}: tau_a {v['tau_a']} > tau_w {v['tau_w']}")
    if trace:
        for metric, value in record["per_layer"].items():
            print(f"{metric:30s} {value!r:>24}")
        if record["absent"]:
            print(f"absent: {', '.join(record['absent'])}")
    units = dict(PER_LAYER if trace else END_TO_END)
    values = record["per_layer"] if trace else e2e
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pinned = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if pinned:
        print(f"refusing to run: {', '.join(pinned)} set", file=sys.stderr)
        return 2
    # One CPU for the whole run, pool workers included: the host moves
    # each virtual CPU's speed on its own, and the calibration slices
    # can only gauge the CPU they run on.  The highest one, because
    # CPU 0 takes most interrupts and most of the machine's other work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not _load_program():
        print(f"cannot import the program from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    out_dir = HERE / "_out"
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), "full", workdir)
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.move(str(workdir / "spans.jsonl"),
                        out_dir / f"{stem}.spans.jsonl")
        (out_dir / f"{stem}.json").write_text(
            json.dumps(record, indent=1, default=str))
        result = report(record, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
