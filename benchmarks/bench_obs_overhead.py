"""Microbenchmark of tracing overhead on the analysis pipeline.

Times the same multi-pass ``optimize`` loop twice — once with no
tracer activated (the production default: every span call returns the
no-op singleton) and once under an activated, fully sampled tracer that
collects into memory below a root span — and reports the relative cost.

Two figures gate the observability layer's "near zero when off" claim:

* ``noop_ns`` — nanoseconds per ``start_span`` call on the disabled
  path, measured over a tight loop.  This is the only cost untraced
  runs pay at each instrumentation point.
* ``overhead_pct`` — wall-clock penalty of fully-sampled tracing on
  ``optimize``.  ``--check`` gates on it (default limit 25%); the
  tracing-disabled regression is guarded separately by perfbench's
  same-machine parent-vs-change rule on the untraced workloads.

Usage::

    python benchmarks/bench_obs_overhead.py
        [--output BENCH_obs_overhead.json] [--budget 60] [--repeats 3]
        [--limit-pct 25] [--check]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Any, Dict

from repro.bench.registry import load
from repro.cache.config import TABLE2
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.obs.trace import SpanCollector, Tracer, activate_tracer

PROGRAM = "ndes"
CONFIG_ID = "k1"
TECH = "45nm"
BUDGET = 60
NOOP_CALLS = 200_000


def _run_optimize(budget: int) -> float:
    config = TABLE2[CONFIG_ID]
    timing = cacti_model(config, technology(TECH)).timing_model()
    options = OptimizerOptions(max_evaluations=budget)
    start = time.perf_counter()
    optimize(load(PROGRAM), config, timing, options=options)
    return time.perf_counter() - start


def bench_noop_dispatch() -> float:
    """ns per ``start_span`` when tracing is disabled (the default)."""
    tracer = Tracer(service="bench")  # sample=0.0, no sink: always no-op
    start = time.perf_counter()
    for _ in range(NOOP_CALLS):
        tracer.start_span("pipeline.fixpoint", aggregate=True)
    elapsed = time.perf_counter() - start
    return elapsed / NOOP_CALLS * 1e9


def bench_modes(budget: int, repeats: int) -> Dict[str, Any]:
    """Best-of-N optimize wall time, tracing off vs fully sampled."""
    off_s = []
    on_s = []
    spans_recorded = 0
    # Interleave the modes so drift (thermal, other tenants) hits both.
    for _ in range(repeats):
        off_s.append(_run_optimize(budget))

        collector = SpanCollector(limit=100_000)
        tracer = Tracer(service="bench", sample=1.0, sink=collector.add)
        with activate_tracer(tracer), tracer.start_span(
            "bench.optimize", root=True
        ):
            on_s.append(_run_optimize(budget))
        spans_recorded = max(spans_recorded, len(collector.drain()))

    best_off = min(off_s)
    best_on = min(on_s)
    return {
        "off_s": round(best_off, 4),
        "on_s": round(best_on, 4),
        "overhead_pct": round((best_on - best_off) / best_off * 100.0, 2),
        "spans_recorded": spans_recorded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_obs_overhead.json")
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--limit-pct", type=float, default=25.0,
        help="--check fails if fully-sampled overhead exceeds this",
    )
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    print(f"timing no-op span dispatch ({NOOP_CALLS} calls)...",
          file=sys.stderr)
    noop_ns = bench_noop_dispatch()
    print(f"  {noop_ns:.0f} ns/call", file=sys.stderr)

    print(f"benchmarking optimize on {PROGRAM} ({CONFIG_ID}/{TECH}, "
          f"budget {args.budget}, {args.repeats} repeats)...",
          file=sys.stderr)
    modes = bench_modes(args.budget, args.repeats)
    print(
        f"  tracing off {modes['off_s']:.3f}s, "
        f"on {modes['on_s']:.3f}s "
        f"({modes['overhead_pct']:+.1f}%, "
        f"{modes['spans_recorded']} spans)",
        file=sys.stderr,
    )

    document = {
        "bench": "obs_overhead",
        "program": PROGRAM,
        "config": CONFIG_ID,
        "tech": TECH,
        "budget": args.budget,
        "repeats": args.repeats,
        "noop_ns_per_call": round(noop_ns, 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **modes,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}", file=sys.stderr)

    failures = []
    if args.check and modes["overhead_pct"] > args.limit_pct:
        failures.append(
            f"sampled tracing overhead {modes['overhead_pct']}% "
            f"> {args.limit_pct}% limit"
        )
    if args.check and modes["spans_recorded"] == 0:
        failures.append("sampled run recorded no spans")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
