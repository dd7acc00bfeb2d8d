"""Microbenchmark of tracing overhead on the analysis pipeline.

Times the same multi-pass ``optimize`` loop twice — once with no
tracer activated (the production default: every span call returns the
no-op singleton) and once under an activated, fully sampled tracer that
collects into memory below a root span — and reports the relative cost.

Three figures describe the observability layer's cost:

* ``noop_ns`` — nanoseconds per ``start_span`` call on the disabled
  path, measured over a tight loop.  This is the only cost untraced
  runs pay at each instrumentation point.
* ``span_us`` — microseconds per sampled ``aggregate=True`` span
  (started, entered and ended into a collector under an activated
  ``Tracer(sample=1.0)``): the median over ``SPAN_REPS`` loops of
  ``SPAN_CALLS`` spans.  ``--check`` gates it on an absolute limit
  (``SPAN_LIMIT_US``, 25 µs): unlike a relative share it does not
  shrink on a slower host, and it does not need the few hundred spans
  one ``optimize`` opens to add up to a visible slowdown.
* ``overhead_pct`` — wall-clock penalty of fully-sampled tracing on
  ``optimize``: the median over ``--pairs`` off/on pairs of the
  per-pair on/off time ratio, after one untimed warm-up run.  The mode
  that runs first alternates from pair to pair, so drift between the
  two runs of a pair (other tenants, clock changes) favours neither
  mode, and one slow sample moves the median by at most one rank.
  ``--check`` also gates on it (default limit 25%); the tracing-disabled
  regression is guarded separately by perfbench's same-machine
  parent-vs-change rule on the untraced workloads.

``spans_recorded`` is the number of spans one traced ``optimize``
ended (the largest over the pairs); ``--check`` fails when it is 0.

Usage::

    python benchmarks/bench_obs_overhead.py
        [--output BENCH_obs_overhead.json] [--budget 60] [--pairs 9]
        [--limit-pct 25] [--check]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from typing import Any, Dict, Tuple

from repro.bench.registry import load
from repro.cache.config import TABLE2
from repro.core.optimizer import OptimizerOptions, optimize
from repro.energy.cacti import cacti_model
from repro.energy.technology import technology
from repro.obs.trace import (
    SpanCollector,
    Tracer,
    activate_tracer,
    active_tracer,
)

PROGRAM = "ndes"
CONFIG_ID = "k1"
TECH = "45nm"
BUDGET = 60
NOOP_CALLS = 200_000
SPAN_CALLS = 20_000
SPAN_REPS = 7
#: ``--check`` limit on ``span_us``: about 5x the 4.6 µs measured on a
#: shared 2-vCPU x86_64 host (Python 3.11).
SPAN_LIMIT_US = 25.0


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


def bench_span_cost() -> float:
    """Median µs per sampled aggregate span, as a pipeline stage opens
    one: through the activated tracer, below a sampled root span."""
    per_span = []
    for _ in range(SPAN_REPS):
        collector = SpanCollector(limit=100_000)
        tracer = Tracer(service="bench", sample=1.0, sink=collector.add)
        with activate_tracer(tracer), tracer.start_span(
            "bench.spans", root=True
        ):
            start = time.perf_counter()
            for _ in range(SPAN_CALLS):
                with active_tracer().start_span(
                    "pipeline.fixpoint", aggregate=True
                ):
                    pass
            elapsed = time.perf_counter() - start
        per_span.append(elapsed / SPAN_CALLS * 1e6)
    return statistics.median(per_span)


def _run_traced(budget: int) -> Tuple[float, int]:
    """One optimize under a fully sampled tracer: (seconds, spans).

    The collector folds aggregate spans into one document per name, so
    the spans that ended are the sum of the documents' ``count``.
    """
    collector = SpanCollector(limit=100_000)
    tracer = Tracer(service="bench", sample=1.0, sink=collector.add)
    with activate_tracer(tracer), tracer.start_span(
        "bench.optimize", root=True
    ):
        elapsed = _run_optimize(budget)
    return elapsed, sum(doc.get("count", 1) for doc in collector.drain())


def bench_modes(budget: int, pairs: int) -> Dict[str, Any]:
    """Median per-pair optimize wall-time ratio, tracing on vs off."""
    _run_optimize(budget)  # untimed warm-up
    off_s = []
    on_s = []
    spans_recorded = 0
    for pair in range(pairs):
        # Even pairs run tracing off first, odd pairs on first.
        for traced in (pair % 2 == 1, pair % 2 == 0):
            if traced:
                elapsed, spans = _run_traced(budget)
                on_s.append(elapsed)
                spans_recorded = max(spans_recorded, spans)
            else:
                off_s.append(_run_optimize(budget))

    ratios = [on / off for on, off in zip(on_s, off_s)]
    return {
        "off_s": round(statistics.median(off_s), 4),
        "on_s": round(statistics.median(on_s), 4),
        "overhead_pct": round((statistics.median(ratios) - 1.0) * 100.0, 2),
        "pair_overhead_pct": [round((r - 1.0) * 100.0, 2) for r in ratios],
        "spans_recorded": spans_recorded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_obs_overhead.json")
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument(
        "--pairs", type=int, default=9,
        help="timed off/on optimize pairs (the gate takes their median)",
    )
    parser.add_argument(
        "--limit-pct", type=float, default=25.0,
        help="--check fails if fully-sampled overhead exceeds this",
    )
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    print(f"timing no-op span dispatch ({NOOP_CALLS} calls)...",
          file=sys.stderr)
    noop_ns = bench_noop_dispatch()
    print(f"  {noop_ns:.0f} ns/call", file=sys.stderr)

    print(f"timing sampled aggregate spans ({SPAN_REPS} x {SPAN_CALLS})...",
          file=sys.stderr)
    span_us = bench_span_cost()
    print(f"  {span_us:.2f} µs/span (median)", file=sys.stderr)

    print(f"benchmarking optimize on {PROGRAM} ({CONFIG_ID}/{TECH}, "
          f"budget {args.budget}, {args.pairs} off/on pairs)...",
          file=sys.stderr)
    modes = bench_modes(args.budget, args.pairs)
    print(
        f"  tracing off {modes['off_s']:.3f}s, "
        f"on {modes['on_s']:.3f}s (medians); "
        f"median pair {modes['overhead_pct']:+.1f}%, "
        f"{modes['spans_recorded']} spans",
        file=sys.stderr,
    )

    document = {
        "bench": "obs_overhead",
        "program": PROGRAM,
        "config": CONFIG_ID,
        "tech": TECH,
        "budget": args.budget,
        "pairs": args.pairs,
        "noop_ns_per_call": round(noop_ns, 1),
        "span_us": round(span_us, 2),
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
    if args.check and span_us > SPAN_LIMIT_US:
        failures.append(
            f"sampled span cost {span_us:.2f} µs > {SPAN_LIMIT_US} µs limit"
        )
    if args.check and modes["spans_recorded"] == 0:
        failures.append("sampled run recorded no spans")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
