"""Traced mode: spans recorded from the benchmark's side.

:func:`traced` wraps the public entry points of each layer (rebinding
every module attribute that names them) in spans of a sampling
:class:`~repro.obs.trace.Tracer`, and activates that tracer, so the
program's own ``pipeline.<stage>`` and ``usecase.*`` spans nest under
the wrappers.  Every span ends up as one :class:`SpanRow` in memory;
:func:`layer_metrics` folds the rows into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import Tracer, activate_tracer

STAGES = ("acfg", "fixpoint", "classify", "refine", "l2", "guard", "ipet")


def _optimize_attrs(result) -> Dict[str, Any]:
    report = result[1]
    return {
        "candidates": report.candidates_evaluated,
        "insertions": len(report.inserted),
    }


#: ``(span name, module, function, attributes taken from the result)``.
FUNCTION_PROBES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("core.optimize", "repro.core.optimizer", "optimize", _optimize_attrs),
    ("sim.simulate", "repro.sim.machine", "simulate",
     lambda r: {"fetches": r.fetches}),
    ("experiments.measure_program", "repro.experiments.usecase",
     "measure_program", None),
    ("experiments.run_usecase", "repro.experiments.usecase",
     "run_usecase", None),
    ("experiments.run_sweep", "repro.experiments.sweep", "run_sweep", None),
    ("experiments.usecase_key", "repro.experiments.cache",
     "usecase_key", None),
)

#: ``(span name, module, class, method, attributes taken from the result)``.
METHOD_PROBES: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("experiments.cache_get", "repro.experiments.cache", "SweepDiskCache",
     "get", lambda r: {"hit": r is not None}),
    ("experiments.cache_put", "repro.experiments.cache", "SweepDiskCache",
     "put", None),
)


@dataclass
class SpanRow:
    """One ended span (``start``/``end`` on the ``perf_counter`` clock)."""

    name: str
    span_id: str
    parent_id: Optional[str]
    trace_id: str
    start: float
    end: float
    attributes: Dict[str, Any]


class SpanLog:
    """Tracer sink keeping every span in memory until the run ends."""

    def __init__(self) -> None:
        self.rows: List[SpanRow] = []
        #: Counters of every analysis pipeline built while tracing.
        self.pipeline_stats: List[Any] = []

    def __call__(self, span) -> None:
        end = time.perf_counter()
        ctx = span.context
        self.rows.append(SpanRow(
            span.name, ctx.span_id, span.parent_id, ctx.trace_id,
            end - span.duration_s, end, dict(span.attributes),
        ))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(asdict(row), default=str) + "\n")


def _probe(fn: Callable, name: str, tracer: Tracer,
           on_result: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with tracer.start_span(name, root=True) as span:
            result = fn(*args, **kwargs)
            if on_result is not None:
                span.set_attributes(on_result(result))
            return result

    return probe


def _rebind(original: Any, replacement: Any) -> List[Tuple[Any, str, Any]]:
    """Point every ``repro`` module attribute naming ``original`` at
    ``replacement``; returns what to restore."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


@contextlib.contextmanager
def traced(log: SpanLog) -> Iterator[Tracer]:
    """Record spans into ``log`` for the duration of the block."""
    from repro.analysis.pipeline import AnalysisPipeline

    tracer = Tracer(service="perfbench", sample=1.0, sink=log)
    undo: List[Tuple[Any, str, Any]] = []
    for name, mod_name, attr, on_result in FUNCTION_PROBES:
        original = getattr(importlib.import_module(mod_name), attr)
        undo += _rebind(original, _probe(original, name, tracer, on_result))
    for name, mod_name, cls_name, attr, on_result in METHOD_PROBES:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        original = getattr(cls, attr)
        setattr(cls, attr, _probe(original, name, tracer, on_result))
        undo.append((cls, attr, original))

    init = AnalysisPipeline.__init__

    @functools.wraps(init)
    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        log.pipeline_stats.append(self.stats)

    AnalysisPipeline.__init__ = register
    undo.append((AnalysisPipeline, "__init__", init))
    try:
        with activate_tracer(tracer):
            yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(rows: List[SpanRow]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[str, List[SpanRow]] = defaultdict(list)
    for row in rows:
        if row.parent_id is not None:
            children[row.parent_id].append(row)
    result = {}
    for row in rows:
        covered, reach = 0.0, row.start
        for child in sorted(children.get(row.span_id, ()),
                            key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, row.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[row.span_id] = (row.end - row.start) - covered
    return result


def layer_metrics(log: SpanLog) -> Dict[str, float]:
    """Per-layer metrics whose source was observed in ``log``.

    A metric whose span or counter never appeared is left out; the
    caller reports it as absent when the workload should have made it.
    """
    by_name: Dict[str, List[SpanRow]] = defaultdict(list)
    for row in log.rows:
        by_name[row.name].append(row)
    own = self_times(log.rows)

    def total(name: str) -> float:
        return sum(r.end - r.start for r in by_name[name])

    def self_total(name: str) -> float:
        return sum(own[r.span_id] for r in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(r.attributes.get(key, 0) for r in by_name[name])

    out: Dict[str, float] = {}
    for stage in STAGES:
        if by_name["pipeline." + stage]:
            out[f"analysis.{stage}_s"] = total("pipeline." + stage)
    if log.pipeline_stats:
        counters: Dict[str, int] = defaultdict(int)
        for stats in log.pipeline_stats:
            for key, value in stats.counters().items():
                counters[key] += value
        lookups = counters["kernel_segment_hits"] + counters["kernel_segment_misses"]
        out["analysis.structural_misses"] = counters["structural_misses"]
        out["analysis.delta_runs"] = counters["delta_runs"]
        out["analysis.delta_fallbacks"] = counters["delta_fallbacks"]
        out["analysis.segment_lookups"] = lookups
        if lookups:
            out["analysis.segment_hit_ratio"] = (
                counters["kernel_segment_hits"] / lookups
            )
        if "refine_runs" in counters:
            out["analysis.refine_promotions"] = counters["refine_promotions"]
            out["analysis.refine_exhausted"] = counters["refine_exhausted"]
    if by_name["core.optimize"]:
        candidates = attr_sum("core.optimize", "candidates")
        out["core.search_self_s"] = self_total("core.optimize")
        out["core.candidates_evaluated"] = candidates
        if candidates:
            out["core.accept_ratio"] = (
                attr_sum("core.optimize", "insertions") / candidates
            )
    if by_name["sim.simulate"]:
        out["sim.simulate_s"] = total("sim.simulate")
        out["sim.fetches"] = attr_sum("sim.simulate", "fetches")
    for metric, span in (
        ("experiments.measure_s", "experiments.measure_program"),
        ("experiments.usecase_s", "experiments.run_usecase"),
        ("experiments.cache_key_s", "experiments.usecase_key"),
        ("experiments.cache_get_s", "experiments.cache_get"),
        ("experiments.cache_put_s", "experiments.cache_put"),
    ):
        if by_name[span]:
            out[metric] = total(span)
    if by_name["experiments.run_sweep"]:
        out["experiments.sweep_self_s"] = self_total("experiments.run_sweep")
    gets = by_name["experiments.cache_get"]
    if gets:
        out["experiments.cache_lookups"] = len(gets)
        out["experiments.cache_hit_ratio"] = (
            sum(1 for r in gets if r.attributes.get("hit")) / len(gets)
        )
    return out


def summary(log: SpanLog) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self seconds (for the run record)."""
    own = self_times(log.rows)
    table: Dict[str, Dict[str, float]] = {}
    for row in log.rows:
        entry = table.setdefault(row.name, {"count": 0, "total_s": 0.0,
                                            "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += row.end - row.start
        entry["self_s"] += own[row.span_id]
    return table
