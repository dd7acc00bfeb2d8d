"""Plain-text and JSON rendering of experiment results.

The benchmark harness prints the same rows/series the paper reports —
these helpers keep the formatting in one place so benches and examples
render identically, always with the paper's reference value next to the
measured one where a reference exists.

The ``*_to_json`` helpers are the machine-readable counterpart: the
``--json`` CLI modes and the analysis service (:mod:`repro.service`)
both serialise results through them, so a job fetched over HTTP and a
``repro sweep --json`` run emit identical documents.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.figures import (
    CapacitySeries,
    Figure3Data,
    Figure4Data,
    Figure5Data,
    Figure7Data,
    Figure8Data,
)

#: Headline numbers from the paper, used in report footers.
PAPER_HEADLINE = {
    "energy_improvement": 0.112,
    "acet_improvement": 0.102,
    "wcet_improvement": 0.174,
    "max_instruction_increase": 0.0132,
    "max_energy_saving_small_caches": 0.21,
}


def format_percent(value: float) -> str:
    """Render a fraction as a percentage with one decimal."""
    return f"{100.0 * value:5.1f}%"


def render_bar_chart(
    series: Sequence[CapacitySeries],
    title: str,
    width: int = 40,
) -> str:
    """ASCII bar chart of per-capacity series (the paper's figures are
    grouped bar charts over the capacity axis).

    Bars are scaled to the largest absolute value across all series;
    negative values grow leftward from the axis.
    """
    capacities = sorted({c for s in series for c in s.points})
    peak = max(
        (abs(s.points.get(c, 0.0)) for s in series for c in capacities),
        default=0.0,
    )
    symbols = "#*o+x"
    lines = [title]
    for idx, s in enumerate(series):
        lines.append(f"  [{symbols[idx % len(symbols)]}] {s.label}")
    for capacity in capacities:
        lines.append(f"{capacity:>7d} B")
        for idx, s in enumerate(series):
            value = s.points.get(capacity, 0.0)
            length = 0 if peak == 0 else round(abs(value) / peak * width)
            bar = symbols[idx % len(symbols)] * length
            sign = "-" if value < 0 else " "
            lines.append(f"        {sign}|{bar:<{width}}| {format_percent(value)}")
    return "\n".join(lines)


def render_series_table(
    series: Sequence[CapacitySeries], title: str
) -> str:
    """Tabulate several per-capacity series side by side."""
    capacities = sorted({c for s in series for c in s.points})
    header = "capacity(B) " + " ".join(f"{s.label:>24s}" for s in series)
    lines = [title, header, "-" * len(header)]
    for capacity in capacities:
        row = f"{capacity:>10d}  "
        row += " ".join(
            f"{format_percent(s.points.get(capacity, 0.0)):>24s}" for s in series
        )
        lines.append(row)
    return "\n".join(lines)


def render_figure3(data: Figure3Data) -> str:
    """Figure 3 text rendering with the paper's averages as reference."""
    body = render_series_table(
        [data.energy, data.energy_paper_mode, data.acet, data.wcet],
        "Figure 3 — average improvement vs cache capacity",
    )
    body += "\n\n" + render_bar_chart(
        [data.energy_paper_mode, data.acet, data.wcet],
        "Figure 3 (chart)",
    )
    footer = (
        f"overall: energy {format_percent(data.overall_energy)} / "
        f"paper-mode {format_percent(data.overall_energy_paper_mode)} "
        f"(paper 11.2%), ACET {format_percent(data.overall_acet)} "
        f"(paper 10.2%), WCET {format_percent(data.overall_wcet)} "
        f"(paper 17.4%)"
    )
    return body + "\n" + footer


def render_figure4(data: Figure4Data) -> str:
    """Figure 4 text rendering (miss rates before/after)."""
    body = render_series_table(
        [data.before, data.after],
        "Figure 4 — average miss rate vs cache capacity",
    )
    return body + "\n\n" + render_bar_chart(
        [data.before, data.after], "Figure 4 (chart)"
    )


def render_figure5(data: Figure5Data) -> str:
    """Figure 5 text rendering (optimized program on a smaller cache)."""
    body = render_series_table(
        [data.energy, data.acet, data.wcet],
        f"Figure 5 — optimized program on {data.capacity_factor:g}x capacity",
    )
    footer = (
        f"best energy saving {format_percent(data.best_energy_saving)} "
        f"(paper: up to 21.0%); WCET grew anywhere: "
        f"{data.wcet_grew_anywhere} (paper: never)"
    )
    return body + "\n" + footer


def render_figure7(data: Figure7Data, limit: Optional[int] = 20) -> str:
    """Figure 7 text rendering (per-use-case WCET ratios)."""
    lines = [
        f"Figure 7 — WCET ratio per use case at {data.tech} "
        f"(paper: < 1 for every use case)",
        f"use cases: {len(data.ratios)}, best {data.best:.3f}, "
        f"worst {data.worst:.3f}, all <= 1: {data.all_below_one}",
    ]
    shown = data.ratios if limit is None else data.ratios[:limit]
    for program, config_id, ratio in shown:
        lines.append(f"  {program:<14s} {config_id:<4s} {ratio:6.3f}")
    if limit is not None and len(data.ratios) > limit:
        lines.append(f"  ... ({len(data.ratios) - limit} more)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# machine-readable (JSON) serialisation — shared by the --json CLI modes
# and the analysis service, so both emit identical documents
# ----------------------------------------------------------------------
def report_to_json(report) -> Dict[str, Any]:
    """An :class:`~repro.core.optimizer.OptimizationReport` as plain data."""
    data: Dict[str, Any] = {
        "program": report.program,
        "config": {
            "associativity": report.config.associativity,
            "block_size": report.config.block_size,
            "capacity": report.config.capacity,
        },
        "prefetches": report.prefetch_count,
        "candidates_evaluated": report.candidates_evaluated,
        "candidates_rejected": report.candidates_rejected,
        "passes": report.passes,
        "tau_original": report.tau_original,
        "tau_final": report.tau_final,
        "wcet_reduction": report.wcet_reduction,
        "misses_original": report.misses_original,
        "misses_final": report.misses_final,
        "static_instructions_original": report.static_instructions_original,
        "static_instructions_final": report.static_instructions_final,
        "pipeline": dict(getattr(report, "pipeline", {}) or {}),
    }
    l2_penalty = getattr(report.timing, "l2_hit_penalty_cycles", None)
    if l2_penalty is not None:
        data["l2_hit_penalty_cycles"] = l2_penalty
    return data


def guarantee_to_json(check) -> Dict[str, Any]:
    """A :class:`~repro.core.guarantees.GuaranteeCheck` as plain data."""
    return {
        "theorem1": check.theorem1_holds,
        "condition2": check.condition2_holds,
        "latency_sound": check.all_effective,
        "tau_original": check.tau_original,
        "tau_optimized": check.tau_optimized,
        "misses_original": check.misses_original,
        "misses_optimized": check.misses_optimized,
    }


def optimize_to_json(report, check=None, profile=None) -> Dict[str, Any]:
    """One ``optimize`` outcome as plain data.

    With an independent :class:`GuaranteeCheck` (the CLI re-verifies),
    its full record is embedded; without one (the service derives the
    guarantee from the report's own τ/miss accounting) the boolean
    summary is computed from the report.  ``profile`` optionally embeds
    the per-stage wall-clock breakdown (``repro optimize --profile``) —
    machine-dependent, so only present on explicit request.
    """
    data = report_to_json(report)
    if check is not None:
        data["guarantee"] = guarantee_to_json(check)
    else:
        data["guarantee"] = {
            "theorem1": report.tau_final <= report.tau_original + 1e-6,
            "condition2": report.misses_final <= report.misses_original,
        }
    if profile is not None:
        data["profile"] = dict(profile)
    return data


def usecase_to_json(result) -> Dict[str, Any]:
    """One use case's paired measurements + the paper's ratios."""
    from repro.experiments.cache import result_to_dict

    data = result_to_dict(result)
    data["ratios"] = {
        "wcet": result.wcet_ratio,
        "acet": result.acet_ratio,
        "energy": result.energy_ratio,
        "energy_paper_mode": result.energy_ratio_paper_mode,
        "instructions": result.instruction_ratio,
    }
    return data


def _l2_measurement_json(m) -> Dict[str, Any]:
    """Per-level counters + energy of one measurement (multi-level only)."""
    return {
        "accesses": m.l2_accesses,
        "hits": m.l2_hits,
        "misses": m.l2_accesses - m.l2_hits,
        "fills": m.l2_fills,
        "prefetch_hits": m.prefetch_l2_hits,
        "dynamic_j": m.energy.l2_dynamic_j,
        "static_j": m.energy.l2_static_j,
    }


def sweep_case_to_json(result) -> Dict[str, Any]:
    """One sweep row: identification + ratios, without the full report.

    Multi-level rows additionally carry the L2 spec, the L2 hit penalty,
    and per-level hit/miss/energy numbers for both builds — so hierarchy
    records can never be mistaken for (or collide with) single-level
    rows in a merged report.
    """
    data: Dict[str, Any] = {
        "program": result.usecase.program,
        "config": result.usecase.config_id,
        "tech": result.usecase.tech,
        "wcet_ratio": result.wcet_ratio,
        "acet_ratio": result.acet_ratio,
        "energy_ratio": result.energy_ratio,
        "energy_ratio_paper_mode": result.energy_ratio_paper_mode,
        "instruction_ratio": result.instruction_ratio,
        "miss_rate_original": result.original.miss_rate_acet,
        "miss_rate_optimized": result.optimized.miss_rate_acet,
        "prefetches": result.report.prefetch_count,
    }
    if result.usecase.l2 is not None:
        data["l2"] = result.usecase.l2
        l2_penalty = getattr(
            result.report.timing, "l2_hit_penalty_cycles", None
        )
        if l2_penalty is not None:
            data["l2_hit_penalty_cycles"] = l2_penalty
        data["l2_original"] = _l2_measurement_json(result.original)
        data["l2_optimized"] = _l2_measurement_json(result.optimized)
    return data


def failure_to_json(record) -> Dict[str, Any]:
    """A :class:`~repro.experiments.sweep.FailureRecord` as plain data."""
    data = {
        "program": record.usecase.program,
        "config": record.usecase.config_id,
        "tech": record.usecase.tech,
        "error_type": record.error_type,
        "message": record.message,
        "attempts": record.attempts,
        "worker_pid": record.worker_pid,
        "transient": record.transient,
    }
    if record.usecase.l2 is not None:
        data["l2"] = record.usecase.l2
    return data


def metrics_to_json(metrics) -> Dict[str, Any]:
    """A :class:`~repro.experiments.metrics.SweepMetrics` summary."""
    return {
        "cases": metrics.cases,
        "computed": metrics.computed,
        "disk_hits": metrics.disk_hits,
        "memory_hits": metrics.memory_hits,
        "workers": metrics.workers,
        "parallel": metrics.parallel,
        "compute_time_s": metrics.compute_time_s,
        "evaluations": metrics.evaluations,
        "prefetches": metrics.prefetches,
        "pipeline": metrics.pipeline_totals(),
        "failed": metrics.failed,
        "retries": metrics.retries,
        "pool_rebuilds": metrics.pool_rebuilds,
        "failures": [failure_to_json(r) for r in metrics.failures],
    }


def average_improvement(results: Sequence) -> Optional[Dict[str, float]]:
    """Mean WCET/ACET/energy improvement of successful cases, or
    ``None`` when there are none: an empty mean is no improvement
    figure at all, let alone 100 %."""
    from repro.experiments.sweep import average

    if not results:
        return None
    return {
        "wcet": 1.0 - average([r.wcet_ratio for r in results]),
        "acet": 1.0 - average([r.acet_ratio for r in results]),
        "energy": 1.0 - average([r.energy_ratio for r in results]),
    }


def format_improvement(improvement: Optional[Dict[str, float]]) -> str:
    """The ``average improvement:`` line of a sweep summary."""
    if improvement is None:
        return "average improvement: n/a (no case succeeded)"
    return "average improvement: " + ", ".join(
        f"{name} {100 * improvement[name]:.1f}%"
        for name in ("wcet", "acet", "energy")
    )


def sweep_to_json(results: Sequence, metrics=None,
                  failures: Sequence = ()) -> Dict[str, Any]:
    """A whole sweep: per-case rows + aggregate summary (+ metrics).

    ``failures`` carries the permanently failed cases of a partial
    sweep; the summary's averages are over the successes only, so a
    consumer must check ``summary.failed`` before trusting them as
    grid-wide numbers (they are ``null`` when no case succeeded).
    """
    cases = [sweep_case_to_json(r) for r in results]
    data: Dict[str, Any] = {
        "cases": cases,
        "summary": {
            "cases": len(cases),
            "failed": len(failures),
            "average_improvement": average_improvement(results),
        },
    }
    if failures:
        data["failures"] = [failure_to_json(r) for r in failures]
    if metrics is not None:
        data["metrics"] = metrics_to_json(metrics)
    return data


def render_figure8(data: Figure8Data) -> str:
    """Figure 8 text rendering (executed-instruction ratio)."""
    capacities = sorted(data.per_capacity.points)
    lines = [
        "Figure 8 — executed-instruction ratio (optimized / original)",
        "capacity(B)   ratio",
    ]
    for capacity in capacities:
        lines.append(
            f"{capacity:>10d}   {data.per_capacity.points[capacity]:.4f}"
        )
    lines.append(
        f"max increase {format_percent(data.max_increase)} (paper max: +1.32%)"
    )
    return "\n".join(lines)
