"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro list-programs
    python -m repro list-configs
    python -m repro optimize fdct k1 45nm
    python -m repro usecase matmult k13 32nm
    python -m repro figure 3 --programs bs crc fdct --configs k1 k13
    python -m repro sweep --workers 4 --cache-dir ~/.cache/repro-sweep
    python -m repro table 1
    python -m repro serve --port 8080 --workers 4
    python -m repro trace 4bf92f3577b34da6a3ce929d0e0e4736 --export t.json

``optimize`` and ``sweep`` take ``--json``: the machine-readable
document goes to stdout and the human-readable text moves to stderr, so
scripts can pipe results while operators still see progress.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.registry import TABLE1, load
from repro.cache.config import TABLE2, hierarchy_for
from repro.core.guarantees import verify_wcet_guarantee
from repro.core.optimizer import optimize
from repro.energy.cacti import hierarchy_model
from repro.energy.technology import technology
from repro.errors import ProtocolError, ReproError
from repro.experiments.figures import figure3, figure4, figure5, figure7, figure8
from repro.experiments.report import (
    average_improvement,
    format_improvement,
    render_figure3,
    render_figure4,
    render_figure5,
    render_figure7,
    render_figure8,
)
from repro.experiments.metrics import SweepMetrics
from repro.experiments.scenario import (
    AXES,
    COMMANDS,
    check_command,
    options_from_params,
    spec_from_params,
)
from repro.experiments.sweep import full_grid, run_sweep
from repro.experiments.tables import table1, table2
from repro.experiments.usecase import UseCase, run_usecase
from repro.obs.trace import Span, Tracer, activate_tracer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WCET-safe unlocked-cache prefetching (DAC 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-programs", help="the 37 Mälardalen clones (Table 1)")
    sub.add_parser("list-configs", help="the 36 cache configurations (Table 2)")

    opt = sub.add_parser("optimize", help="optimize one program and verify")
    _add_axis_arguments(opt, "optimize")
    opt.add_argument("--json", action="store_true",
                     help="machine-readable result on stdout "
                          "(human text moves to stderr)")
    opt.add_argument("--profile", action="store_true",
                     help="per-stage wall-clock breakdown of the analysis "
                          "pipeline on stderr (and in the --json document)")

    usecase = sub.add_parser(
        "usecase", help="paired original/optimized measurement of one use case"
    )
    _add_axis_arguments(usecase, "usecase")

    fig = sub.add_parser("figure", help="regenerate a figure of the paper")
    fig.add_argument("number", type=int, choices=(3, 4, 5, 7, 8))
    _add_axis_arguments(fig, "figure")
    fig.add_argument("--factor", type=float, default=0.5,
                     help="capacity factor for figure 5")

    tab = sub.add_parser("table", help="print a table of the paper")
    tab.add_argument("number", type=int, choices=(1, 2))

    sweep = sub.add_parser(
        "sweep",
        help="run a use-case grid (parallel workers, persistent disk cache)",
    )
    _add_axis_arguments(sweep, "sweep")
    sweep.add_argument("--full", action="store_true",
                       help="the paper's complete 2664-case grid")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes (default: REPRO_SWEEP_WORKERS "
                            "or the CPU count; 1 = serial)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache (default: "
                            "$REPRO_SWEEP_CACHE_DIR; unset = no disk cache)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore both the disk and the in-process cache")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the per-use-case progress lines")
    sweep.add_argument("--json", action="store_true",
                       help="machine-readable results on stdout "
                            "(progress/summary move to stderr)")
    sweep.add_argument("--max-failures", type=int, default=0, metavar="N",
                       help="tolerate up to N permanently failed use "
                            "cases before exiting nonzero (default: 0; "
                            "partial results are always reported)")

    serve = sub.add_parser(
        "serve",
        help="run the async analysis service (jobs over HTTP/JSON)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="compute pool size (default: "
                            "REPRO_SWEEP_WORKERS or the CPU count)")
    serve.add_argument("--queue-size", type=int, default=64, metavar="N",
                       help="bounded job queue; beyond it submissions "
                            "get 429 + Retry-After")
    serve.add_argument("--job-timeout", type=float, default=600.0,
                       metavar="SECONDS",
                       help="per-job wall-clock budget (0 = unlimited)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache (default: "
                            "$REPRO_SWEEP_CACHE_DIR; unset = no disk cache)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent disk cache")
    serve.add_argument("--self-check", action="store_true",
                       help="boot on an ephemeral port, check /healthz "
                            "and /metrics, report, and exit")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="RATE",
                       help="head-sampling rate for new traces rooted "
                            "at this node (0 disables tracing; sampled "
                            "incoming traceparents are always honored)")

    trace = sub.add_parser(
        "trace",
        help="render one service trace as a span tree",
    )
    trace.add_argument("trace_id", help="32-hex trace id (echoed in the "
                                        "traceparent response header)")
    trace.add_argument("--service", default="http://127.0.0.1:8080",
                       metavar="URL",
                       help="service to fetch the trace from")
    trace.add_argument("--export", default=None, metavar="FILE",
                       help="also write Chrome-trace JSON (load in "
                            "chrome://tracing or ui.perfetto.dev)")
    trace.add_argument("--json", action="store_true",
                       help="raw span documents on stdout instead of "
                            "the rendered tree")
    return parser


def _add_axis_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """The command's use-case arguments, derived from the axis table:
    ``program``/``config``/``tech`` are positional, list-valued fields
    take one or more values, and every default is the command's own."""
    for field in COMMANDS[command]:
        axis = AXES[field.axis]
        kwargs = dict(axis.cli, help=axis.help)
        if field.many:
            kwargs.update(nargs="*", help=f"one or more: {axis.help}")
            parser.add_argument(f"--{field.name}", default=None, **kwargs)
        elif field.name in ("program", "config", "tech"):
            if field.default is not None:
                kwargs.update(nargs="?", default=field.default)
            parser.add_argument(field.name, **kwargs)
        else:
            parser.add_argument(f"--{field.name}", default=field.default,
                                **kwargs)


def _axis_params(args: argparse.Namespace) -> Dict[str, Any]:
    """The parsed use-case arguments of ``args.command`` as params."""
    return {f.name: getattr(args, f.name) for f in COMMANDS[args.command]}


def _cmd_list_programs() -> int:
    for pid, name in TABLE1.items():
        cfg = load(name)
        print(f"{pid:<5} {name:<15} {cfg.instruction_count:>6} instrs "
              f"{cfg.instruction_count * 4:>7} B  {len(cfg.loops)} loops")
    return 0


def _cmd_list_configs() -> int:
    for kid, config in TABLE2.items():
        print(f"{kid:<4} a={config.associativity} b={config.block_size:>2} "
              f"c={config.capacity:>5}  ({config.num_sets} sets)")
    return 0


def _add_stage_time(profile: Dict[str, float], span: Span) -> None:
    """Sink of ``--profile``: seconds per ``pipeline.<stage>`` span name."""
    if span.name.startswith("pipeline."):
        stage = span.name[len("pipeline."):]
        profile[stage] = profile.get(stage, 0.0) + span.duration_s


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.experiments.report import optimize_to_json

    config = TABLE2[args.config]
    tech = technology(args.tech)
    hierarchy = hierarchy_for(config, args.l2)
    timing = hierarchy_model(hierarchy, tech).timing
    cfg = load(args.program)
    # No UseCase here to carry the L2 spec: it rides on the options.
    options = replace(options_from_params(_axis_params(args)), l2=args.l2)
    # --profile sums the pipeline's stage spans; without it nothing is
    # sampled and every span is the no-op.
    profile: Optional[Dict[str, float]] = {} if args.profile else None
    tracer = Tracer(sample=1.0 if args.profile else 0.0,
                    sink=lambda span: _add_stage_time(profile, span))
    with activate_tracer(tracer), tracer.start_span("optimize", root=True):
        optimized, report = optimize(cfg, config, timing, options=options)
    check = verify_wcet_guarantee(
        cfg, optimized, config, timing,
        with_persistence=options.with_persistence,
        hierarchy=hierarchy if hierarchy.multi_level else None,
        refine=options.refine,
    )
    # In --json mode the human rendering moves to stderr so stdout stays
    # a clean machine-readable document.
    out = sys.stderr if args.json else sys.stdout
    print(f"{cfg.name} on {args.config}={hierarchy.label()} @ {tech.name} "
          f"[{args.baseline} baseline]", file=out)
    print(f"prefetches : {report.prefetch_count} "
          f"({report.candidates_evaluated} evaluated, "
          f"{report.candidates_rejected} rejected, {report.passes} passes)",
          file=out)
    print(f"τ_w        : {report.tau_original:.0f} -> {report.tau_final:.0f} "
          f"({100 * report.wcet_reduction:+.1f}%)", file=out)
    print(f"worst miss : {report.misses_original} -> {report.misses_final}",
          file=out)
    print(f"Theorem 1  : {check.theorem1_holds}   Condition 2: "
          f"{check.condition2_holds}   latency-sound: {check.all_effective}",
          file=out)
    if profile is not None:
        # Always on stderr: diagnostics, not part of the result proper.
        total = sum(profile.values())
        print("pipeline stage breakdown:", file=sys.stderr)
        for stage in ("acfg", "fixpoint", "classify", "guard", "ipet"):
            seconds = profile.get(stage, 0.0)
            share = (100.0 * seconds / total) if total else 0.0
            print(f"  {stage:<9}: {seconds:8.3f}s ({share:4.1f}%)",
                  file=sys.stderr)
        for stage in sorted(set(profile) - {"acfg", "fixpoint", "classify",
                                            "guard", "ipet"}):
            print(f"  {stage:<9}: {profile[stage]:8.3f}s", file=sys.stderr)
        counters = report.pipeline
        print(f"  analyses : {counters.get('delta_runs', 0)} delta, "
              f"{counters.get('cold_runs', 0)} cold, "
              f"{counters.get('delta_fallbacks', 0)} fallbacks",
              file=sys.stderr)
    if args.json:
        document = optimize_to_json(report, check, profile=profile)
        document["config_id"] = args.config
        document["tech"] = tech.name
        document["baseline"] = args.baseline
        print(json.dumps(document, sort_keys=True))
    return 0 if check.theorem1_holds else 1


def _cmd_usecase(args: argparse.Namespace) -> int:
    result = run_usecase(
        UseCase(args.program, args.config, args.tech, args.l2),
        options=options_from_params(_axis_params(args)),
    )
    where = args.config if args.l2 is None else f"{args.config}+L2 {args.l2}"
    print(f"{args.program} on {where} @ {args.tech}")
    print(f"  WCET ratio   : {result.wcet_ratio:.3f}")
    print(f"  ACET ratio   : {result.acet_ratio:.3f}")
    print(f"  energy ratio : {result.energy_ratio:.3f} "
          f"(paper-mode {result.energy_ratio_paper_mode:.3f})")
    print(f"  instr ratio  : {result.instruction_ratio:.4f}")
    print(f"  miss rate    : {100 * result.original.miss_rate_acet:.2f}% -> "
          f"{100 * result.optimized.miss_rate_acet:.2f}%")
    if args.l2 is not None:
        def l2_rate(m):
            return 100.0 * m.l2_hits / m.l2_accesses if m.l2_accesses else 0.0

        print(f"  L2 hit rate  : {l2_rate(result.original):.2f}% -> "
              f"{l2_rate(result.optimized):.2f}%")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = spec_from_params(_axis_params(args))
    if args.number == 3:
        print(render_figure3(figure3(spec)))
    elif args.number == 4:
        print(render_figure4(figure4(spec)))
    elif args.number == 5:
        print(render_figure5(figure5(args.factor, spec)))
    elif args.number == 7:
        print(render_figure7(figure7(spec)))
    elif args.number == 8:
        print(render_figure8(figure8(spec)))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params = _axis_params(args)
    if args.full:
        full = full_grid()
        params.update(programs=full.programs, configs=full.config_ids)
        if args.programs or args.configs:
            print("note: --full overrides --programs/--configs", file=sys.stderr)
    spec = spec_from_params(params)
    metrics = SweepMetrics()
    # In --json mode every human-readable line (progress + summary)
    # moves to stderr; stdout carries only the JSON document.
    out = sys.stderr if args.json else sys.stdout
    progress = None
    if not args.quiet:
        width = len(str(spec.size))

        def progress(usecase, result):
            done = metrics.cases
            print(f"[{done:>{width}}/{spec.size}] "
                  f"{usecase.program:<14s} {usecase.config_id:<4s} "
                  f"{usecase.tech:<5s} wcet {result.wcet_ratio:.3f} "
                  f"acet {result.acet_ratio:.3f} "
                  f"energy {result.energy_ratio:.3f}", file=out)

    cache_dir = "off" if args.no_cache else args.cache_dir
    # The CLI reports partial results itself, so the sweep never raises
    # on failures (max_failures=None); the exit code carries the policy.
    results = run_sweep(
        spec,
        progress=progress,
        use_cache=not args.no_cache,
        workers=args.workers,
        cache_dir=cache_dir,
        metrics=metrics,
        max_failures=None,
    )
    failures = list(metrics.failures)
    print(file=out)
    print(metrics.summary(), file=out)
    print(format_improvement(average_improvement(results)), file=out)
    if args.json:
        from repro.experiments.report import sweep_to_json

        print(json.dumps(
            sweep_to_json(results, metrics=metrics, failures=failures),
            sort_keys=True,
        ))
    if len(failures) > max(args.max_failures, 0):
        print(f"error: {len(failures)} use case(s) failed permanently "
              f"(--max-failures {args.max_failures})", file=sys.stderr)
        return 1
    return 0


#: One exposition sample: ``name[{le="…"}] value``.
_SAMPLE_LINE = re.compile(
    r'([A-Za-z_:][A-Za-z0-9_:]*(?:\{le="[^"]+"\})?) (\S+)'
)


def _exposition_problems(text: str) -> List[str]:
    """What is wrong with a ``/metrics`` body (empty when nothing).

    Every sample line must parse as ``name[{le="…"}] number``, every
    histogram must expose its ``+Inf`` bucket, ``_sum`` and ``_count``,
    and the scrape itself makes ``http_requests`` at least 1.
    """
    problems: List[str] = []
    samples: Dict[str, float] = {}
    histograms = []
    for line in text.splitlines():
        if line.startswith("# TYPE ") and line.endswith(" histogram"):
            histograms.append(line.split()[2])
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.fullmatch(line)
        try:
            samples[match.group(1)] = float(match.group(2))
        except (AttributeError, ValueError):  # no match / not a number
            problems.append(f"unparsable sample line {line!r}")
    for name in histograms:
        for sample in (f'{name}_bucket{{le="+Inf"}}', f"{name}_sum",
                       f"{name}_count"):
            if sample not in samples:
                problems.append(f"histogram {name} has no {sample}")
    if samples.get("http_requests", 0) < 1:
        problems.append("http_requests is not >= 1")
    return problems


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.app import BackgroundServer, build_service, run_server

    cache_dir = "off" if args.no_cache else args.cache_dir
    build_kwargs = dict(
        workers=args.workers,
        cache_dir=cache_dir,
        max_queue=args.queue_size,
        job_timeout_s=args.job_timeout,
        trace_sample=args.trace_sample,
    )

    if args.self_check:
        # Boot on an ephemeral port, prove /healthz answers and /metrics
        # is a well-formed exposition, tear down.
        from repro.service.client import ServiceClient

        with BackgroundServer(host=args.host, port=0,
                              **build_kwargs) as server:
            client = ServiceClient(server.host, server.port)
            health = client.health()
            print(f"self-check: {server.url}/healthz -> "
                  f"{health.get('status')} "
                  f"(version {health.get('version')}, "
                  f"workers {health['executor']['workers']})")
            problems = _exposition_problems(client.metrics())
            print(f"self-check: {server.url}/metrics -> "
                  f"{'ok' if not problems else 'malformed'}")
            for problem in problems:
                print(f"  {problem}")
            ok = health.get("status") == "ok" and not problems
        return 0 if ok else 1

    async def _serve() -> None:
        app = build_service(**build_kwargs)

        def ready(port: int) -> None:
            print(f"repro service listening on http://{args.host}:{port} "
                  f"(workers {app.executor.workers}, "
                  f"queue {args.queue_size})", flush=True)

        await run_server(app, host=args.host, port=args.port, ready=ready)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Fetch one trace and render it as a span tree (or export it)."""
    from repro.obs.export import render_span_tree, to_chrome_trace
    from repro.service.client import ServiceClient, split_base_url

    host, port = split_base_url(args.service)
    document = ServiceClient(host, port).trace(args.trace_id)
    spans = document.get("spans", [])
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        print(f"trace {args.trace_id} ({len(spans)} spans)")
        print(render_span_tree(spans))
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            json.dump(to_chrome_trace(spans), handle)
        print(f"exported Chrome-trace JSON to {args.export}",
              file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 1:
        for row in table1():
            print(f"{row.program_id:<5} {row.name}")
    else:
        for row in table2():
            print(f"{row.config_id:<4} ({row.associativity}, "
                  f"{row.block_size}, {row.capacity})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Bad use-case arguments are usage errors (exit 2, checked by the
    axis table's validators before any work); any other library error
    is reported as one ``error:`` line (exit 1).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in COMMANDS:
        try:
            check_command(args.command, _axis_params(args))
        except ProtocolError as exc:
            parser.error(str(exc))
    dispatch = {
        "list-programs": lambda: _cmd_list_programs(),
        "list-configs": lambda: _cmd_list_configs(),
        "optimize": lambda: _cmd_optimize(args),
        "usecase": lambda: _cmd_usecase(args),
        "figure": lambda: _cmd_figure(args),
        "sweep": lambda: _cmd_sweep(args),
        "serve": lambda: _cmd_serve(args),
        "table": lambda: _cmd_table(args),
        "trace": lambda: _cmd_trace(args),
    }
    try:
        return dispatch[args.command]()
    except BrokenPipeError:  # output piped into head & friends
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
