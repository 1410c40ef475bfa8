"""Command-line entry point: regenerate paper artifacts from a shell.

Usage::

    python -m repro list                     # show available experiments
    python -m repro table1 --app bfs         # one Table 1 sub-table
    python -m repro table2                   # dataset stats
    python -m repro table3                   # challenge classification
    python -m repro table4 --app coloring    # workload ratios
    python -m repro fig --app bfs --dataset road_usa
    python -m repro sweep --app bfs --dataset soc-LiveJournal1
    python -m repro permute                  # the Section 6.3 study
    python -m repro report                   # paper-vs-measured verdicts
    python -m repro all                      # everything (slow)
    python -m repro trace bfs roadnet_ca_sim --config persist-warp --out trace.json
    python -m repro run bfs road_usa --config hybrid-CTA   # one cell, summary
    python -m repro run --list-configs       # named configurations
    python -m repro run --list-apps          # registered applications
    python -m repro run bfs-inc rmat8 --edits 3x32@7     # edit-script replay
    python -m repro check bfs rmat8 --seeds 5    # oracle + invariant + fuzz
    python -m repro check coloring grid_mesh --config hybrid-CTA
    python -m repro check cc-inc rmat8 --edits 3x32@7    # differential replay
    python -m repro perf --size tiny             # wall-clock benchmark
    python -m repro perf --out BENCH_perf.json --repeats 3
    python -m repro metrics bfs roadNet-CA --config persist-warp --out summary.json
    python -m repro metrics --write-baseline BENCH_metrics_baseline.json
    python -m repro diff summary.json BENCH_metrics_baseline.json
    python -m repro diff new_baseline.json BENCH_metrics_baseline.json
    python -m repro serve --port 8321            # scheduler-as-a-service broker
    python -m repro submit bfs roadNet-CA --config persist-CTA --port 8321
    python -m repro submit --job '{"app":"bfs","dataset":"roadNet-CA"}' --tenant ci
    python -m repro submit --stats --port 8321   # broker/cache health document
    python -m repro service-bench --out BENCH_service.json
    python -m repro diff BENCH_service.json committed/BENCH_service.json

Common options: ``--size {tiny,small,default}`` (default ``small``).

The ``trace`` subcommand runs one (app, dataset, config) cell with a
:class:`repro.obs.Collector` attached, writes a Chrome ``trace_event``
JSON file (load it at ``chrome://tracing`` or https://ui.perfetto.dev),
and prints the ASCII time-sink profile.  Traces are deterministic: the
same invocation always produces a byte-identical file.

``run``, ``trace``, ``metrics``, ``dash --app``, ``check`` and ``submit``
name their cells the same way (:func:`_spec_from_args`); all but
``submit`` run them through :func:`repro.service.jobs.execute_spec`, so a
trace or a metrics summary observes the run the tables and the service
compute, and ``submit`` sends the same spec to the service.  A bad app,
dataset, config or size is refused with one ``error:`` line and exit
status 2.
"""

from __future__ import annotations

import argparse
import sys

from repro.graph.datasets import SIZES
from repro.harness.experiments import EXPERIMENTS, SCALE_FREE
from repro.harness.runner import Lab


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every refusal is one stderr line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_size_arg(parser) -> None:
    """The ``--size`` option every command shares (one of ``SIZES``)."""
    parser.add_argument("--size", default="small", choices=SIZES)


def _spec_from_args(parser: argparse.ArgumentParser, args, config: str):
    """The validated :class:`~repro.service.jobs.RunSpec` a command's flags name.

    The one place ``run``, ``trace``, ``metrics``, ``check``, ``dash
    --app`` and ``submit`` turn argv into a cell: ``config`` resolves
    case-insensitively, a dynamic app without ``--edits`` replays
    :data:`DEFAULT_EDITS`, flags a command lacks keep the RunSpec
    defaults, and a :func:`~repro.service.jobs.validate_spec` error is a
    ``parser.error``.
    """
    from repro.apps.common import APP_REGISTRY
    from repro.core.config import variant_by_name
    from repro.service.jobs import JobSpecError, RunSpec, validate_spec

    try:
        config = variant_by_name(config).name
    except KeyError:
        pass  # validate_spec names the unknown config
    edits = getattr(args, "edits", None)
    if edits is None and args.app in APP_REGISTRY and APP_REGISTRY[args.app].dynamic:
        edits = DEFAULT_EDITS
    spec = RunSpec(
        args.app, args.dataset, config, size=args.size, seed=getattr(args, "seed", 0),
        edits=edits, devices=getattr(args, "devices", None),
        partition=getattr(args, "partition", None),
        permuted=getattr(args, "permuted", False),
    )
    try:
        validate_spec(spec)
    except JobSpecError as exc:
        parser.error(str(exc))
    return spec


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="Regenerate the Atos paper's tables and figures.",
    )
    parser.add_argument(
        "command",
        choices=[
            "list", "table1", "table2", "table3", "table4",
            "fig", "sweep", "permute", "report", "all",
        ],
    )
    parser.add_argument("--app", default="bfs", choices=["bfs", "pagerank", "coloring"])
    parser.add_argument("--dataset", default="soc-LiveJournal1")
    _add_size_arg(parser)
    return parser


def _build_trace_parser() -> argparse.ArgumentParser:
    from repro.apps.common import app_names

    parser = _Parser(
        prog="python -m repro trace",
        description=(
            "Run one scheduler configuration with observability attached; "
            "write a Chrome trace_event JSON and print the time-sink profile."
        ),
    )
    parser.add_argument("app", choices=app_names())
    parser.add_argument("dataset", help="dataset name or alias (e.g. roadnet_ca_sim)")
    parser.add_argument(
        "--config",
        default="persist-warp",
        help="named Atos variant (default: persist-warp)",
    )
    parser.add_argument("--out", default="trace.json", help="output trace path")
    _add_size_arg(parser)
    return parser


def _run_trace(argv: list[str]) -> int:
    from repro.obs import Collector, flat_metrics, format_profile, write_chrome_trace
    from repro.service.jobs import execute_spec

    parser = _build_trace_parser()
    args = parser.parse_args(argv)
    spec = _spec_from_args(parser, args, args.config)
    sink = Collector()
    result = execute_spec(spec, sink=sink)
    write_chrome_trace(sink, args.out)

    print(
        f"traced {spec.app} on {spec.dataset} [{spec.impl}] "
        f"size={spec.size}: {len(sink.events)} events -> {args.out}"
    )
    print(f"digest: {sink.digest()}")
    elapsed_ns = result.extra.get("replay_total_elapsed_ns", result.elapsed_ns)
    metrics = flat_metrics(sink, elapsed_ns=elapsed_ns)
    print(
        "reconcile: "
        f"tasks={metrics['tasks']} retired={metrics['items_retired']} "
        f"empty_pops={metrics['empty_pops']} steals={metrics['steals']} "
        f"final_queue_depth={metrics['final_queue_depth']}"
    )
    print()
    print(
        format_profile(
            sink,
            elapsed_ns=elapsed_ns,
            worker_slots=result.extra.get("worker_slots"),
            config_name=spec.impl,
        )
    )
    return 0


def _add_device_args(parser: argparse.ArgumentParser) -> None:
    """The multi-device flags ``run``/``check``/``perf`` share.

    ``--devices N`` (N > 1) rebases every engine-level config onto the
    distributed strategy (:mod:`repro.core.distributed`): the graph is
    partitioned across N simulated GPUs and cross-device work pays the
    interconnect.  This changes simulated results.
    """
    from repro.graph.partition import PARTITION_CHOICES

    parser.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help="simulate on N devices via the distributed strategy (default: 1)",
    )
    parser.add_argument(
        "--partition",
        default=None,
        choices=list(PARTITION_CHOICES),
        help=(
            "graph partition for --devices: edge/vertex (greedy cut of that "
            "kind) or a method name (hash/contiguous/greedy edge-cut)"
        ),
    )


def _build_run_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro run",
        description="Run one (app, dataset, config) cell and print a summary.",
    )
    parser.add_argument("app", nargs="?", help="application name (see --list-apps)")
    parser.add_argument("dataset", nargs="?", help="dataset name or alias")
    parser.add_argument(
        "--config",
        default="persist-CTA",
        help="named configuration (default: persist-CTA; see --list-configs)",
    )
    _add_size_arg(parser)
    _add_device_args(parser)
    parser.add_argument(
        "--edits",
        default=None,
        metavar="SPEC",
        help=(
            "replay an edit script through a dynamic app (bfs-inc/cc-inc/"
            "pagerank-inc): EPOCHSxBATCH@SEED[dFRAC], e.g. 3x32@7 or 4x64@1d0.5"
        ),
    )
    parser.add_argument("--permuted", action="store_true", help="randomly permute vertex ids")
    parser.add_argument(
        "--list-configs", action="store_true", help="list named configurations and exit"
    )
    parser.add_argument(
        "--list-apps", action="store_true", help="list registered applications and exit"
    )
    return parser


def _run_run(argv: list[str]) -> int:
    from repro.apps.common import APP_REGISTRY, app_names
    from repro.core.config import CONFIGS
    from repro.service.jobs import execute_spec, result_digest

    parser = _build_run_parser()
    args = parser.parse_args(argv)
    if args.list_configs:
        from repro.sim.spec import CLUSTERS

        for name, cfg in CONFIGS.items():
            kind = cfg.strategy.value
            dist = (
                f" devices={cfg.devices} partition={cfg.partition} "
                f"ic={cfg.interconnect}"
                if cfg.devices > 1
                else ""
            )
            print(
                f"{name:14s} {kind:10s} workers={cfg.worker_threads:<4d} "
                f"fetch={cfg.fetch_size:<4d} lb={'on' if cfg.internal_lb else 'off'}"
                f"{dist}"
            )
        print()
        print("cluster presets (repro.sim.spec.CLUSTERS):")
        for name, cluster in CLUSTERS.items():
            ic = cluster.interconnect
            print(
                f"{name:16s} {cluster.num_devices} x {cluster.devices[0].name}  "
                f"{ic.name}: {ic.items_per_ns:g} items/ns, "
                f"{ic.latency_ns:g} ns latency"
            )
        return 0
    if args.list_apps:
        for name in app_names():
            print(f"{name:12s} {APP_REGISTRY[name].description}")
        return 0
    if not args.app or not args.dataset:
        parser.error("app and dataset are required (or use --list-*)")
    spec = _spec_from_args(parser, args, args.config)
    # replays check every epoch against the from-scratch oracle
    result = execute_spec(spec, validate=spec.edits is not None)

    print(spec.describe())
    print(f"  elapsed          {result.elapsed_ms:.3f} ms")
    print(f"  work units       {result.work_units:.0f}")
    print(f"  items retired    {result.items_retired}")
    print(f"  iterations       {result.iterations}")
    print(f"  kernel launches  {result.kernel_launches}")
    for key in sorted(result.extra):
        val = result.extra[key]
        if key == "device_stats":
            for d in val:
                print(
                    f"  device {d['device']}: slots={d['worker_slots']} "
                    f"tasks={d['tasks']} retired={d['items_retired']} "
                    f"work={d['work_units']:.0f}"
                )
            continue
        shown = f"{val:.4g}" if isinstance(val, float) else val
        print(f"  {key:16s} {shown}")
    print(f"digest: {result_digest(result)}")
    return 0


#: default edit script for dynamic apps when ``--edits`` is omitted
DEFAULT_EDITS = "3x32@7"


def _build_check_parser() -> argparse.ArgumentParser:
    from repro.check.oracles import oracle_names

    parser = _Parser(
        prog="python -m repro check",
        description=(
            "Validate one app x dataset cell: run under each named config, "
            "check the answer against the app's oracle with an invariant "
            "monitor attached, then run the schedule-perturbation fuzzer."
        ),
    )
    parser.add_argument("app", choices=oracle_names())
    parser.add_argument(
        "dataset",
        help="dataset name/alias (e.g. roadnet_ca_sim) or a test graph (rmat8, grid_mesh)",
    )
    parser.add_argument(
        "--config",
        action="append",
        default=None,
        help="named config to check (repeatable; default: every engine-level preset)",
    )
    parser.add_argument("--seeds", type=int, default=10, help="fuzzer seeds (default 10)")
    parser.add_argument(
        "--amplitude", type=float, default=200.0, help="perturbation amplitude in ns"
    )
    parser.add_argument(
        "--edits",
        default=None,
        metavar="SPEC",
        help=(
            "edit script for dynamic apps (EPOCHSxBATCH@SEED[dFRAC], e.g. "
            f"3x32@7); implied at {DEFAULT_EDITS!r} for bfs-inc/cc-inc/"
            "pagerank-inc, which run the differential edit-replay check"
        ),
    )
    _add_size_arg(parser)
    _add_device_args(parser)
    return parser


def _run_check(argv: list[str]) -> int:
    from repro.apps.common import get_adapter
    from repro.check.fuzz import fuzz_app
    from repro.check.invariants import InvariantMonitor
    from repro.check.oracles import validate
    from repro.core.config import CONFIGS
    from repro.core.policy import policy_for
    from repro.service.jobs import execute_spec

    parser = _build_check_parser()
    args = parser.parse_args(argv)
    if args.config:
        names = args.config
    elif get_adapter(args.app).make_kernel is None:
        names = ["BSP"]
    else:
        names = [name for name, cfg in CONFIGS.items() if not policy_for(cfg).app_level]
    specs = [_spec_from_args(parser, args, name) for name in names]
    graph = specs[0].graph()
    edits = specs[0].edits
    # a replay checks every epoch against the from-scratch oracle on that
    # epoch's snapshot: the differential check
    label = "oracle+invariants" if edits is None else "differential+invariants"
    print(
        f"check {args.app} on {graph.name} ({graph.num_vertices} vertices)"
        + ("" if edits is None else f" edits={edits}")
    )
    failures = 0
    engine = []
    for spec in specs:
        config = spec.atos_config()
        if policy_for(config).app_level:
            # the BSP timeline's stream, under the monitor the fuzzer attaches
            monitor = InvariantMonitor()
            result = execute_spec(spec, sink=monitor)
            monitor.reconcile(result)
            report = validate(spec.app, graph, result)
            bad = [str(v) for v in monitor.violations] + [str(c) for c in report.failures]
        else:
            # seed 0 at amplitude 0 is the unperturbed schedule, with the
            # fuzzer's invariant monitor and oracle attached
            engine.append(config)
            [run] = fuzz_app(
                spec.app, graph, config, edits=edits, seeds=[0], amplitude_ns=0.0
            ).runs
            bad = [str(v) for v in run.violations] + [str(c) for c in run.oracle.failures]
        status = "PASS" if not bad else "FAIL (" + "; ".join(bad[:4]) + ")"
        if bad:
            failures += 1
        print(f"  {spec.impl:14s} {label} {status}")

    for config in engine[:2]:  # fuzz the first two engine configs requested
        report = fuzz_app(
            args.app, graph, config, edits=edits,
            seeds=args.seeds, amplitude_ns=args.amplitude,
        )
        if not report.ok:
            failures += 1
        print(report.summary())
    if failures:
        print(f"check FAILED: {failures} failing cell(s)")
        return 1
    print("check PASSED")
    return 0


def _build_perf_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro perf",
        description=(
            "Run the wall-clock benchmark scenario (8 apps x engine presets "
            "x 2 datasets) and report cells/sec and sim-ns-per-wall-ms."
        ),
    )
    _add_size_arg(parser)
    parser.add_argument("--repeats", type=int, default=3, help="timed repeats (default 3)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-parallel workers (default: serial)",
    )
    parser.add_argument("--out", default=None, help="write the JSON report to this path")
    parser.add_argument(
        "--pre-wall-s",
        type=float,
        default=None,
        help=(
            "wall seconds of the identical scenario measured on the "
            "pre-optimization engine (records speedup_vs_pre in the report)"
        ),
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="compare against a committed BENCH_perf.json and print the delta",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "re-run the METRICS_CELLS subset untimed with a streaming "
            "MetricsSink and embed the summaries in the report"
        ),
    )
    _add_device_args(parser)
    return parser


def _run_perf(argv: list[str]) -> int:
    from repro.perf.bench import (
        format_report,
        load_report,
        run_bench,
        validate_report,
        write_report,
    )

    args = _build_perf_parser().parse_args(argv)
    doc = run_bench(
        size=args.size,
        repeats=args.repeats,
        workers=args.workers,
        pre_wall_s=args.pre_wall_s,
        metrics=args.metrics,
        devices=args.devices,
        partition=args.partition,
    )
    problems = validate_report(doc)
    print(format_report(doc))
    if args.out:
        write_report(doc, args.out)
        print(f"report -> {args.out}")
    if args.check_against:
        base = load_report(args.check_against)
        if base.get("size") != doc["size"]:
            print(f"baseline size {base.get('size')!r} != {doc['size']!r}; no comparison")
        else:
            # normalise by the calibration spin so a slower machine does
            # not read as an engine regression
            scale = doc["calibration_loop_ns"] / base["calibration_loop_ns"]
            normalized = doc["cells_per_s"] * scale
            ratio = normalized / base["cells_per_s"]
            print(
                f"vs {args.check_against}: {doc['cells_per_s']:.3f} cells/s "
                f"(normalized {normalized:.3f}) vs {base['cells_per_s']:.3f} "
                f"baseline -> {ratio:.2f}x"
            )
    if problems:
        print("report INVALID: " + "; ".join(problems))
        return 1
    return 0


def _build_metrics_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro metrics",
        description=(
            "Run one (app, dataset, config) cell with the streaming "
            "MetricsSink attached, print the sparkline dashboard, and "
            "optionally export the MetricsSummary (JSON), Prometheus text, "
            "JSONL or CSV."
        ),
    )
    parser.add_argument("app", nargs="?", help="application name")
    parser.add_argument("dataset", nargs="?", help="dataset name or alias")
    parser.add_argument(
        "--config",
        default="persist-warp",
        help="named Atos variant (default: persist-warp)",
    )
    _add_size_arg(parser)
    parser.add_argument("--out", default=None, help="write the MetricsSummary JSON here")
    parser.add_argument("--prom", default=None, help="write Prometheus text exposition here")
    parser.add_argument("--jsonl", default=None, help="write JSONL metric records here")
    parser.add_argument("--csv", default=None, help="write the time-series CSV here")
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help=(
            "instead of one cell, run the committed baseline sweep "
            "(repro.metrics.baseline.BASELINE_CELLS at --size, default tiny) "
            "and write the cell-keyed baseline document"
        ),
    )
    return parser


def _run_metrics(argv: list[str]) -> int:
    from repro.metrics import (
        collect_baseline,
        format_dashboard,
        series_csv,
        to_jsonl,
        to_prometheus,
        validate_baseline,
        validate_summary,
        write_summary,
    )
    from repro.service.jobs import execute_spec

    parser = _build_metrics_parser()
    args = parser.parse_args(argv)
    if args.write_baseline:
        size = args.size if "--size" in argv else "tiny"
        doc = collect_baseline(size=size)
        problems = validate_baseline(doc)
        if problems:
            print("baseline INVALID: " + "; ".join(problems))
            return 1
        write_summary(doc, args.write_baseline)
        print(
            f"baseline ({len(doc['cells'])} cells, size={size}) -> {args.write_baseline}"
        )
        return 0
    if not args.app or not args.dataset:
        parser.error("app and dataset are required (or --write-baseline)")
    spec = _spec_from_args(parser, args, args.config)
    summary = execute_spec(spec, metrics=True).extra["metrics"]
    problems = validate_summary(summary)
    print(format_dashboard(summary))
    if args.out:
        write_summary(summary, args.out)
        print(f"summary -> {args.out}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(to_prometheus(summary))
        print(f"prometheus -> {args.prom}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            fh.write(to_jsonl(summary))
        print(f"jsonl -> {args.jsonl}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(series_csv(summary))
        print(f"csv -> {args.csv}")
    if problems:
        print("summary INVALID: " + "; ".join(problems))
        return 1
    return 0


def _build_diff_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro diff",
        description=(
            "Compare two metrics documents (MetricsSummary, cell-keyed "
            "baseline, or BENCH_perf.json) with per-metric relative-delta "
            "thresholds; exits non-zero on regression.  The NEW document "
            "comes first, the BASE (anchor) second."
        ),
    )
    parser.add_argument("new", help="the candidate document (JSON path)")
    parser.add_argument(
        "base",
        nargs="?",
        default=None,
        help="the anchor document (default: BENCH_metrics_baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        action="append",
        default=None,
        metavar="METRIC=REL",
        help=(
            "per-metric relative-delta override, e.g. elapsed_ns=0.10 or "
            "'histograms.*=0.5' (repeatable)"
        ),
    )
    parser.add_argument(
        "--default-threshold",
        type=float,
        default=None,
        help="fallback relative-delta threshold (default 0.05)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print every compared metric"
    )
    return parser


def _run_diff(argv: list[str]) -> int:
    from repro.metrics.baseline import BASELINE_PATH
    from repro.metrics.diff import DEFAULT_THRESHOLD, diff_docs
    from repro.metrics.summary import load_summary

    args = _build_diff_parser().parse_args(argv)
    base_path = args.base or BASELINE_PATH
    thresholds = {}
    for spec in args.threshold or ():
        metric, _, value = spec.partition("=")
        if not value:
            _build_diff_parser().error(f"--threshold must be METRIC=REL, got {spec!r}")
        thresholds[metric] = float(value)
    report = diff_docs(
        load_summary(base_path),
        load_summary(args.new),
        thresholds=thresholds,
        default_threshold=(
            DEFAULT_THRESHOLD if args.default_threshold is None else args.default_threshold
        ),
        base_label=base_path,
        new_label=args.new,
    )
    print(report.format(verbose=args.verbose))
    return 0 if report.ok else 1


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro serve",
        description=(
            "Run the scheduler-as-a-service broker: an HTTP JSON API over "
            "the async job broker with content-addressed result caching "
            "(POST /v1/jobs, GET /v1/stats, GET /v1/traces, "
            "GET /dash, GET /metrics, GET /healthz)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--workers", type=int, default=4, help="broker worker count")
    parser.add_argument(
        "--no-tracing", action="store_true",
        help="disable span tracing (on by default; ~µs per job)",
    )
    parser.add_argument(
        "--trace-events", action="store_true",
        help="capture full engine event streams per traced job (expensive)",
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=256,
        help="retained traces before FIFO eviction (default 256)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="per-tenant queue bound; a full queue answers HTTP 429 (default 64)",
    )
    parser.add_argument(
        "--cache-mb", type=int, default=256, help="result cache byte budget in MiB"
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="per-attempt job timeout seconds"
    )
    parser.add_argument(
        "--attempts", type=int, default=3, help="max executions per job (default 3)"
    )
    fault = parser.add_argument_group("fault injection (testing only)")
    fault.add_argument("--fault-seed", type=int, default=0)
    fault.add_argument("--kill-prob", type=float, default=0.0)
    fault.add_argument("--delay-prob", type=float, default=0.0)
    fault.add_argument("--delay-s", type=float, default=0.0)
    fault.add_argument("--poison-prob", type=float, default=0.0)
    return parser


def _run_serve(argv: list[str]) -> int:
    import asyncio
    import signal

    from repro.service import Broker, BrokerConfig, FaultInjector, ServiceServer

    args = _build_serve_parser().parse_args(argv)
    config = BrokerConfig(
        workers=args.workers,
        tenant_queue_limit=args.queue_limit,
        cache_bytes=args.cache_mb * 1024 * 1024,
        job_timeout_s=args.timeout,
        max_attempts=args.attempts,
        tracing=not args.no_tracing,
        trace_events=args.trace_events,
        trace_capacity=args.trace_capacity,
        faults=FaultInjector(
            seed=args.fault_seed,
            kill_prob=args.kill_prob,
            delay_prob=args.delay_prob,
            delay_s=args.delay_s,
            poison_prob=args.poison_prob,
        ),
    )

    async def _serve() -> int:
        server = ServiceServer(Broker(config), host=args.host, port=args.port)
        try:
            port = await server.start()
        except OSError as exc:
            print(
                f"serve: cannot bind {args.host}:{args.port}: "
                f"{exc.strerror or exc} (is another server running?)",
                file=sys.stderr,
            )
            return 1
        print(
            f"repro service listening on http://{args.host}:{port}  "
            f"workers={args.workers} queue-limit={args.queue_limit} "
            f"cache={args.cache_mb}MiB "
            f"tracing={'off' if args.no_tracing else 'on'}",
            flush=True,
        )
        if not args.no_tracing:
            print(f"dashboard: http://{args.host}:{port}/dash", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await stop.wait()
        print("serve: draining (finishing accepted jobs) ...", flush=True)
        await server.stop()
        print("serve: drained, bye")
        return 0

    return asyncio.run(_serve())


def _build_submit_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro submit",
        description=(
            "Submit one job to a running repro service and print the result; "
            "or fetch the service stats document with --stats."
        ),
    )
    parser.add_argument("app", nargs="?", help="application name")
    parser.add_argument("dataset", nargs="?", help="dataset name or alias")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--config", default="persist-CTA")
    _add_size_arg(parser)
    parser.add_argument("--seed", type=int, default=0, help="schedule-perturbation seed")
    parser.add_argument("--edits", default=None, metavar="SPEC", help="dynamic edit script")
    _add_device_args(parser)
    parser.add_argument("--permuted", action="store_true")
    parser.add_argument("--tenant", default="default")
    parser.add_argument(
        "--job",
        default=None,
        metavar="JSON",
        help="full job object as JSON (overrides the positional/flag spec)",
    )
    parser.add_argument("--stats", action="store_true", help="print service stats and exit")
    parser.add_argument("--json", action="store_true", help="print the raw result document")
    parser.add_argument("--timeout", type=float, default=120.0, help="client timeout seconds")
    return parser


def _run_submit(argv: list[str]) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable

    parser = _build_submit_parser()
    args = parser.parse_args(argv)
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    if args.job is not None:
        try:
            job = json.loads(args.job)
        except json.JSONDecodeError as exc:
            print(f"submit: malformed --job JSON: {exc}", file=sys.stderr)
            return 2
    elif not args.stats:
        if not args.app or not args.dataset:
            parser.error("app and dataset are required (or use --job / --stats)")
        job = _spec_from_args(parser, args, args.config).to_dict()
    try:
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        doc = client.submit(job, tenant=args.tenant)
    except ServiceUnavailable as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    j = doc["job"]
    tag = " (cached)" if doc["cached"] else f" attempts={doc['attempts']}"
    print(
        f"{j['app']} on {j['dataset']} [{j['config']}] size={j['size']}: "
        f"digest={doc['digest']} elapsed={doc['elapsed_ms']:.3f} ms "
        f"wall={doc['wall_ms']:.3f} ms{tag}"
    )
    return 0


def _build_dash_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro dash",
        description=(
            "Write a static dashboard snapshot: capture a running service's "
            "live state (default), or render one traced engine run offline "
            "with --app/--dataset (no service needed)."
        ),
    )
    parser.add_argument(
        "--snapshot", default="dash.html", metavar="PATH",
        help="output HTML path (default: dash.html)",
    )
    live = parser.add_argument_group("live mode (capture a running service)")
    live.add_argument("--host", default="127.0.0.1")
    live.add_argument("--port", type=int, default=8321)
    live.add_argument(
        "--detail-limit", type=int, default=20,
        help="newest traces fetched in full for offline drill-down (default 20)",
    )
    off = parser.add_argument_group("offline mode (render one engine run)")
    off.add_argument("--app", default=None, help="application name (enables offline mode)")
    off.add_argument("--dataset", default=None, help="dataset name or alias")
    off.add_argument("--config", default="persist-CTA", help="named Atos variant")
    _add_size_arg(off)
    return parser


def _run_dash(argv: list[str]) -> int:
    from repro.dash import collector_snapshot, service_snapshot, write_snapshot

    parser = _build_dash_parser()
    args = parser.parse_args(argv)
    if args.app is not None:
        if not args.dataset:
            parser.error("--app needs --dataset (offline mode renders one run)")
        from repro.obs import Collector
        from repro.service.jobs import execute_spec

        spec = _spec_from_args(parser, args, args.config)
        sink = Collector()
        result = execute_spec(spec, sink=sink, metrics=True)
        snapshot = collector_snapshot(sink, result, config=spec.impl)
        path = write_snapshot(snapshot, args.snapshot)
        print(
            f"dash: {spec.app} on {spec.dataset} [{spec.impl}] size={spec.size}: "
            f"{len(sink.events)} events -> {path}"
        )
        return 0

    from repro.service.client import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.host, args.port)
    try:
        snapshot = service_snapshot(client, detail_limit=args.detail_limit)
    except ServiceUnavailable as exc:
        print(f"dash: {exc}", file=sys.stderr)
        return 1
    path = write_snapshot(snapshot, args.snapshot)
    traces = snapshot["traces"].get("traces", [])
    print(
        f"dash: captured {args.host}:{args.port} "
        f"({len(traces)} traces, {len(snapshot['details'])} in full) -> {path}"
    )
    return 0


def _build_service_bench_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro service-bench",
        description=(
            "Run the service load benchmark (cold misses, then a warm "
            "multi-tenant storm of concurrent clients against an in-process "
            "broker) and report latency, throughput and digest-match ratio."
        ),
    )
    _add_size_arg(parser)
    parser.add_argument("--clients", type=int, default=1000, help="warm-phase clients")
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default=None, help="write the JSON report to this path")
    parser.add_argument(
        "--check-against",
        default=None,
        help="diff against a committed BENCH_service.json (exits non-zero on regression)",
    )
    return parser


def _run_service_bench(argv: list[str]) -> int:
    from repro.service.bench import (
        format_service_report,
        load_service_report,
        run_service_bench,
        validate_service_report,
        write_service_report,
    )

    args = _build_service_bench_parser().parse_args(argv)
    doc = run_service_bench(
        size=args.size, clients=args.clients, tenants=args.tenants, workers=args.workers
    )
    problems = validate_service_report(doc)
    print(format_service_report(doc))
    if args.out:
        write_service_report(doc, args.out)
        print(f"report -> {args.out}")
    status = 0
    if args.check_against:
        from repro.metrics.diff import diff_docs

        report = diff_docs(
            load_service_report(args.check_against),
            doc,
            base_label=args.check_against,
            new_label="this run",
        )
        print(report.format())
        if not report.ok:
            status = 1
    if problems:
        print("report INVALID: " + "; ".join(problems))
        return 1
    return status


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return _run_trace(argv[1:])
    if argv and argv[0] == "perf":
        return _run_perf(argv[1:])
    if argv and argv[0] == "run":
        return _run_run(argv[1:])
    if argv and argv[0] == "check":
        return _run_check(argv[1:])
    if argv and argv[0] == "metrics":
        return _run_metrics(argv[1:])
    if argv and argv[0] == "diff":
        return _run_diff(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "submit":
        return _run_submit(argv[1:])
    if argv and argv[0] == "dash":
        return _run_dash(argv[1:])
    if argv and argv[0] == "service-bench":
        return _run_service_bench(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for key, exp in EXPERIMENTS.items():
            print(f"{key:16s} {exp.paper_artifact:24s} {exp.description}")
        return 0

    lab = Lab(size=args.size)
    if args.command == "table1":
        print(lab.format_table1(args.app))
    elif args.command == "table2":
        print(lab.format_table2())
    elif args.command == "table3":
        print(lab.format_table3())
    elif args.command == "table4":
        print(lab.format_table4(args.app))
    elif args.command == "fig":
        print(lab.format_figure(args.app, args.dataset))
    elif args.command == "sweep":
        print(lab.format_sweep(args.app, args.dataset))
    elif args.command == "permute":
        print(lab.format_permutation_study(SCALE_FREE))
    elif args.command == "report":
        from repro.harness.report import shape_report

        print(shape_report(lab))
    elif args.command == "all":
        print(lab.format_table2(), end="\n\n")
        for app in ("bfs", "pagerank", "coloring"):
            print(lab.format_table1(app), end="\n\n")
            print(lab.format_table4(app), end="\n\n")
        print(lab.format_table3(), end="\n\n")
        print(lab.format_permutation_study(SCALE_FREE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
