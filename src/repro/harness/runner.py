"""The experiment runner.

:class:`Lab` memoises application runs over the (app, dataset,
implementation) matrix and derives every table and figure from them, so a
full regeneration of the paper's evaluation section shares work across
artifacts.  All entry points return plain data structures plus a
``format_*`` companion that renders the paper-shaped ASCII table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.challenges import ChallengeReport, classify_challenges
from repro.analysis.overwork import coloring_workload_ratio, workload_ratio
from repro.analysis.tables import format_table
from repro.analysis.throughput import normalized_series, render_figure
from repro.apps.common import AppResult, get_adapter, run_app
from repro.graph.csr import Csr
from repro.graph.datasets import DATASETS, load_dataset
from repro.graph.metrics import compute_stats
from repro.graph.permute import permute_vertices
from repro.core.config import CONFIGS, AtosConfig, KernelStrategy
from repro.harness.experiments import ALL_DATASETS, TABLE1_IMPLS
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = ["Lab", "Table1Row"]


@dataclass(frozen=True)
class Table1Row:
    """One (app, dataset) row of Table 1."""

    app: str
    dataset: str
    graph_type: str
    bsp_ms: float
    atos_ms: dict  # impl -> runtime ms
    speedups: dict  # impl -> speedup over BSP


@dataclass
class Lab:
    """Caching experiment runner over the paper's evaluation matrix."""

    size: str = "default"
    spec: GpuSpec = field(default_factory=lambda: V100_SPEC)
    max_tasks: int = 20_000_000
    #: oracle-check every run's output (repro.check.oracles); wrong
    #: answers raise instead of silently feeding a table
    validate: bool = False
    #: stream telemetry on every engine-level run (repro.metrics): the
    #: MetricsSummary document lands in ``result.extra["metrics"]``
    metrics: bool = False
    #: simulate every engine-level run on N devices: rebases each config
    #: onto the distributed strategy (repro.core.distributed), keeping its
    #: name so cells stay comparable across device counts.  This CHANGES
    #: simulated results — it is the scaling study knob, not an
    #: equivalence knob.  None/1 leaves configs alone
    devices: int | None = None
    #: partition choice for ``devices`` > 1 (repro.graph.partition:
    #: "edge"/"vertex" or a method name); None keeps each config's own
    partition: str | None = None

    def __post_init__(self) -> None:
        self._graphs: dict[str, Csr] = {}
        self._results: dict[tuple, AppResult] = {}

    def _effective_config(self, config: AtosConfig) -> AtosConfig:
        """Apply the Lab-level device override to one configuration.

        BSP configs have no engine (and no queues to distribute), so they
        pass through untouched.
        """
        if not self.devices or self.devices <= 1:
            return config
        if config.strategy is KernelStrategy.BSP:
            return config
        overrides: dict = {
            "strategy": KernelStrategy.DISTRIBUTED,
            "devices": self.devices,
        }
        if self.partition is not None:
            overrides["partition"] = self.partition
        return config.with_overrides(**overrides)

    # ------------------------------------------------------------------
    def graph(self, dataset: str, *, permuted: bool = False) -> Csr:
        """Load (and cache) a dataset stand-in, optionally id-permuted."""
        key = f"{dataset}+perm" if permuted else dataset
        if key not in self._graphs:
            g = load_dataset(dataset, self.size)
            if permuted:
                g = permute_vertices(g, seed=42)
            self._graphs[key] = g
        return self._graphs[key]

    def run(self, app: str, dataset: str, impl: str, *, permuted: bool = False) -> AppResult:
        """Run (and cache) one cell of the evaluation matrix.

        ``impl`` is any named configuration from
        :data:`repro.core.config.CONFIGS` — ``"BSP"``, the paper's four Atos
        variants, or the hybrid extensions.
        """
        get_adapter(app)  # fail fast before loading the graph
        cache_key = (app, dataset, impl, permuted)
        if cache_key in self._results:
            return self._results[cache_key]
        if impl not in CONFIGS:
            raise KeyError(
                f"unknown implementation {impl!r}; known: {sorted(CONFIGS)}"
            )
        graph = self.graph(dataset, permuted=permuted)
        result = run_app(
            app,
            graph,
            self._effective_config(CONFIGS[impl]),
            spec=self.spec,
            max_tasks=self.max_tasks,
            validate=self.validate,
            metrics=self.metrics and CONFIGS[impl].strategy is not KernelStrategy.BSP,
        )
        self._stamp_metrics(result)
        self._results[cache_key] = result
        return result

    def _stamp_metrics(self, result: AppResult) -> None:
        """Fill the Lab-level identity (size) into a run's MetricsSummary."""
        summary = result.extra.get("metrics")
        if summary is not None:
            summary["size"] = self.size

    def run_grid(
        self,
        apps: tuple[str, ...] | list[str],
        datasets: tuple[str, ...] | list[str],
        impls: tuple[str, ...] | list[str],
        *,
        permuted: bool = False,
        workers: int | None = None,
    ) -> list:
        """Run the full apps x datasets x impls grid; see :meth:`run_cells`."""
        from repro.perf.parallel import SweepCell

        cells = [
            SweepCell(app, ds, impl, permuted)
            for app in apps
            for ds in datasets
            for impl in impls
        ]
        return self.run_cells(cells, workers=workers)

    def run_cells(self, cells, *, workers: int | None = None) -> list:
        """Run a list of :class:`~repro.perf.parallel.SweepCell`.

        Returns one entry per cell, in cell order: the
        :class:`~repro.apps.common.AppResult`, or a
        :class:`~repro.perf.parallel.CellError` if that cell raised.
        ``workers`` of ``None``/0/1 runs serially in this process through
        the Lab's memo; larger values fan out over a process pool (each
        worker keeps its own warm Lab) and fold the results back into
        this Lab's memo, so a parallel sweep primes later table calls
        exactly like a serial one.
        """
        from repro.perf.parallel import CellError, replay_cell, run_cells

        cells = list(cells)
        if not workers or workers <= 1:
            out = []
            for cell in cells:
                try:
                    if getattr(cell, "edits", None) is not None:
                        # dynamic cell: replay (never memoised) instead of
                        # run — the run memo's key has no edit script
                        out.append(replay_cell(cell, self))
                    else:
                        out.append(
                            self.run(cell.app, cell.dataset, cell.impl, permuted=cell.permuted)
                        )
                except Exception as exc:
                    import traceback as _tb

                    out.append(
                        CellError(
                            cell=cell,
                            kind=type(exc).__name__,
                            message=str(exc),
                            traceback="".join(
                                _tb.format_exception(type(exc), exc, exc.__traceback__)
                            ),
                        )
                    )
            return out
        results = run_cells(
            cells,
            size=self.size,
            spec=self.spec,
            max_tasks=self.max_tasks,
            validate=self.validate,
            workers=workers,
            devices=self.devices,
            partition=self.partition,
        )
        for cell, res in zip(cells, results):
            # dynamic cells must NOT be folded into the run memo: its key
            # (app, dataset, impl, permuted) has no edit script, so a later
            # static run() of the same coordinates would be served the
            # replay's final epoch (regression-pinned in tests/test_perf.py)
            if not isinstance(res, CellError) and getattr(cell, "edits", None) is None:
                self._results[(cell.app, cell.dataset, cell.impl, cell.permuted)] = res
        return results

    def run_config(
        self,
        app: str,
        dataset: str,
        config: AtosConfig,
        *,
        permuted: bool = False,
        sink=None,
        metrics=None,
    ) -> AppResult:
        """Run an arbitrary configuration (design-space sweeps).

        ``sink`` attaches an observability sink (:class:`repro.obs.Collector`)
        to the run; unlike :meth:`run`, nothing here is memoised, so the
        sink always observes a fresh execution.  ``metrics`` overrides the
        Lab-level default (``True``/``False`` or a pre-configured
        :class:`~repro.metrics.sink.MetricsSink`).
        """
        graph = self.graph(dataset, permuted=permuted)
        result = run_app(
            app,
            graph,
            self._effective_config(config),
            spec=self.spec,
            max_tasks=self.max_tasks,
            sink=sink,
            validate=self.validate,
            metrics=(
                self.metrics and config.strategy is not KernelStrategy.BSP
                if metrics is None
                else metrics
            ),
        )
        self._stamp_metrics(result)
        return result

    def collect(
        self,
        app: str,
        dataset: str,
        config: AtosConfig | str,
        *,
        permuted: bool = False,
        metrics=None,
        trace_id: str | None = None,
    ):
        """Run one cell with a fresh :class:`~repro.obs.Collector` attached.

        The observability entry point the ``trace`` and ``dash`` CLI
        commands (and the service's event-capture mode) share: returns
        ``(result, collector)`` from a never-memoised execution, so the
        collector saw every event of exactly this run.  ``trace_id``
        stamps the collector for correlation with a service trace.
        """
        from repro.obs.collector import Collector

        if isinstance(config, str):
            config = CONFIGS[config]
        collector = Collector(trace_id=trace_id)
        result = self.run_config(
            app, dataset, config, permuted=permuted, sink=collector, metrics=metrics
        )
        return result, collector

    def replay(
        self,
        app: str,
        dataset: str,
        config: AtosConfig | str,
        edits: str,
        *,
        sink=None,
        validate: bool | None = None,
        perturb=None,
        **params,
    ):
        """Replay an edit script through a dynamic app on a Lab dataset.

        The dynamic counterpart of :meth:`run_config`: resolves the graph
        through the Lab's dataset cache and size preset, then hands off to
        :func:`repro.apps.dynamic.replay_app`.  Never memoised — the
        kernel mutates across epochs, so every replay is fresh.
        """
        from repro.apps.dynamic import replay_app

        graph = self.graph(dataset)
        if isinstance(config, str):
            config = CONFIGS[config]
        return replay_app(
            app,
            graph,
            self._effective_config(config),
            edits,
            spec=self.spec,
            max_tasks=self.max_tasks,
            sink=sink,
            validate=self.validate if validate is None else validate,
            perturb=perturb,
            **params,
        )

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------
    def table1(self, app: str, datasets: tuple[str, ...] = ALL_DATASETS) -> list[Table1Row]:
        """Runtime + speedup rows for one application."""
        impls = TABLE1_IMPLS[app]
        rows = []
        for ds in datasets:
            base = self.run(app, ds, "BSP")
            atos_ms = {}
            speedups = {}
            for impl in impls[1:]:
                res = self.run(app, ds, impl)
                atos_ms[impl] = res.elapsed_ms
                speedups[impl] = res.speedup_over(base)
            rows.append(
                Table1Row(
                    app=app,
                    dataset=ds,
                    graph_type=DATASETS[ds].graph_type,
                    bsp_ms=base.elapsed_ms,
                    atos_ms=atos_ms,
                    speedups=speedups,
                )
            )
        return rows

    def format_table1(self, app: str, datasets: tuple[str, ...] = ALL_DATASETS) -> str:
        impls = TABLE1_IMPLS[app][1:]
        rows = self.table1(app, datasets)
        body = []
        for r in rows:
            cells = [f"{r.dataset} ({r.graph_type[0]})", f"{r.bsp_ms:.3f}"]
            for impl in impls:
                cells.append(f"{r.atos_ms[impl]:.3f} (x{r.speedups[impl]:.2f})")
            body.append(cells)
        return format_table(
            ["Dataset", "BSP (ms)", *impls],
            body,
            title=f"Table 1 — {app} (runtime ms, speedup vs BSP)",
        )

    # ------------------------------------------------------------------
    # Table 2
    # ------------------------------------------------------------------
    def table2(self, datasets: tuple[str, ...] = ALL_DATASETS) -> list:
        """Structural stats of the stand-ins (paper Table 2)."""
        return [compute_stats(self.graph(ds)) for ds in datasets]

    def format_table2(self, datasets: tuple[str, ...] = ALL_DATASETS) -> str:
        body = []
        for ds, stats in zip(datasets, self.table2(datasets)):
            info = DATASETS[ds]
            body.append(
                [
                    ds,
                    info.graph_type,
                    stats.num_vertices,
                    stats.num_edges,
                    stats.diameter,
                    stats.max_in_degree,
                    stats.max_out_degree,
                    round(stats.avg_degree, 1),
                    f"{info.paper_vertices}/{info.paper_edges}/d{info.paper_diameter}",
                ]
            )
        return format_table(
            [
                "Dataset",
                "Type",
                "Vertices",
                "Edges",
                "Diam.",
                "MaxIn",
                "MaxOut",
                "AvgDeg",
                "Paper(V/E/diam)",
            ],
            body,
            title="Table 2 — dataset stand-ins",
        )

    # ------------------------------------------------------------------
    # Table 3
    # ------------------------------------------------------------------
    def table3(self, datasets: tuple[str, ...] = ALL_DATASETS) -> list[ChallengeReport]:
        reports = []
        for app in ("bfs", "pagerank", "coloring"):
            for ds in datasets:
                base = self.run(app, ds, "BSP")
                reports.append(classify_challenges(self.graph(ds), base))
        return reports

    def format_table3(self, datasets: tuple[str, ...] = ALL_DATASETS) -> str:
        reports = self.table3(datasets)
        by_cell: dict[tuple[str, str], list[str]] = {}
        for r in reports:
            by_cell.setdefault((r.app, r.graph_type), []).append(r.label())
        body = []
        for gtype in ("scale-free", "mesh-like"):
            cells = [gtype]
            for app in ("bfs", "pagerank", "coloring"):
                labels = by_cell.get((app, gtype), [])
                # majority label across the class's datasets
                cells.append(max(set(labels), key=labels.count) if labels else "-")
            body.append(cells)
        return format_table(
            ["Graph class", "BFS", "PageRank", "Graph Coloring"],
            body,
            title="Table 3 — BSP performance challenges (derived)",
        )

    # ------------------------------------------------------------------
    # Table 4
    # ------------------------------------------------------------------
    def table4(self, app: str, datasets: tuple[str, ...] = ALL_DATASETS) -> list[dict]:
        """Workload ratios for one application."""
        rows = []
        for ds in datasets:
            base = self.run(app, ds, "BSP")
            row: dict[str, object] = {"dataset": ds}
            if app == "coloring":
                n = self.graph(ds).num_vertices
                row["BSP"] = coloring_workload_ratio(base, n)
                for impl in TABLE1_IMPLS[app][1:]:
                    row[impl] = coloring_workload_ratio(self.run(app, ds, impl), n)
            else:
                for impl in TABLE1_IMPLS[app][1:]:
                    row[impl] = workload_ratio(self.run(app, ds, impl), base)
            rows.append(row)
        return rows

    def format_table4(self, app: str, datasets: tuple[str, ...] = ALL_DATASETS) -> str:
        rows = self.table4(app, datasets)
        impls = [k for k in rows[0] if k != "dataset"]
        body = [[r["dataset"], *[f"{r[i]:.2f}" for i in impls]] for r in rows]
        unit = "assignments / |V|" if app == "coloring" else "work vs BSP"
        return format_table(
            ["Dataset", *impls],
            body,
            title=f"Table 4 — {app} workload ratio ({unit})",
        )

    # ------------------------------------------------------------------
    # Figures 1-3
    # ------------------------------------------------------------------
    def figure(self, app: str, dataset: str, *, bins: int = 60) -> list[tuple[str, object]]:
        """Normalized-throughput curves for one (app, dataset) panel."""
        impls = TABLE1_IMPLS[app]
        base = self.run(app, dataset, "BSP")
        results = {impl: self.run(app, dataset, impl) for impl in impls}
        end = max(r.elapsed_ns for r in results.values())
        curves = []
        for impl, res in results.items():
            if app == "coloring":
                over = coloring_workload_ratio(res, self.graph(dataset).num_vertices)
            elif impl == "BSP":
                over = 1.0
            else:
                over = workload_ratio(res, base)
            curves.append(
                (impl, normalized_series(res, max(over, 1e-9), bins=bins, end_time=end))
            )
        return curves

    def format_figure(self, app: str, dataset: str, *, bins: int = 60) -> str:
        curves = self.figure(app, dataset, bins=bins)
        fig_no = {"bfs": 1, "pagerank": 2, "coloring": 3}[app]
        return render_figure(
            f"Figure {fig_no} — {app} on {dataset}: normalized throughput vs time",
            curves,
        )

    # ------------------------------------------------------------------
    # Figure 4: design-space sweep
    # ------------------------------------------------------------------
    def sweep(
        self,
        app: str,
        dataset: str,
        *,
        worker_sizes: tuple[int, ...] = (32, 64, 128, 256, 512),
        fetch_sizes: tuple[int, ...] = (1, 4, 16, 64, 256),
        persistent: bool = True,
    ) -> np.ndarray:
        """Runtime (ms) heatmap over worker size x fetch size.

        Entries above the "lower triangle" (fetch_size > worker_threads)
        are NaN — matching the valid region of the paper's Figure 4.
        """
        out = np.full((len(worker_sizes), len(fetch_sizes)), np.nan)
        for i, w in enumerate(worker_sizes):
            for j, f in enumerate(fetch_sizes):
                if f > w:
                    continue  # outside the paper's valid triangle
                config = AtosConfig(
                    strategy=KernelStrategy.PERSISTENT if persistent else KernelStrategy.DISCRETE,
                    worker_threads=w,
                    fetch_size=f,
                    internal_lb=w > 32,
                    registers_per_thread=56 if persistent else 40,
                    name=f"{'persist' if persistent else 'discrete'}-{w}-{f}",
                )
                out[i, j] = self.run_config(app, dataset, config).elapsed_ms
        return out

    def format_sweep(
        self,
        app: str,
        dataset: str,
        *,
        worker_sizes: tuple[int, ...] = (32, 64, 128, 256, 512),
        fetch_sizes: tuple[int, ...] = (1, 4, 16, 64, 256),
    ) -> str:
        grid = self.sweep(app, dataset, worker_sizes=worker_sizes, fetch_sizes=fetch_sizes)
        body = []
        for i, w in enumerate(worker_sizes):
            row = [f"worker={w}"]
            for j in range(len(fetch_sizes)):
                v = grid[i, j]
                row.append("-" if np.isnan(v) else f"{v:.3f}")
            body.append(row)
        return format_table(
            ["", *[f"fetch={f}" for f in fetch_sizes]],
            body,
            title=f"Figure 4 — {app} on {dataset}: runtime (ms) heatmap",
        )

    # ------------------------------------------------------------------
    # Section 6.3 permutation study
    # ------------------------------------------------------------------
    def permutation_study(
        self, datasets: tuple[str, ...]
    ) -> list[dict]:
        """Coloring runtimes before/after random id permutation."""
        rows = []
        for ds in datasets:
            row: dict[str, object] = {"dataset": ds}
            for impl in ("discrete-warp", "persist-CTA", "BSP"):
                before = self.run("coloring", ds, impl, permuted=False)
                after = self.run("coloring", ds, impl, permuted=True)
                row[impl] = (before.elapsed_ms, after.elapsed_ms)
            rows.append(row)
        return rows

    def format_permutation_study(self, datasets: tuple[str, ...]) -> str:
        rows = self.permutation_study(datasets)
        body = []
        for r in rows:
            cells = [r["dataset"]]
            for impl in ("discrete-warp", "persist-CTA", "BSP"):
                before, after = r[impl]
                cells.append(f"{before:.3f} -> {after:.3f}")
            body.append(cells)
        return format_table(
            ["Dataset", "discrete-warp", "persist-CTA", "BSP"],
            body,
            title="Section 6.3 — coloring runtime (ms), before -> after id permutation",
        )
