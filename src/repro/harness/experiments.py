"""Registry of reproducible paper artifacts.

Each :class:`Experiment` entry records what the paper reported, which
workload regenerates it, and which modules implement the pieces — the
machine-readable version of DESIGN.md's per-experiment index.  Benchmarks
look their experiment up here so the mapping lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Experiment", "EXPERIMENTS", "ALL_DATASETS", "SCALE_FREE", "MESH"]

ALL_DATASETS = (
    "soc-LiveJournal1",
    "hollywood-2009",
    "indochina-2004",
    "road_usa",
    "roadNet-CA",
)
SCALE_FREE = ALL_DATASETS[:3]
MESH = ALL_DATASETS[3:]

#: implementation matrix of Section 6.1, per application
TABLE1_IMPLS = {
    "bfs": ("BSP", "persist-warp", "persist-CTA", "discrete-CTA"),
    "pagerank": ("BSP", "persist-warp", "persist-CTA", "discrete-CTA"),
    "coloring": ("BSP", "persist-warp", "persist-CTA", "discrete-warp"),
}


@dataclass(frozen=True)
class Experiment:
    """One paper artifact and how to regenerate it."""

    key: str
    paper_artifact: str
    description: str
    datasets: tuple[str, ...]
    apps: tuple[str, ...]
    modules: tuple[str, ...]
    bench: str
    notes: str = ""
    parameters: dict = field(default_factory=dict)


EXPERIMENTS: dict[str, Experiment] = {
    exp.key: exp
    for exp in [
        Experiment(
            key="table1",
            paper_artifact="Table 1",
            description=(
                "Runtime and speedup of BSP vs three Atos variants for "
                "BFS, PageRank and graph coloring on five datasets"
            ),
            datasets=ALL_DATASETS,
            apps=("bfs", "pagerank", "coloring"),
            modules=(
                "repro.apps.bfs",
                "repro.apps.pagerank",
                "repro.apps.coloring",
                "repro.bsp.engine",
                "repro.core.policy",
            ),
            bench="benchmarks/bench_table1.py",
            parameters={"impls": TABLE1_IMPLS},
        ),
        Experiment(
            key="table2",
            paper_artifact="Table 2",
            description="Dataset summary: vertices, edges, diameter, degree stats",
            datasets=ALL_DATASETS,
            apps=(),
            modules=("repro.graph.datasets", "repro.graph.metrics"),
            bench="benchmarks/bench_table2.py",
            notes="Reports the synthetic stand-ins' stats next to the paper's",
        ),
        Experiment(
            key="table3",
            paper_artifact="Table 3",
            description="Per-(app, graph-class) BSP performance challenges",
            datasets=ALL_DATASETS,
            apps=("bfs", "pagerank", "coloring"),
            modules=("repro.analysis.challenges",),
            bench="benchmarks/bench_table3.py",
            notes="Derived from measured BSP traces, not transcribed",
        ),
        Experiment(
            key="table4",
            paper_artifact="Table 4",
            description=(
                "Workload ratios: Atos vs Gunrock for BFS/PageRank; "
                "assignments per vertex for coloring"
            ),
            datasets=ALL_DATASETS,
            apps=("bfs", "pagerank", "coloring"),
            modules=("repro.analysis.overwork",),
            bench="benchmarks/bench_table4.py",
        ),
        Experiment(
            key="fig1",
            paper_artifact="Figure 1",
            description="BFS normalized throughput vs timeline, 4 impls",
            datasets=ALL_DATASETS,
            apps=("bfs",),
            modules=("repro.sim.trace", "repro.analysis.throughput"),
            bench="benchmarks/bench_fig1.py",
        ),
        Experiment(
            key="fig2",
            paper_artifact="Figure 2",
            description="PageRank normalized throughput vs timeline",
            datasets=ALL_DATASETS,
            apps=("pagerank",),
            modules=("repro.sim.trace", "repro.analysis.throughput"),
            bench="benchmarks/bench_fig2.py",
        ),
        Experiment(
            key="fig3",
            paper_artifact="Figure 3",
            description="Graph coloring normalized throughput vs timeline",
            datasets=ALL_DATASETS,
            apps=("coloring",),
            modules=("repro.sim.trace", "repro.analysis.throughput"),
            bench="benchmarks/bench_fig3.py",
        ),
        Experiment(
            key="fig4",
            paper_artifact="Figure 4",
            description=(
                "Runtime heatmap over (worker size, fetch size) for BFS and "
                "PageRank on soc-LiveJournal1 and road_usa; lower triangle"
            ),
            datasets=("soc-LiveJournal1", "road_usa"),
            apps=("bfs", "pagerank"),
            modules=("repro.core.config", "repro.harness.runner"),
            bench="benchmarks/bench_fig4.py",
            parameters={
                "worker_sizes": (32, 64, 128, 256, 512),
                "fetch_sizes": (1, 4, 16, 64, 256),
            },
        ),
        Experiment(
            key="permute-gc",
            paper_artifact="Section 6.3 inline table",
            description=(
                "Graph-coloring runtimes before/after random vertex-id "
                "permutation, scale-free datasets"
            ),
            datasets=SCALE_FREE,
            apps=("coloring",),
            modules=("repro.graph.permute", "repro.apps.coloring"),
            bench="benchmarks/bench_permutation.py",
            parameters={"impls": ("discrete-warp", "persist-CTA", "BSP")},
        ),
        Experiment(
            key="kernel-strategy",
            paper_artifact="Section 6.5",
            description=(
                "Persistent vs discrete gap: mesh BFS and permuted "
                "indochina coloring (paper: ~4.3x)"
            ),
            datasets=("road_usa", "roadNet-CA", "indochina-2004"),
            apps=("bfs", "coloring"),
            modules=("repro.core.policy",),
            bench="benchmarks/bench_kernel_strategy.py",
        ),
        Experiment(
            key="queue-scaling",
            paper_artifact="Section 1 design claim",
            description=(
                "Single shared queue vs multi-queue: contention wait and "
                "runtime (ablation; the paper asserts one queue suffices)"
            ),
            datasets=("soc-LiveJournal1",),
            apps=("bfs",),
            modules=("repro.queueing.broker",),
            bench="benchmarks/bench_ablations.py",
        ),
    ]
}
