"""Sensitivity of the small-frontier advantage to kernel-launch cost.

The paper's guideline (2) — "if the application exhibits the small frontier
problem, it should be run with a persistent kernel" — rests on the fixed
per-kernel cost.  This ablation sweeps ``kernel_launch_ns`` and measures
the BSP-vs-persistent gap on a road network: as launches get cheaper the
gap must close, and with launches near zero the two models converge to the
same bandwidth-bound floor.  (No figure in the paper corresponds to this;
it is the model-level test of the paper's causal story.)
"""

from repro.analysis.tables import format_table
from repro.apps import bfs, run_app
from repro.core.config import PERSIST_CTA

LAUNCH_COSTS = (100.0, 1000.0, 5000.0, 20000.0)


def test_launch_cost_sensitivity(benchmark, lab, save_artifact):
    graph = lab.graph("road_usa")

    def sweep():
        rows = []
        for launch in LAUNCH_COSTS:
            spec = lab.spec.scaled(kernel_launch_ns=launch, barrier_ns=launch * 0.4)
            bsp = bfs.run_bsp(graph, spec=spec)
            atos = run_app("bfs", graph, PERSIST_CTA, spec=spec)
            rows.append(
                [
                    f"{launch / 1e3:.1f}",
                    f"{bsp.elapsed_ms:.3f}",
                    f"{atos.elapsed_ms:.3f}",
                    f"x{bsp.elapsed_ns / atos.elapsed_ns:.2f}",
                ]
            )
        return format_table(
            ["launch (us)", "BSP (ms)", "persist-CTA (ms)", "Atos adv."],
            rows,
            title="Ablation — small-frontier advantage vs kernel-launch cost (BFS, road_usa)",
        )

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact("ablation_launch_sensitivity", table)


def test_advantage_grows_with_launch_cost(lab):
    graph = lab.graph("road_usa")

    def gap(launch: float) -> float:
        spec = lab.spec.scaled(kernel_launch_ns=launch, barrier_ns=launch * 0.4)
        bsp = bfs.run_bsp(graph, spec=spec)
        atos = run_app("bfs", graph, PERSIST_CTA, spec=spec)
        return bsp.elapsed_ns / atos.elapsed_ns

    assert gap(20000.0) > gap(100.0)
