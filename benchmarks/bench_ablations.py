"""Ablation benches for design decisions DESIGN.md calls out.

These go beyond the paper's tables: they measure the model knobs the paper
asserts qualitatively.

* **queue scaling** — the paper claims one shared queue is "fast enough";
  we measure runtime and contention wait across 1..8 physical queues.
* **worker size extremes** — thread vs warp vs CTA workers on an
  imbalanced graph (Section 3.2's false-dependency argument).
* **machine scaling** — the same workload on the scaled vs full V100 shape
  (documents what the default spec choice does).
"""

from repro.analysis.tables import format_table
from repro.apps import bfs, run_app
from repro.core.config import PERSIST_CTA, PERSIST_WARP, AtosConfig
from repro.sim.spec import FULL_V100_SPEC


def test_queue_scaling(benchmark, lab, save_artifact):
    graph = lab.graph("soc-LiveJournal1")

    def sweep():
        rows = []
        for nq in (1, 2, 4, 8):
            cfg = PERSIST_WARP.with_overrides(num_queues=nq, name=f"persist-warp-q{nq}")
            res = run_app("bfs", graph, cfg, spec=lab.spec)
            rows.append(
                [
                    nq,
                    f"{res.elapsed_ms:.3f}",
                    f"{res.extra['queue_contention_ns'] / 1e3:.1f}",
                ]
            )
        return format_table(
            ["queues", "runtime (ms)", "contention wait (us)"],
            rows,
            title="Ablation — shared-queue count (BFS, soc-LiveJournal1-sim)",
        )

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact("ablation_queue_scaling", table)

    # the single-queue claim: 1 queue is within 25% of the best
    times = {}
    for nq in (1, 8):
        cfg = PERSIST_WARP.with_overrides(num_queues=nq, name=f"persist-warp-q{nq}")
        times[nq] = run_app("bfs", graph, cfg, spec=lab.spec).elapsed_ns
    assert times[1] <= 1.25 * times[8]


def test_worker_size_extremes(benchmark, lab, save_artifact):
    graph = lab.graph("soc-LiveJournal1")
    configs = [
        AtosConfig(worker_threads=1, fetch_size=1, name="persist-thread"),
        PERSIST_WARP,
        PERSIST_CTA,
    ]

    def sweep():
        rows = []
        for cfg in configs:
            res = run_app("bfs", graph, cfg, spec=lab.spec)
            rows.append([cfg.name, f"{res.elapsed_ms:.3f}", res.extra["worker_slots"]])
        return format_table(
            ["worker", "runtime (ms)", "slots"],
            rows,
            title="Ablation — worker granularity (BFS, scale-free)",
        )

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    save_artifact("ablation_worker_size", table)

    # thread workers serialize high-degree vertices: worst of the three
    thread_t = run_app("bfs", graph, configs[0], spec=lab.spec).elapsed_ns
    cta_t = run_app("bfs", graph, PERSIST_CTA, spec=lab.spec).elapsed_ns
    assert cta_t < thread_t


def test_direction_optimized_baseline(benchmark, lab, save_artifact):
    """A stronger Gunrock stand-in: Beamer push/pull BFS.  On scale-free
    graphs the pull phase slashes the baseline's edge work, narrowing (or
    erasing) the Atos advantage — an honest upper bound on the baseline."""
    graph = lab.graph("soc-LiveJournal1")

    def measure():
        plain = bfs.run_bsp(graph, spec=lab.spec)
        do = bfs.run_bsp(graph, spec=lab.spec, direction_optimized=True)
        atos = run_app("bfs", graph, PERSIST_CTA, spec=lab.spec)
        return format_table(
            ["impl", "runtime (ms)", "edge work"],
            [
                ["BSP (push only)", f"{plain.elapsed_ms:.3f}", f"{plain.work_units:.0f}"],
                ["BSP direction-opt", f"{do.elapsed_ms:.3f}", f"{do.work_units:.0f}"],
                ["persist-CTA", f"{atos.elapsed_ms:.3f}", f"{atos.work_units:.0f}"],
            ],
            title="Ablation — direction-optimized baseline (BFS, scale-free)",
        )

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_artifact("ablation_direction_optimized", table)

    do = bfs.run_bsp(graph, spec=lab.spec, direction_optimized=True)
    plain = bfs.run_bsp(graph, spec=lab.spec)
    assert do.work_units < plain.work_units


def test_shared_queue_vs_work_stealing(benchmark, lab, save_artifact):
    """The Section 1 claim, measured directly: a single shared queue
    'balances load more quickly than a distributed queue'."""
    graph = lab.graph("soc-LiveJournal1")
    steal_cfg = PERSIST_WARP.with_overrides(
        worklist="stealing", num_queues=8, name="persist-warp-steal"
    )

    def measure():
        shared = run_app("bfs", graph, PERSIST_WARP, spec=lab.spec)
        steal = run_app("bfs", graph, steal_cfg, spec=lab.spec)
        return format_table(
            ["worklist", "runtime (ms)", "contention wait (us)"],
            [
                ["single shared queue", f"{shared.elapsed_ms:.3f}", f"{shared.extra['queue_contention_ns'] / 1e3:.1f}"],
                ["work-stealing deques", f"{steal.elapsed_ms:.3f}", f"{steal.extra['queue_contention_ns'] / 1e3:.1f}"],
            ],
            title="Ablation — shared queue vs work stealing (BFS, scale-free)",
        )

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_artifact("ablation_worklist_organisation", table)

    shared_t = run_app("bfs", graph, PERSIST_WARP, spec=lab.spec).elapsed_ns
    steal_t = run_app("bfs", graph, steal_cfg, spec=lab.spec).elapsed_ns
    # shared must be at least competitive (the paper's design choice)
    assert shared_t <= steal_t * 1.2


def test_machine_scaling(benchmark, lab, save_artifact):
    """Same workload, scaled-V100 (default) vs full-V100 shape."""
    graph = lab.graph("roadNet-CA")

    def measure():
        scaled = run_app("bfs", graph, PERSIST_CTA, spec=lab.spec)
        full = run_app("bfs", graph, PERSIST_CTA, spec=FULL_V100_SPEC)
        return format_table(
            ["machine", "runtime (ms)", "worker slots"],
            [
                [lab.spec.name, f"{scaled.elapsed_ms:.3f}", scaled.extra["worker_slots"]],
                [FULL_V100_SPEC.name, f"{full.elapsed_ms:.3f}", full.extra["worker_slots"]],
            ],
            title="Ablation — machine scale (BFS, roadNet-CA-sim)",
        )

    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    save_artifact("ablation_machine_scaling", table)
