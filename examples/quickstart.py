#!/usr/bin/env python3
"""Quickstart: run speculative BFS under the Atos scheduler.

This walks the three layers of the public API:

1. load a graph (one of the paper's dataset stand-ins);
2. launch an application kernel through the ``Atos`` façade, exactly like
   the paper's Listing 4 (``launchWarp(BFSWarp(), ...)``);
3. compare against the Gunrock-style BSP baseline with the ``Lab`` runner.

Run:  python examples/quickstart.py
"""

from repro import Atos, Lab, load_dataset
from repro.apps import bfs
from repro.apps.bfs import SpeculativeBfsKernel
from repro.check import validate


def main() -> None:
    # 1. a scaled-down stand-in for soc-LiveJournal1 (scale-free)
    graph = load_dataset("soc-LiveJournal1", size="small")
    print(f"graph: {graph.name}, |V|={graph.num_vertices}, |E|={graph.num_edges}")

    # 2. the Listing-3-style API: build a task kernel, launch warp workers
    atos = Atos()
    kernel = SpeculativeBfsKernel(graph, source=0)
    result = atos.launch_warp(kernel, persistent=True)
    reached = int((kernel.depth < bfs.UNREACHED).sum())
    print(
        f"persistent warp launch: {result.elapsed_ns / 1e6:.3f} ms simulated, "
        f"{result.total_tasks} tasks, {reached} vertices reached, "
        f"{result.worker_slots} resident workers"
    )
    assert validate("bfs", graph, kernel.depth).ok, "BFS depths must be exact"

    # same kernel logic, CTA-sized workers with in-worker load balancing
    kernel2 = SpeculativeBfsKernel(graph, source=0)
    result2 = atos.launch_cta(kernel2, fetch_size=64, num_threads=256)
    print(
        f"persistent CTA launch:  {result2.elapsed_ns / 1e6:.3f} ms simulated, "
        f"{result2.total_tasks} tasks"
    )

    # 3. the full Table-1 comparison on two datasets via the Lab runner
    lab = Lab(size="small")
    print()
    print(lab.format_table1("bfs", ("soc-LiveJournal1", "roadNet-CA")))


if __name__ == "__main__":
    main()
