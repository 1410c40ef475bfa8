#!/usr/bin/env python3
"""Network analysis with the extension apps: components, cores, MIS.

A small analytics pipeline over one graph — the kind of multi-kernel
workflow a downstream user composes out of the library:

1. **connected components** (min-label propagation) to find the graph's
   structure;
2. **k-core decomposition** (asynchronous peeling in a single persistent
   kernel) to rank vertices by engagement;
3. **maximal independent set** (speculative, lexicographic) to pick a
   scattered sample of vertices.

Every result is validated against its exact reference oracle.

Run:  python examples/network_analysis.py
"""

import numpy as np

from repro import PERSIST_WARP, load_dataset
from repro.apps import run_app
from repro.check import validate


def main() -> None:
    graph = load_dataset("soc-LiveJournal1", size="tiny")
    print(f"analysing {graph.name}: |V|={graph.num_vertices}, |E|={graph.num_edges}\n")

    comps = run_app("cc", graph, PERSIST_WARP)
    assert validate("cc", graph, comps.output).ok
    sizes = np.bincount(comps.output)
    sizes = np.sort(sizes[sizes > 0])[::-1]
    print(
        f"components: {comps.extra['num_components']} "
        f"(largest {sizes[0]} vertices, {comps.elapsed_ns / 1e3:.1f} us simulated)"
    )

    cores = run_app("kcore", graph, PERSIST_WARP)
    assert validate("kcore", graph, cores.output).ok
    print(
        f"k-core: max core {cores.extra['max_core']}; "
        f"core-size profile: "
        + ", ".join(
            f"{k}-core={int((cores.output >= k).sum())}"
            for k in range(0, cores.extra["max_core"] + 1, max(1, cores.extra["max_core"] // 4))
        )
    )

    sample = run_app("mis", graph, PERSIST_WARP)
    assert validate("mis", graph, sample.output).ok
    print(
        f"maximal independent set: {sample.extra['mis_size']} vertices "
        f"({sample.extra['mis_size'] / graph.num_vertices:.0%} of the graph), "
        f"{sample.work_units:.0f} speculative evaluations"
    )
    print("\nall three outputs validated against exact references")


if __name__ == "__main__":
    main()
