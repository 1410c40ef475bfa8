#!/usr/bin/env python3
"""Interference-graph coloring and the vertex-ordering trap.

Graph coloring's classic systems use-case is register allocation: variables
are vertices, overlapping live ranges are edges, and colors are registers.
This example uses the paper's third case study to color an interference-like
graph and demonstrates its sharpest finding (Section 6.3): *how* the
scheduler orders work changes the amount of speculative overwork by an
order of magnitude — and randomly permuting vertex ids largely erases the
difference.

Run:  python examples/register_allocation.py
"""

from repro import Lab
from repro.analysis.overwork import coloring_workload_ratio
from repro.check import validate
from repro.graph.permute import locality_score


def main() -> None:
    lab = Lab(size="small")
    ds = "soc-LiveJournal1"
    graph = lab.graph(ds)
    print(
        f"coloring {graph.name}: |V|={graph.num_vertices}, "
        f"|E|={graph.num_edges}, id-locality={locality_score(graph):.3f}\n"
    )

    print("implementation    colors  assignments/|V|  runtime(ms)  proper?")
    for impl in ("BSP", "persist-warp", "persist-CTA", "discrete-warp"):
        res = lab.run("coloring", ds, impl)
        ratio = coloring_workload_ratio(res, graph.num_vertices)
        ok = validate("coloring", graph, res.output).ok
        print(
            f"  {impl:14s}  {res.extra['num_colors']:5d}  {ratio:14.2f}  "
            f"{res.elapsed_ms:10.3f}  {ok}"
        )
    print()
    print(
        "persist-warp's completion-paced pops see nearly-fresh neighbor\n"
        "colors (assignments/|V| ~ 1.0); the discrete launch wave reads one\n"
        "stale snapshot in id order, so id-adjacent neighbors collide.\n"
    )

    # the fix the paper proposes: scramble the ids
    print(lab.format_permutation_study((ds,)))
    perm_graph = lab.graph(ds, permuted=True)
    print(
        f"\nid-locality after permutation: {locality_score(perm_graph):.3f} "
        f"(was {locality_score(graph):.3f})"
    )
    res = lab.run("coloring", ds, "discrete-warp", permuted=True)
    print(
        "discrete-warp overwork after permutation: "
        f"{coloring_workload_ratio(res, perm_graph.num_vertices):.2f} "
        "(paper: drops below 1.5 for every implementation)"
    )


if __name__ == "__main__":
    main()
