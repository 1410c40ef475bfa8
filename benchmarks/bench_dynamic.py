"""Incremental vs. full-recompute vs. BSP: the dynamic-graph crossover.

The arXiv Atos framing: when the graph mutates in batches, a task-parallel
scheduler can *repair* from the previous fixpoint instead of recomputing.
This ladder measures, per edit epoch on R-MAT graphs, three ways to get
the epoch's answer:

* **incremental** — the ``*-inc`` kernel rebased onto the new snapshot
  (:func:`repro.apps.common.replay_app`, per-epoch elapsed);
* **recompute** — the static Atos kernel from scratch on the snapshot;
* **BSP** — the bulk-synchronous baseline from scratch on the snapshot.

The ladder climbs the edit-batch size: small batches are where repair
shines (the invalid region is tiny), and the advantage narrows as the
batch grows toward "everything changed" — the crossover.  Honest negative
included: CC repair sits at parity on R-MAT, because deleting any edge of
the giant component resets (and re-solves) the whole component.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.apps.common import replay_app, run_app
from repro.core.config import CONFIGS
from repro.graph.generators import rmat

#: the ladder: edit batches per epoch, small -> large
EDIT_LADDER = ("4x16@7", "4x64@7", "4x256@7")
APPS = (("bfs-inc", "bfs", {"source": 0}), ("cc-inc", "cc", {}), ("pagerank-inc", "pagerank", {}))


def _rmat_preset(scale: int, edge_factor: int):
    g = rmat(scale, edge_factor=edge_factor, seed=7, name=f"rmat{scale}")
    return g if g.is_symmetric() else g.symmetrize()


def _ladder_cell(app, static_app, graph, edits, **params):
    """Summed repair-epoch elapsed for the three strategies (sim ns)."""
    dres = replay_app(app, graph, CONFIGS["persist-CTA"], edits, **params)
    inc = atos = bsp = 0.0
    for e in dres.epochs[1:]:  # epoch 0 is the same cold solve for all three
        inc += e.result.elapsed_ns
        atos += run_app(static_app, e.graph, CONFIGS["persist-CTA"], **params).elapsed_ns
        bsp += run_app(static_app, e.graph, CONFIGS["BSP"], **params).elapsed_ns
    return inc, atos, bsp


def test_dynamic_crossover_ladder(benchmark, save_artifact):
    graph = _rmat_preset(10, 8)

    def ladder_table():
        rows = []
        for app, static_app, params in APPS:
            for edits in EDIT_LADDER:
                inc, atos, bsp = _ladder_cell(app, static_app, graph, edits, **params)
                rows.append([
                    app, edits,
                    f"{inc / 1e3:.1f}", f"{atos / 1e3:.1f}", f"{bsp / 1e3:.1f}",
                    f"{atos / inc:.2f}x", f"{bsp / atos:.2f}x",
                ])
        return format_table(
            ["App", "edits", "incremental (us)", "recompute (us)", "BSP (us)",
             "repair speedup", "BSP vs recompute"],
            rows,
            title=f"Dynamic crossover — {graph.name}, repair epochs summed",
        )

    table = benchmark.pedantic(ladder_table, rounds=1, iterations=1)
    save_artifact("dynamic_crossover", table)


def test_incremental_beats_recompute_where_bsp_does_not():
    """The acceptance cell: on an R-MAT preset, repair beats a from-scratch
    Atos recompute while the BSP baseline loses to that same recompute."""
    graph = _rmat_preset(10, 8)
    inc, atos, bsp = _ladder_cell("bfs-inc", "bfs", graph, "4x16@7", source=0)
    assert inc < atos, f"repair {inc:.0f} ns did not beat recompute {atos:.0f} ns"
    assert bsp > atos, f"BSP {bsp:.0f} ns unexpectedly beat Atos recompute {atos:.0f} ns"


def test_repair_advantage_shrinks_with_batch_size():
    """The crossover direction: bigger edit batches erode the repair win."""
    graph = _rmat_preset(10, 8)
    ratios = []
    for edits in EDIT_LADDER:
        inc, atos, _ = _ladder_cell("bfs-inc", "bfs", graph, edits, source=0)
        ratios.append(atos / inc)
    assert ratios[0] > ratios[-1] > 1.0, ratios


def test_pagerank_repair_wins_and_cc_sits_at_parity():
    """PageRank's invariant-restoring rebase is the biggest winner; CC is
    the honest negative — component-local reset means R-MAT deletes (which
    almost always land in the giant component) re-solve nearly everything."""
    graph = _rmat_preset(8, 6)
    pr_inc, pr_atos, _ = _ladder_cell("pagerank-inc", "pagerank", graph, "4x16@7")
    assert pr_inc < 0.8 * pr_atos
    cc_inc, cc_atos, cc_bsp = _ladder_cell("cc-inc", "cc", graph, "4x16@7")
    assert 0.8 * cc_atos < cc_inc < 1.2 * cc_atos  # parity, not a win
    assert cc_inc < cc_bsp  # still far ahead of per-epoch BSP
