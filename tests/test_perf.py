"""Tests for the repro.perf layer: bench harness, build cache, parallel sweeps.

Four satellite nets around the wall-clock performance layer:

* bench report schema + sanity (monotonic timestamps, nonzero throughput);
* an opt-in regression gate against the committed ``BENCH_perf.json``
  baseline (set ``REPRO_PERF_TEST=1``; normalised by the calibration spin
  so slower CI machines do not read as engine regressions);
* property tests for the graph build cache (cached == fresh, shared
  instance, mutation cannot poison the cache);
* parallel sweep equivalence (workers=N matches serial, order included)
  and per-cell crash surfacing;
* a cross-check that the specialised cost closures equal the reference
  ``task_cost`` bit-for-bit over randomised inputs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.apps.common import AppResult
from repro.graph.datasets import SIZES, load_dataset
from repro.harness.runner import Lab
from repro.perf.bench import (
    BENCH_SCHEMA,
    bench_cells,
    calibrate,
    format_report,
    run_bench,
    validate_report,
)
from repro.perf.buildcache import cache_clear, cache_info, cached_graph
from repro.perf.parallel import CellError, run_cells
from repro.service.jobs import RunSpec, execute_spec, result_digest
from repro.sim.cost import make_cost_fn, task_cost
from repro.sim.memory import BandwidthServer
from repro.sim.spec import V100_SPEC

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# bench harness
# ---------------------------------------------------------------------------
def test_bench_cells_cover_every_app():
    cells = bench_cells()
    assert len(cells) == 44
    apps = {c.app for c in cells}
    assert len(apps) == 8
    # kernel apps get all three presets, BSP-only apps exactly one
    from collections import Counter

    per_app = Counter(c.app for c in cells)
    assert per_app["delta-sssp"] == 2  # BSP x 2 datasets
    assert per_app["bfs"] == 6  # 3 presets x 2 datasets


def test_bench_report_schema_and_sanity():
    doc = run_bench(size="tiny", repeats=2)
    assert validate_report(doc) == []
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["cells"] == 44
    # nonzero throughput
    assert doc["cells_per_s"] > 0
    assert doc["sim_ns_per_wall_ms"] > 0
    # monotonic timestamps and repeat bookkeeping
    assert doc["t_end"] >= doc["t_start"]
    assert len(doc["wall_s_all"]) == 2
    assert doc["wall_s"] == min(doc["wall_s_all"])
    assert all(w > 0 for w in doc["wall_s_all"])
    assert doc["errors"] == []
    # the summary renders without raising
    assert "cells/s" in format_report(doc)
    # round-trips through JSON
    assert validate_report(json.loads(json.dumps(doc))) == []


def test_validate_report_flags_problems():
    doc = run_bench(size="tiny", repeats=1)
    assert validate_report(doc) == []
    bad = dict(doc)
    bad["cells_per_s"] = 0.0
    assert any("nonzero" in p for p in validate_report(bad))
    bad = dict(doc)
    bad["t_end"] = bad["t_start"] - 1.0
    assert any("monotonic" in p for p in validate_report(bad))
    bad = dict(doc)
    del bad["wall_s"]
    assert any("missing key" in p for p in validate_report(bad))
    bad = dict(doc)
    bad["wall_s_all"] = bad["wall_s_all"] + [0.1]
    assert any("repeats" in p for p in validate_report(bad))
    assert validate_report("not a dict") != []


def test_bench_pre_wall_records_speedup():
    doc = run_bench(size="tiny", repeats=1, pre_wall_s=123.0)
    assert doc["pre_wall_s"] == 123.0
    assert doc["speedup_vs_pre"] == pytest.approx(123.0 / doc["wall_s"])
    assert "speedup" in format_report(doc)


@pytest.mark.perf_regression
@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_TEST") != "1",
    reason="wall-clock regression gate is opt-in (REPRO_PERF_TEST=1)",
)
def test_no_regression_vs_committed_baseline():
    """Fail if the tier-1 bench scenario runs >25% slower than baseline.

    Throughput is normalised by the calibration spin (interpreter+numpy
    speed of the machine running the test) before comparing, so the gate
    measures engine efficiency, not machine weather.
    """
    baseline_path = REPO_ROOT / "BENCH_perf.json"
    assert baseline_path.exists(), "committed BENCH_perf.json baseline is missing"
    base = json.loads(baseline_path.read_text())
    assert validate_report(base) == []
    doc = run_bench(size=base["size"], repeats=3)
    assert validate_report(doc) == []
    scale = doc["calibration_loop_ns"] / base["calibration_loop_ns"]
    normalized_cps = doc["cells_per_s"] * scale
    floor = 0.75 * base["cells_per_s"]
    assert normalized_cps >= floor, (
        f"perf regression: {doc['cells_per_s']:.3f} cells/s "
        f"(normalized {normalized_cps:.3f}) < 75% of baseline "
        f"{base['cells_per_s']:.3f}"
    )


def test_committed_baseline_is_valid():
    """The checked-in BENCH_perf.json parses and passes the schema."""
    baseline_path = REPO_ROOT / "BENCH_perf.json"
    assert baseline_path.exists()
    base = json.loads(baseline_path.read_text())
    assert validate_report(base) == []
    assert base["size"] == "small"
    # the acceptance headline: >= 2x over the pre-optimization engine
    assert base.get("speedup_vs_pre", 0.0) >= 2.0


# ---------------------------------------------------------------------------
# build cache
# ---------------------------------------------------------------------------
def test_cached_build_equals_fresh_build():
    """Property: for random (name, size) keys the cached CSR equals a
    fresh bypass build, and repeat hits share one instance."""
    rng = np.random.default_rng(20260806)
    names = ["roadNet-CA", "road_usa", "soc-LiveJournal1", "hollywood-2009", "indochina-2004"]
    for _ in range(6):
        name = names[rng.integers(0, len(names))]
        size = "tiny"
        g1 = load_dataset(name, size)
        g2 = load_dataset(name, size)
        assert g1 is g2, "second load must hit the cache"
        from repro.graph.datasets import DATASETS, resolve_dataset

        fresh = DATASETS[resolve_dataset(name)].loader(size)  # bypasses the cache
        assert np.array_equal(g1.indptr, fresh.indptr)
        assert np.array_equal(g1.indices, fresh.indices)
        assert g1.name == fresh.name


def test_generator_cache_keys_include_all_parameters():
    from repro.graph.generators import grid_mesh, rmat

    a = rmat(6, edge_factor=4, seed=3)
    b = rmat(6, edge_factor=4, seed=3)
    c = rmat(6, edge_factor=4, seed=4)
    assert a is b
    assert c is not a
    assert not (
        np.array_equal(a.indptr, c.indptr) and np.array_equal(a.indices, c.indices)
    )
    m1 = grid_mesh(5, 4)
    m2 = grid_mesh(5, 4)
    m3 = grid_mesh(4, 5)
    assert m1 is m2
    assert m3 is not m1


def test_generator_cache_bypassed_for_live_rng_and_none_seed():
    from repro.graph.generators import rmat

    gen = np.random.default_rng(9)
    a = rmat(5, edge_factor=4, seed=gen)
    gen2 = np.random.default_rng(9)
    b = rmat(5, edge_factor=4, seed=gen2)
    assert a is not b  # no caching for live generators
    c = rmat(5, edge_factor=4, seed=None)
    d = rmat(5, edge_factor=4, seed=None)
    assert c is not d  # OS-entropy builds are never memoised


def test_mutation_cannot_poison_cache():
    """Cached graphs are read-only: writes raise, later borrowers are safe."""
    g = load_dataset("roadNet-CA", "tiny")
    with pytest.raises(ValueError):
        g.indices[0] = 12345
    with pytest.raises(ValueError):
        g.indptr[0] = 1
    again = load_dataset("roadNet-CA", "tiny")
    assert again is g
    assert again.indptr[0] == 0


def test_cached_graph_counters_and_clear():
    from repro.graph.generators import grid_mesh

    cache_clear()
    before = cache_info()
    assert (before.hits, before.misses, before.size) == (0, 0, 0)
    grid_mesh(3, 3)
    grid_mesh(3, 3)
    info = cache_info()
    assert info.misses >= 1 and info.hits >= 1
    cache_clear()
    assert cache_info().size == 0


def test_cached_graph_rejects_non_csr_builder():
    with pytest.raises(TypeError):
        cached_graph(("bogus", 1), lambda: "not a graph")


# ---------------------------------------------------------------------------
# parallel sweeps
# ---------------------------------------------------------------------------
GRID_APPS = ("bfs", "pagerank", "kcore")
GRID_IMPLS = ("persist-warp", "discrete-CTA")


def _result_key(res: AppResult):
    return (
        res.app,
        res.impl,
        res.dataset,
        res.elapsed_ns,
        res.work_units,
        res.items_retired,
        res.iterations,
    )


def test_parallel_grid_matches_serial():
    serial_lab = Lab(size="tiny")
    serial = serial_lab.run_grid(GRID_APPS, ("roadNet-CA",), GRID_IMPLS)
    parallel_lab = Lab(size="tiny")
    parallel = parallel_lab.run_grid(GRID_APPS, ("roadNet-CA",), GRID_IMPLS, workers=4)
    assert len(serial) == len(parallel) == len(GRID_APPS) * len(GRID_IMPLS)
    for s, p in zip(serial, parallel):
        assert isinstance(s, AppResult) and isinstance(p, AppResult)
        assert _result_key(s) == _result_key(p)
        assert np.array_equal(s.output, p.output)


def test_parallel_results_prime_lab_memo():
    lab = Lab(size="tiny")
    results = lab.run_grid(("bfs",), ("roadNet-CA",), ("persist-warp",), workers=2)
    assert isinstance(results[0], AppResult)
    # a follow-up serial call must hit the memo (same object back)
    assert lab.run("bfs", "roadNet-CA", "persist-warp") is results[0]


TINY = dict(size="tiny")


@pytest.mark.parametrize("workers", [None, 2])
def test_bad_cell_surfaces_as_cell_error(workers):
    """A failing cell yields a CellError in its slot; the rest complete."""
    cells = [
        RunSpec("bfs", "roadNet-CA", "persist-warp"),
        RunSpec("nosuchapp", "roadNet-CA", "persist-warp"),
        RunSpec("cc", "roadNet-CA", "persist-warp"),
    ]
    out = run_cells(cells, size="tiny", workers=workers)
    assert isinstance(out[0], AppResult)
    assert isinstance(out[1], CellError)
    assert out[1].kind == "KeyError"
    assert "nosuchapp" in out[1].message
    assert isinstance(out[2], AppResult)


def test_worker_crash_surfaces_not_hangs():
    """A worker process dying mid-cell becomes per-cell errors, not a hang."""
    cells = [
        RunSpec("bfs", "roadNet-CA", "persist-warp"),
        RunSpec("__kill_worker__", "roadNet-CA", "persist-warp"),
        RunSpec("cc", "roadNet-CA", "persist-warp"),
    ]
    out = run_cells(cells, size="tiny", workers=2)
    assert len(out) == 3
    # the poisoned cell reports an error (BrokenProcessPool when its
    # worker died, or the unknown-app KeyError if the guard fired first)
    assert isinstance(out[1], CellError)
    # and every other slot is either a result or an explicit error —
    # never missing, never reordered
    for cell, res in zip(cells, out):
        if isinstance(res, AppResult):
            assert res.app == cell.app


def test_run_cells_serial_matches_workers_zero_and_one():
    cells = [RunSpec("bfs", "roadNet-CA", "persist-warp")]
    for workers in (None, 0, 1):
        out = run_cells(cells, size="tiny", workers=workers)
        assert isinstance(out[0], AppResult)


def test_serial_run_cells_keeps_main_process_clean():
    """Regression: the serial path used to install a warm Lab into the
    caller's process that replayed memoised results across later serial
    sweeps.  Every call must re-simulate."""
    cells = [RunSpec("bfs", "roadNet-CA", "persist-warp")]
    first = run_cells(cells, size="tiny", workers=None)
    second = run_cells(cells, size="tiny", workers=None)
    # a second call re-simulates (fresh result object) and, the engine
    # being deterministic, lands on the same simulated clock
    assert isinstance(first[0], AppResult) and isinstance(second[0], AppResult)
    assert second[0] is not first[0]
    assert second[0].elapsed_ns == first[0].elapsed_ns


def test_dynamic_cells_never_touch_the_run_memo():
    """Regression: dynamic (edit-replay) cells used to fold their final
    epoch into the Lab run memo under a key with no edit script, so a
    sibling cell with a *different* edit script was silently served
    whichever replay happened to land first."""
    lab = Lab(size="tiny")
    cells = [
        RunSpec("bfs-inc", "roadNet-CA", "persist-CTA", edits="2x16@3", **TINY),
        RunSpec("bfs-inc", "roadNet-CA", "persist-CTA", edits="3x8@9", **TINY),
    ]
    out = lab.run_cells(cells, workers=2)
    assert all(isinstance(r, AppResult) for r in out)
    assert out[0].extra["replay_edits"] == "2x16@3"
    assert out[1].extra["replay_edits"] == "3x8@9"
    # epochs = the initial full run plus one incremental epoch per batch
    assert out[0].extra["replay_epochs"] == 3
    assert out[1].extra["replay_epochs"] == 4
    # distinct edit scripts are distinct workloads, not one memo slot
    assert out[0].elapsed_ns != out[1].elapsed_ns


def test_dynamic_cells_serial_matches_parallel():
    cells = [
        RunSpec("bfs-inc", "roadNet-CA", "persist-CTA", edits="2x16@3"),
        RunSpec("pagerank-inc", "roadNet-CA", "persist-CTA", edits="2x8@5"),
    ]
    serial = run_cells(cells, size="tiny", workers=None)
    parallel_out = run_cells(cells, size="tiny", workers=2)
    for s, p in zip(serial, parallel_out):
        assert isinstance(s, AppResult) and isinstance(p, AppResult)
        assert s.elapsed_ns == p.elapsed_ns
        assert np.array_equal(s.output, p.output)
        assert s.extra["replay_edits"] == p.extra["replay_edits"]


def test_static_run_after_dynamic_sweep_is_fresh():
    """The observable wrong answer the leak produced: a static run after
    a mixed sweep must equal a fresh-Lab reference, not the replay."""
    ref = Lab(size="tiny").run("bfs", "roadNet-CA", "persist-CTA")
    lab = Lab(size="tiny")
    mixed = [
        RunSpec("bfs-inc", "roadNet-CA", "persist-CTA", edits="2x16@3", **TINY),
        RunSpec("bfs", "roadNet-CA", "persist-warp", **TINY),
    ]
    out = lab.run_cells(mixed, workers=2)
    after = lab.run("bfs", "roadNet-CA", "persist-CTA")
    assert after.elapsed_ns == ref.elapsed_ns
    assert np.array_equal(after.output, ref.output)
    # the static sibling cell, by contrast, IS folded back into the memo
    assert lab.run("bfs", "roadNet-CA", "persist-warp") is out[1]


def test_dynamic_serial_cells_leave_no_warm_lab_behind():
    """Back-to-back serial replays share nothing: each equals its own
    fresh execute_spec reference."""
    for edits in ("2x16@3", "3x8@9"):
        spec = RunSpec("bfs-inc", "roadNet-CA", "persist-CTA", edits=edits, **TINY)
        [res] = run_cells([spec], workers=None)
        assert result_digest(res) == result_digest(execute_spec(spec))


# ---------------------------------------------------------------------------
# cost-closure equivalence (the engine's specialised hot path)
# ---------------------------------------------------------------------------
def test_make_cost_fn_matches_task_cost_bitwise():
    rng = np.random.default_rng(42)
    spec = V100_SPEC
    for worker_threads, use_lb in [(1, False), (32, False), (256, True), (64, False)]:
        mem_a = BandwidthServer(edges_per_ns=spec.mem_edges_per_ns)
        mem_b = BandwidthServer(edges_per_ns=spec.mem_edges_per_ns)
        fn = make_cost_fn(spec, mem_b, worker_threads=worker_threads, use_internal_lb=use_lb)
        start = 0.0
        for _ in range(300):
            num_items = int(rng.integers(0, 65))
            edge_sum = int(rng.integers(0, 5000)) if num_items else 0
            max_deg = int(rng.integers(0, 512)) if num_items else 0
            scale = 1.0 + float(rng.random()) * 0.05
            ref = task_cost(
                spec,
                mem_a,
                start=start,
                worker_threads=worker_threads,
                num_items=num_items,
                edge_counts_sum=edge_sum,
                max_degree=max_deg,
                use_internal_lb=use_lb,
                latency_scale=scale,
            ).finish_time
            got = fn(start, num_items, edge_sum, max_deg, scale)
            assert got == ref, (worker_threads, use_lb, num_items, edge_sum, max_deg)
            # the inlined reservation must leave identical server state
            assert mem_a._free_at == mem_b._free_at
            assert mem_a.total_edges == mem_b.total_edges
            assert mem_a.busy_time == mem_b.busy_time
            start += float(rng.random()) * 50.0


def test_bench_size_env_validation_fails_fast():
    """An invalid REPRO_BENCH_SIZE aborts the benchmark session up front,
    naming the knob and the accepted sizes — instead of dying minutes in
    with a bare ValueError from the first graph build."""
    import subprocess
    import sys

    env = dict(os.environ)
    env["REPRO_BENCH_SIZE"] = "enormous"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_wallclock.py", "-q", "--no-header"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    combined = proc.stdout + proc.stderr
    assert "REPRO_BENCH_SIZE" in combined
    for size in SIZES:
        assert size in combined  # the accepted-values list is printed
