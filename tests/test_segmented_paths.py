"""Differential tests for the segmented multi-item kernel paths.

Every multi-item ``on_read`` / ``on_complete`` / ``final_check`` reads its
edges through one :meth:`repro.graph.csr.Csr.segments` gather and computes
all of its lanes' answers from that gather and the snapshot the lanes
share.  Each test keeps the per-vertex loop such a path replaced as a local
reference and checks, on random graphs with isolated vertices and a hub,
that both give the same payload (values, order and dtype) and leave the
same kernel state behind.  Batches carry degree-0 vertices, duplicate ids
and, for coloring, empty assign or check halves.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.bfs import SpeculativeBfsKernel
from repro.apps.cc import AsyncCcKernel
from repro.apps.coloring import AsyncColoringKernel, _min_available_color
from repro.apps.dynamic import IncrementalPageRankKernel
from repro.apps.kcore import AsyncKcoreKernel
from repro.apps.mis import IN, OUT, AsyncMisKernel
from repro.apps.pagerank import AsyncPageRankKernel
from repro.apps.sssp import SpeculativeSsspKernel
from repro.core.config import CONFIGS
from repro.core.policy import run_policy
from repro.graph.csr import from_edges

I64 = np.int64
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def hub_graphs(draw, max_vertices: int = 24):
    """A symmetric graph whose hub touches at least half the vertices and
    which has one to three isolated vertices."""
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    hub = draw(st.integers(min_value=0, max_value=n - 1))
    vertex = st.integers(min_value=0, max_value=n - 1)
    isolated = set(draw(st.lists(vertex.filter(lambda v: v != hub), min_size=1, max_size=3)))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    spokes = draw(st.lists(vertex, min_size=n // 2, max_size=n, unique=True))
    edges = [
        (u, v)
        for u, v in pairs + [(hub, s) for s in spokes]
        if u != v and u not in isolated and v not in isolated
    ]
    return from_edges(n, edges + [(v, u) for u, v in edges])


@st.composite
def cases(draw):
    """``(graph, batch, rng)``: a multi-item batch of vertex ids that holds
    a degree-0 vertex and a duplicate id, plus a seeded state generator."""
    g = draw(hub_graphs())
    vertex = st.integers(min_value=0, max_value=g.num_vertices - 1)
    batch = draw(st.lists(vertex, min_size=1, max_size=12))
    isolated = np.flatnonzero(g.out_degrees() == 0)
    batch.insert(draw(st.integers(0, len(batch))), int(isolated[0]))
    batch.insert(draw(st.integers(0, len(batch))), batch[0])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return g, np.asarray(batch, dtype=I64), rng


def assert_same(got, want):
    """Equal values, order and dtype (payload tuples element-wise)."""
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
        return
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        return
    assert type(got) is type(want) and got == want


def assert_same_state(a, b, *names):
    for name in names:
        assert_same(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# The gather itself
# ---------------------------------------------------------------------------

def segments_ref(g, items):
    """One edge at a time: source position, CSR offset, and degrees."""
    pos, flat = [], []
    for i, v in enumerate(items):
        for e in range(g.indptr[v], g.indptr[v + 1]):
            pos.append(i)
            flat.append(e)
    degrees = np.asarray([g.degree(int(v)) for v in items], dtype=I64)
    return np.asarray(pos, dtype=I64), np.asarray(flat, dtype=I64), degrees


@PROPERTY
@given(cases())
def test_segments_matches_per_vertex_walk(case):
    g, items, _ = case
    assert_same(g.segments(items), segments_ref(g, items))
    src, dst = g.gather_neighbors(items)
    pos, flat, _ = segments_ref(g, items)
    assert_same((src, dst), (items[pos], g.indices[flat]))


def test_segments_of_an_empty_batch():
    g = from_edges(3, [(0, 1), (1, 0)])
    pos, flat, degrees = g.segments(np.empty(0, dtype=I64))
    assert pos.size == flat.size == degrees.size == 0


# ---------------------------------------------------------------------------
# Coloring: minimum-excluded color per assign lane, lower-id conflict per
# check lane
# ---------------------------------------------------------------------------

def coloring_on_read_ref(k, items):
    g = k.graph
    assign_vs, check_vs = k.decode(items)
    chosen = np.empty(assign_vs.size, dtype=I64)
    for i, v in enumerate(assign_vs):
        nbrs = g.neighbors(v)
        chosen[i] = _min_available_color(k.colors[nbrs], nbrs.size)
    conflicted = np.zeros(check_vs.size, dtype=bool)
    for i, v in enumerate(check_vs):
        nbrs = g.neighbors(v)
        conflicted[i] = bool(np.any((k.colors[nbrs] == k.colors[v]) & (nbrs < v)))
    return (assign_vs, chosen, check_vs, conflicted)


@PROPERTY
@given(cases(), st.sampled_from(["mixed", "assign", "check"]))
def test_coloring_on_read_matches_per_vertex_loop(case, halves):
    g, vs, rng = case
    k = AsyncColoringKernel(g)
    # colors past a vertex's degree and UNCOLORED both occur
    k.colors[:] = rng.integers(-1, int(g.out_degrees().max()) + 3, size=g.num_vertices)
    sign = {"mixed": rng.choice([-1, 1], size=vs.size), "assign": 1, "check": -1}[halves]
    items = sign * (vs + 1)
    ref = copy.deepcopy(k)
    assert_same(k.on_read(items, 0.0), coloring_on_read_ref(ref, items))
    assert_same_state(k, ref, "colors")


# ---------------------------------------------------------------------------
# MIS: on_read, on_complete and final_check
# ---------------------------------------------------------------------------

def mis_evaluate_ref(k, v):
    nbrs = k.graph.neighbors(v)
    return OUT if k.status[nbrs[nbrs < v]].any() else IN


def mis_on_read_ref(k, items):
    k.in_queue[items] = False
    decided = np.empty(items.size, dtype=np.int8)
    for i, v in enumerate(items):
        decided[i] = mis_evaluate_ref(k, int(v))
    return decided


def mis_on_complete_ref(k, items, decided):
    k.evaluations += int(items.size)
    changed = items[k.status[items] != decided]
    k.status[items] = decided
    pushes = []
    for v in changed:
        nbrs = k.graph.neighbors(int(v))
        bigger = nbrs[nbrs > v]
        fresh = bigger[~k.in_queue[bigger]]
        if fresh.size:
            k.in_queue[fresh] = True
            pushes.append(fresh.astype(I64))
    return np.concatenate(pushes) if pushes else np.empty(0, dtype=I64)


def mis_final_check_ref(k):
    bad = [v for v in range(k.graph.num_vertices) if k.status[v] != mis_evaluate_ref(k, v)]
    arr = np.asarray(bad, dtype=I64)
    k.in_queue[arr] = True
    return arr


def random_mis(g, rng):
    k = AsyncMisKernel(g)
    k.status[:] = rng.integers(0, 2, size=g.num_vertices)
    k.in_queue[:] = rng.random(g.num_vertices) < 0.3
    return k


@PROPERTY
@given(cases())
def test_mis_on_read_matches_per_vertex_loop(case):
    g, items, rng = case
    k = random_mis(g, rng)
    ref = copy.deepcopy(k)
    assert_same(k.on_read(items, 0.0), mis_on_read_ref(ref, items))
    assert_same_state(k, ref, "in_queue", "status")


@PROPERTY
@given(cases())
def test_mis_on_complete_matches_per_vertex_loop(case):
    g, items, rng = case
    k = random_mis(g, rng)
    # lanes of one task decide from one snapshot: duplicates agree
    decided = rng.integers(0, 2, size=g.num_vertices).astype(np.int8)[items]
    ref = copy.deepcopy(k)
    got = k.on_complete(items, decided, 0.0)
    assert_same(got.new_items, mis_on_complete_ref(ref, items, decided))
    assert_same_state(k, ref, "in_queue", "status", "evaluations")


def test_mis_on_complete_pushes_a_shared_neighbor_once_at_its_first_position():
    # changed vertices 1 then 0 share the larger neighbor 3
    g = from_edges(5, [(0, 3), (3, 0), (0, 4), (4, 0), (1, 2), (2, 1), (1, 3), (3, 1)])
    k = AsyncMisKernel(g)
    k.in_queue[:] = False
    items = np.asarray([1, 0], dtype=I64)
    decided = np.full(2, IN, dtype=np.int8)
    ref = copy.deepcopy(k)
    got = k.on_complete(items, decided, 0.0)
    assert got.new_items.tolist() == [2, 3, 4]
    assert_same(got.new_items, mis_on_complete_ref(ref, items, decided))
    assert_same_state(k, ref, "in_queue", "status")


@pytest.mark.parametrize("seed", range(6))
def test_mis_final_check_on_a_corrupted_status(seed):
    rng = np.random.default_rng(seed)
    g = from_edges(40, [(u, v) for u, v in rng.integers(0, 40, size=(80, 2)) if u != v])
    g = g.symmetrize()
    k = AsyncMisKernel(g)
    run_policy(k, CONFIGS["discrete-CTA"])
    assert k.final_check(0.0).size == 0  # the fixed point is consistent
    flip = rng.random(g.num_vertices) < 0.25
    k.status[flip] ^= 1
    k.in_queue[:] = False
    ref = copy.deepcopy(k)
    got = k.final_check(0.0)
    want = mis_final_check_ref(ref)
    assert got.size and np.all(np.diff(got) > 0)
    assert_same(got, want)
    assert_same_state(k, ref, "in_queue")


# ---------------------------------------------------------------------------
# Candidate-pushing kernels: bfs, cc, sssp, pagerank(-inc); kcore peeling
# ---------------------------------------------------------------------------

def relax_ref(k, items, own, edge_value):
    """Per-vertex relaxation: for each item in order, each neighbor whose
    value the item's candidate beats (as of the read) is kept."""
    g = k.graph
    nbrs, cands, work = [], [], 0
    for v in items:
        for e in range(g.indptr[v], g.indptr[v + 1]):
            w = g.indices[e]
            cand = edge_value(own[v], e)
            work += 1
            if cand < own[w]:
                nbrs.append(w)
                cands.append(cand)
    dtype = own.dtype
    return (np.asarray(nbrs, dtype=I64), np.asarray(cands, dtype=dtype), work)


@PROPERTY
@given(cases())
def test_bfs_on_read_matches_per_vertex_loop(case):
    g, items, rng = case
    k = SpeculativeBfsKernel(g, 0)
    k.depth[:] = rng.integers(0, 2 * g.num_vertices, size=g.num_vertices)
    want = relax_ref(k, items, k.depth.copy(), lambda d, e: d + 1)
    assert_same(k.on_read(items, 0.0), want)


@PROPERTY
@given(cases())
def test_cc_on_read_matches_per_vertex_loop(case):
    g, items, rng = case
    k = AsyncCcKernel(g)
    k.labels[:] = rng.integers(0, g.num_vertices, size=g.num_vertices)
    want = relax_ref(k, items, k.labels.copy(), lambda label, e: label)
    assert_same(k.on_read(items, 0.0), want)


@PROPERTY
@given(cases())
def test_sssp_on_read_matches_per_vertex_loop(case):
    g, items, rng = case
    k = SpeculativeSsspKernel(g, rng.uniform(0.5, 2.0, size=g.num_edges), 0)
    dist = rng.uniform(0.0, 6.0, size=g.num_vertices)
    dist[rng.random(g.num_vertices) < 0.2] = np.inf
    k.dist[:] = dist
    want = relax_ref(k, items, dist, lambda d, e: d + k.weights[e])
    assert_same(k.on_read(items, 0.0), want)
    # the scalar fast path agrees with the same walk
    one = items[:1]
    assert_same(k.on_read(one, 0.0), relax_ref(k, one, dist, lambda d, e: d + k.weights[e]))


def pagerank_on_read_ref(k, items, claims):
    """Per-vertex claim: the first copy of a vertex takes its residue, later
    copies take zero; a claiming vertex with edges pushes to each neighbor."""
    g = k.graph
    nbrs, contrib, work = [], [], 0
    taken = set()
    for v in items:
        v = int(v)
        res = 0.0 if v in taken else k.residue[v]
        taken.add(v)
        k.residue[v] = 0.0
        k.rank[v] += res
        k.scan_threshold[v] = k.epsilon
        deg = g.degree(v)
        if claims(res) and deg:
            share = k.lam * res / deg
            for w in g.neighbors(v):
                nbrs.append(w)
                contrib.append(share)
            work += deg
    return (np.asarray(nbrs, dtype=I64), np.asarray(contrib, dtype=np.float64), work)


@PROPERTY
@given(cases(), st.sampled_from(["static", "incremental"]))
def test_pagerank_on_read_matches_per_vertex_loop(case, variant):
    g, items, rng = case
    if variant == "static":
        k, claims = AsyncPageRankKernel(g), (lambda r: r > 0.0)
        k.residue[:] = rng.choice([0.0, 0.01, 0.2, 0.7], size=g.num_vertices)
    else:
        k, claims = IncrementalPageRankKernel(g), (lambda r: r != 0.0)
        k.residue[:] = rng.choice([-0.3, 0.0, 0.01, 0.7], size=g.num_vertices)
    ref = copy.deepcopy(k)
    assert_same(k.on_read(items, 0.0), pagerank_on_read_ref(ref, items, claims))
    assert_same_state(k, ref, "residue", "rank", "scan_threshold")


@PROPERTY
@given(cases())
def test_kcore_on_complete_matches_per_vertex_loop(case):
    g, items, rng = case
    k = AsyncKcoreKernel(g)
    k.k = int(rng.integers(1, 5))
    k.in_queue[items] = True
    fresh = k.on_read(items, 0.0)
    ref = copy.deepcopy(k)
    got = k.on_complete(items, fresh, 0.0)
    # reference: decrement every neighbor of every peeled vertex in turn
    ref.in_queue[items] = False
    touched = []
    for v in fresh:
        for w in g.neighbors(int(v)):
            ref.eff_degree[w] -= 1
            touched.append(w)
    cand = np.unique(np.asarray(touched, dtype=I64))
    ready = cand[(ref.core[cand] < 0) & (ref.eff_degree[cand] < ref.k) & ~ref.in_queue[cand]]
    ref.in_queue[ready] = True
    assert_same(got.new_items, ready)
    assert got.work_units == float(len(touched))
    assert_same_state(k, ref, "eff_degree", "in_queue", "core")
