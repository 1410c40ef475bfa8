"""Property-based tests on application invariants (hypothesis).

These are the load-bearing correctness guarantees of the reproduction:

* speculative BFS computes *exact* shortest-path depths on any graph and
  any scheduler configuration (the label-correcting argument);
* asynchronous coloring always terminates with a *proper* coloring;
* asynchronous PageRank conserves rank mass exactly (rank + residue is
  invariant up to float error) and converges below epsilon.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps import bfs, coloring, pagerank, run_app
from repro.core.config import AtosConfig, KernelStrategy
from repro.graph.csr import from_edges
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


@st.composite
def symmetric_graphs(draw, max_vertices=30, max_edges=90):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    edges = [(u, v) for u, v in pairs if u != v]
    edges += [(v, u) for u, v in edges]
    return from_edges(n, edges if edges else [(0, 1), (1, 0)])


@st.composite
def atos_configs(draw):
    persistent = draw(st.booleans())
    worker = draw(st.sampled_from([1, 32, 128, 256]))
    fetch = draw(st.sampled_from([1, 2, 8, 32]))
    return AtosConfig(
        strategy=KernelStrategy.PERSISTENT if persistent else KernelStrategy.DISCRETE,
        worker_threads=worker,
        fetch_size=fetch,
        internal_lb=worker > 32,
        name="prop",
    )


@given(symmetric_graphs(), atos_configs(), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_speculative_bfs_always_exact(graph, config, seed):
    source = seed % graph.num_vertices
    res = run_app("bfs", graph, config, source=source, spec=SPEC)
    assert bfs.validate_depths(graph, res.output, source)


@given(symmetric_graphs(), atos_configs())
@settings(max_examples=40, deadline=None)
def test_async_coloring_always_proper(graph, config):
    res = run_app("coloring", graph, config, spec=SPEC)
    assert coloring.validate_coloring(graph, res.output)
    # greedy bound
    assert res.output.max() <= graph.out_degrees().max()


@given(symmetric_graphs())
@settings(max_examples=25, deadline=None)
def test_async_pagerank_mass_conservation_and_convergence(graph):
    eps = 1e-5
    kernel = pagerank.AsyncPageRankKernel(graph, epsilon=eps)
    from repro.core.config import PERSIST_WARP
    from repro.core.policy import run_policy

    run_policy(kernel, PERSIST_WARP, spec=SPEC)
    n = graph.num_vertices
    # mass conservation: only vertices with out-degree 0 leak nothing
    # (symmetric graphs here, so nothing leaks at all) minus damping decay
    total = kernel.rank.sum() + kernel.residue.sum()
    # geometric series: total injected mass = (1-lam) * n / (1-lam) = n
    assert total <= n + 1e-6
    assert kernel.residue.max() <= eps


@given(symmetric_graphs(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_bsp_and_atos_bfs_agree(graph, seed):
    source = seed % graph.num_vertices
    a = bfs.run_bsp(graph, source=source, spec=SPEC)
    from repro.core.config import PERSIST_CTA

    b = run_app("bfs", graph, PERSIST_CTA, source=source, spec=SPEC)
    assert np.array_equal(a.output, b.output)


@given(symmetric_graphs(), atos_configs())
@settings(max_examples=30, deadline=None)
def test_connected_components_always_exact(graph, config):
    from repro.apps import cc

    res = run_app("cc", graph, config, spec=SPEC)
    assert cc.validate_components(graph, res.output)


@given(symmetric_graphs(), atos_configs(), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_speculative_sssp_always_exact(graph, config, seed):
    from repro.apps import sssp

    weights = sssp.random_weights(graph, low=1.0, high=9.0, seed=seed % 97)
    source = seed % graph.num_vertices
    res = run_app("sssp", graph, config, weights=weights, source=source, spec=SPEC)
    assert sssp.validate_distances(graph, weights, res.output, source)


@given(symmetric_graphs(), atos_configs())
@settings(max_examples=25, deadline=None)
def test_mis_always_lexicographic(graph, config):
    from repro.apps import mis

    res = run_app("mis", graph, config, spec=SPEC)
    assert mis.validate_mis(graph, res.output)


@given(symmetric_graphs())
@settings(max_examples=20, deadline=None)
def test_kcore_always_exact(graph):
    from repro.apps import kcore
    from repro.core.config import PERSIST_WARP

    res = run_app("kcore", graph, PERSIST_WARP, spec=SPEC)
    assert kcore.validate_core_numbers(graph, res.output)


@given(symmetric_graphs(), st.floats(0.5, 50.0))
@settings(max_examples=20, deadline=None)
def test_delta_stepping_always_exact(graph, delta):
    from repro.apps import delta_sssp, sssp

    weights = sssp.random_weights(graph, low=1.0, high=9.0, seed=3)
    res = delta_sssp.run_delta_stepping(graph, weights=weights, delta=delta, spec=SPEC)
    assert sssp.validate_distances(graph, weights, res.output)
