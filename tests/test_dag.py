"""Tests for the DAG join-counter extension (paper Section 3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DISCRETE_CTA, PERSIST_CTA, PERSIST_WARP
from repro.core.dag import Dag, DagKernel, JoinCounters
from repro.core.policy import run_policy
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


def diamond() -> Dag:
    #    0
    #   / \
    #  1   2
    #   \ /
    #    3
    return Dag.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestDag:
    def test_roots(self):
        assert list(diamond().roots()) == [0]

    def test_in_degrees(self):
        assert list(diamond().in_degree) == [0, 1, 1, 2]

    def test_successors(self):
        d = diamond()
        assert sorted(d.node_successors(0)) == [1, 2]
        assert list(d.node_successors(3)) == []

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag.from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag.from_edges(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Dag.from_edges(2, [(0, 5)])

    def test_empty_dag(self):
        d = Dag.from_edges(3, [])
        assert list(d.roots()) == [0, 1, 2]


class TestJoinCounters:
    def test_join_fires_on_last_arrival(self):
        jc = JoinCounters(diamond())
        assert jc.arrive(np.array([3])).size == 0  # 1 of 2
        ready = jc.arrive(np.array([3]))  # 2 of 2
        assert list(ready) == [3]

    def test_batched_arrivals(self):
        jc = JoinCounters(diamond())
        ready = jc.arrive(np.array([3, 3]))
        assert list(ready) == [3]

    def test_underflow_detected(self):
        jc = JoinCounters(diamond())
        jc.arrive(np.array([3, 3]))
        with pytest.raises(RuntimeError, match="underflow"):
            jc.arrive(np.array([3]))


class TestDagKernel:
    @pytest.mark.parametrize(
        "cfg", (PERSIST_WARP, PERSIST_CTA, DISCRETE_CTA), ids=lambda c: c.name
    )
    def test_diamond_respects_dependencies(self, cfg):
        kernel = DagKernel(diamond())
        run_policy(kernel, cfg, spec=SPEC)
        assert kernel.all_executed()
        assert kernel.respects_dependencies()
        # node 3 strictly after both 1 and 2 in completion order
        order = {v: i for i, v in enumerate(kernel.completed)}
        assert order[3] > order[1] and order[3] > order[2]

    def test_wavefront_grid(self):
        """2-D wavefront: (i,j) depends on (i-1,j) and (i,j-1)."""
        n = 6
        edges = []
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    edges.append((i * n + j, (i + 1) * n + j))
                if j + 1 < n:
                    edges.append((i * n + j, i * n + j + 1))
        kernel = DagKernel(Dag.from_edges(n * n, edges))
        run_policy(kernel, PERSIST_WARP, spec=SPEC)
        assert kernel.all_executed()
        assert kernel.respects_dependencies()

    def test_compute_fn_invoked(self):
        seen = []
        kernel = DagKernel(diamond(), compute_fn=lambda v, t: seen.append(v))
        run_policy(kernel, PERSIST_WARP, spec=SPEC)
        assert sorted(seen) == [0, 1, 2, 3]

    def test_cost_fn_drives_work_units(self):
        kernel = DagKernel(diamond(), cost_fn=lambda v: 10)
        res = run_policy(kernel, PERSIST_WARP, spec=SPEC)
        assert res.work_units == 40.0


@st.composite
def random_dags(draw, max_nodes=20):
    """Random DAG: edges only from lower to higher node id (acyclic)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=60,
        )
    )
    filtered = sorted({(u, v) for u, v in edges if u < v})
    return n, filtered


@given(random_dags(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_random_dags_execute_in_topological_order(nd, persistent):
    n, edges = nd
    kernel = DagKernel(Dag.from_edges(n, edges))
    cfg = PERSIST_WARP if persistent else DISCRETE_CTA
    run_policy(kernel, cfg, spec=SPEC)
    assert kernel.all_executed()
    assert kernel.respects_dependencies()
