"""Tests for the Listing-3-style Atos façade."""

import pytest

from repro.core.api import Atos
from repro.apps.bfs import SpeculativeBfsKernel
from repro.check import validate
from repro.graph.generators import grid_mesh
from repro.sim.spec import GpuSpec

SPEC = GpuSpec(num_sms=2, mem_edges_per_ns=0.2)


@pytest.fixture
def atos():
    return Atos(spec=SPEC)


@pytest.fixture
def graph():
    return grid_mesh(6, 6)


class TestLaunches:
    def test_launch_warp_persistent(self, atos, graph):
        kernel = SpeculativeBfsKernel(graph, 0)
        res = atos.launch_warp(kernel)
        assert res.kernel_launches == 1
        assert validate("bfs", graph, kernel.depth).ok
        assert atos.last_result is res

    def test_launch_warp_discrete(self, atos, graph):
        kernel = SpeculativeBfsKernel(graph, 0)
        res = atos.launch_warp(kernel, persistent=False)
        assert res.kernel_launches > 1
        assert validate("bfs", graph, kernel.depth).ok

    def test_launch_cta_requires_fetch_size(self, atos, graph):
        kernel = SpeculativeBfsKernel(graph, 0)
        res = atos.launch_cta(kernel, fetch_size=16, num_threads=128)
        assert validate("bfs", graph, kernel.depth).ok

    def test_launch_thread(self, atos, graph):
        kernel = SpeculativeBfsKernel(graph, 0)
        atos.launch_thread(kernel)
        assert validate("bfs", graph, kernel.depth).ok

    def test_num_queues_plumbed(self, graph):
        atos = Atos(spec=SPEC, num_queues=4)
        kernel = SpeculativeBfsKernel(graph, 0)
        atos.launch_warp(kernel)
        assert validate("bfs", graph, kernel.depth).ok

    def test_capacity_plumbed(self, graph):
        atos = Atos(spec=SPEC, capacity=1)
        kernel = SpeculativeBfsKernel(graph, 0)
        with pytest.raises(OverflowError):
            atos.launch_warp(kernel)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Atos(capacity=0)
        with pytest.raises(ValueError):
            Atos(num_queues=0)
