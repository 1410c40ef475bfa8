"""Shared fixtures (small graphs, a fast machine spec) and test tiers.

Two pytest tiers (documented in the README):

* ``tier1`` — the fast default suite; everything not explicitly marked
  ``slow`` is auto-tagged ``tier1`` at collection, so ``pytest`` with no
  flags runs exactly the tier-1 net.
* ``slow`` — heavyweight property and load tests (the >=1000-client
  service storm, long hypothesis campaigns).  Deselected by default;
  opt in with ``pytest --run-slow`` or ``REPRO_SLOW=1``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (property/load campaigns)",
    )


def _slow_enabled(config: pytest.Config) -> bool:
    return bool(config.getoption("--run-slow") or os.environ.get("REPRO_SLOW"))


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    run_slow = _slow_enabled(config)
    skip_slow = pytest.mark.skip(reason="slow tier: enable with --run-slow or REPRO_SLOW=1")
    for item in items:
        if item.get_closest_marker("slow") is None:
            item.add_marker(pytest.mark.tier1)
        elif not run_slow:
            item.add_marker(skip_slow)

from repro.graph.csr import Csr, from_edges
from repro.graph.generators import (
    barabasi_albert,
    grid_mesh,
    path_graph,
    rmat,
    star_graph,
)
from repro.sim.spec import GpuSpec


@pytest.fixture
def triangle() -> Csr:
    """3-cycle, symmetric."""
    return from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], name="triangle")


@pytest.fixture
def path10() -> Csr:
    return path_graph(10)


@pytest.fixture
def grid5x4() -> Csr:
    return grid_mesh(5, 4)


@pytest.fixture
def small_rmat() -> Csr:
    return rmat(8, edge_factor=6, seed=7, name="rmat8")


@pytest.fixture
def small_ba() -> Csr:
    return barabasi_albert(200, attach=4, seed=3)


@pytest.fixture
def star50() -> Csr:
    return star_graph(50)


@pytest.fixture
def fast_spec() -> GpuSpec:
    """A tiny machine so scheduler tests run in milliseconds."""
    return GpuSpec(num_sms=2, mem_edges_per_ns=0.1)


def make_random_graph(n: int, avg_degree: float, seed: int) -> Csr:
    """Symmetric uniform random graph helper for property tests."""
    rng = np.random.default_rng(seed)
    m = max(1, int(n * avg_degree))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    return from_edges(n, both, name=f"rand{n}")


@pytest.fixture(scope="session")
def exposition_docs() -> dict[str, dict]:
    """The three documents every Prometheus exposition lint test renders.

    * ``service`` — a broker stats document with several tenants, one of
      them named with a quote, a backslash and a newline;
    * ``dist-2`` — a two-device BFS run summary (a labelled ``devices``
      block, one family per device counter);
    * ``quoted`` — a run summary whose dataset name holds ``"`` and ``\\``.

    Shared and session-scoped: tests that alter one must copy it first.
    """
    import asyncio

    from repro.service import Broker, BrokerConfig, RunSpec
    from repro.service.jobs import execute_spec

    async def service_doc() -> dict:
        async with Broker(BrokerConfig(workers=2)) as broker:
            spec = RunSpec(app="bfs", dataset="roadNet-CA", size="tiny")
            await broker.submit(spec, tenant="alpha")  # miss
            await broker.submit(spec, tenant="alpha")  # hit
            await broker.submit(spec, tenant="beta")
            await broker.submit(spec, tenant='we"ird\\ten\nant')
            return broker.stats()

    summary = execute_spec(RunSpec("bfs", "roadNet-CA", "persist-warp", size="tiny"),
                           metrics=True)
    dist = execute_spec(RunSpec("bfs", "roadNet-CA", "dist-2", size="tiny"), metrics=True)
    return {
        "service": asyncio.run(service_doc()),
        "dist-2": dist.extra["metrics"],
        "quoted": dict(summary.extra["metrics"], dataset='my"gr\\aph'),
    }
