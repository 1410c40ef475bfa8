"""The engine's drain loop (ExecutionEngine.drain_events) beyond the golden matrix.

The golden-digest matrix in ``tests/test_equivalence.py`` pins the event
stream on the paper cells; this file covers the rest of the loop's
contract: every engine-level application passes its oracle under full
checking, the perturb hook reproduces a schedule bit-for-bit, and the
schedule fuzzer finds no wrong answer or broken invariant.
"""

from __future__ import annotations

import pytest

from repro.apps.common import app_names, get_adapter, run_app
from repro.check.fuzz import fuzz_app, perturbation
from repro.core.config import CONFIGS
from repro.graph.generators import grid_mesh, rmat
from repro.obs import Collector


@pytest.fixture(scope="module")
def graph():
    g = rmat(8, edge_factor=6, seed=7, name="rmat8")
    return g if g.is_symmetric() else g.symmetrize()


@pytest.fixture(scope="module")
def mesh():
    return grid_mesh(8, 6)


def _digest(app, graph, config, **kw):
    sink = Collector()
    run_app(app, graph, config, sink=sink, **kw)
    return sink.digest()


def test_perturb_hook_digest_is_deterministic(graph):
    """A perturbation seed replays its schedule exactly, and moves it."""
    config = CONFIGS["persist-CTA"]
    first = _digest("bfs", graph, config, perturb=perturbation(seed=3), source=0)
    again = _digest("bfs", graph, config, perturb=perturbation(seed=3), source=0)
    assert first == again
    assert first != _digest("bfs", graph, config, source=0)


def test_every_engine_app_passes_oracle(graph, mesh):
    """The oracle sweep over every static engine-level application.

    ``validate=True`` attaches the answer oracle and a live
    InvariantMonitor; BSP-only apps have no engine and are skipped, and
    the dynamic adapters' multi-epoch sweep lives in tests/test_dynamic.py.
    """
    config = CONFIGS["persist-CTA"]
    checked = 0
    for app in app_names():
        adapter = get_adapter(app)
        if adapter.make_kernel is None or adapter.dynamic:
            continue
        g = mesh if app == "bfs" else graph
        run_app(app, g, config, validate=True)
        checked += 1
    assert checked == 7


def test_fuzzer_clean(graph):
    report = fuzz_app("bfs", graph, CONFIGS["discrete-CTA"], seeds=4, source=0)
    report.assert_clean()
