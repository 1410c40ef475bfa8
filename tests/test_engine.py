"""The engine's drain loop (ExecutionEngine.drain_events) beyond the golden matrix.

The golden-digest matrix in ``tests/test_equivalence.py`` pins the event
stream on the paper cells; this file covers the rest of the loop's
contract: every engine-level application passes its oracle under full
checking, the perturb hook reproduces a schedule bit-for-bit, the
schedule fuzzer finds no wrong answer or broken invariant, and attaching
a sink changes no simulated result.
"""

from __future__ import annotations

import pytest

from repro.apps.common import app_names, get_adapter, run_app
from repro.check.fuzz import fuzz_app, perturbation
from repro.core.config import CONFIGS
from repro.core.policy import policy_for
from repro.graph.generators import grid_mesh, rmat
from repro.obs import Collector
from repro.service.jobs import result_digest

#: every static application that runs on the engine
ENGINE_APPS = [
    app
    for app in app_names()
    if get_adapter(app).make_kernel is not None and not get_adapter(app).dynamic
]

#: every engine-level preset, plus the two worklists the presets leave out
PARITY_CONFIGS = {
    **{name: c for name, c in CONFIGS.items() if not policy_for(c).app_level},
    "persist-warp+steal": CONFIGS["persist-warp"].with_overrides(
        worklist="stealing", name="persist-warp+steal"
    ),
    "persist-CTA+4q": CONFIGS["persist-CTA"].with_overrides(
        num_queues=4, name="persist-CTA+4q"
    ),
}


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


@pytest.mark.parametrize("preset", sorted(PARITY_CONFIGS))
@pytest.mark.parametrize("app", ENGINE_APPS)
def test_sink_changes_no_result(graph, app, preset):
    """A run with a Collector attached and one without agree on everything.

    No code path may depend on whether a sink is attached: the checkers
    (goldens, ``validate=True``, the fuzzer) all attach one, while the
    benchmarks run without, so they must be the same run.
    """
    config = PARITY_CONFIGS[preset]
    bare = run_app(app, graph, config)
    observed = run_app(app, graph, config, sink=Collector())
    assert observed.elapsed_ns == bare.elapsed_ns
    assert observed.work_units == bare.work_units
    assert result_digest(observed) == result_digest(bare)
    # every scheduler counter, the per-device snapshots and the app's own
    assert observed.extra == bare.extra
