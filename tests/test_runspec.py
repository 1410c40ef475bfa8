"""One run identity: every entry point turns a RunSpec into the same result.

A :class:`~repro.service.jobs.RunSpec` names a run; the Lab memo, parallel
sweeps, the service broker and ``repro run`` all execute it through
:func:`~repro.service.jobs.execute_spec`.  The property below is the
acceptance net for that: for random valid ``tiny`` specs — static, BSP,
seeded, parameterised, edit-replay, permuted, multi-device — every entry
point returns the same ``result_digest``.  A field that one path dropped
(the way edit-replay jobs once dropped ``permuted`` and ``repro run
--edits`` dropped ``--devices``) shows up as a digest mismatch.
"""

from __future__ import annotations

import asyncio
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.harness.runner import Lab
from repro.perf.parallel import CellError, run_cells
from repro.service import Broker, BrokerConfig
from repro.service.jobs import RunSpec, execute_spec, result_digest, validate_spec

DATASETS = ("roadNet-CA", "soc-LiveJournal1")


@st.composite
def tiny_specs(draw) -> RunSpec:
    """A valid ``tiny`` spec of one of five kinds, maybe permuted and on 2 devices."""
    kind = draw(st.sampled_from(["static", "bsp", "seeded", "params", "edits"]))
    common = dict(
        dataset=draw(st.sampled_from(DATASETS)),
        size="tiny",
        permuted=draw(st.booleans()),
        devices=draw(st.sampled_from([None, 2])),
    )
    engine = st.sampled_from(["persist-CTA", "persist-warp", "discrete-CTA"])
    if kind == "edits":
        return RunSpec(
            draw(st.sampled_from(["bfs-inc", "cc-inc", "pagerank-inc"])),
            impl=draw(st.sampled_from(["persist-CTA", "discrete-CTA"])),
            edits=draw(st.sampled_from(["2x16@3", "2x8@5"])),
            **common,
        )
    if kind == "bsp":
        return RunSpec(draw(st.sampled_from(["bfs", "pagerank"])), impl="BSP", **common)
    if kind == "params":
        return RunSpec(
            "bfs", impl=draw(engine), params={"source": draw(st.integers(0, 200))}, **common
        )
    seed = draw(st.integers(1, 50)) if kind == "seeded" else 0
    return RunSpec(draw(st.sampled_from(["bfs", "cc", "pagerank"])), impl=draw(engine),
                   seed=seed, **common)


def broker_digest(spec: RunSpec) -> str:
    async def submit():
        async with Broker(BrokerConfig(workers=1)) as broker:
            return await broker.submit(spec)

    return asyncio.run(submit()).digest


def cli_digest(spec: RunSpec) -> str:
    """The ``digest:`` line of ``repro run`` for ``spec`` (no seed or params)."""
    argv = ["run", spec.app, spec.dataset, "--config", spec.impl, "--size", spec.size]
    if spec.edits:
        argv += ["--edits", spec.edits]
    if spec.devices:
        argv += ["--devices", str(spec.devices)]
    if spec.permuted:
        argv.append("--permuted")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    [line] = [ln for ln in out.getvalue().splitlines() if ln.startswith("digest: ")]
    return line.removeprefix("digest: ")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=tiny_specs())
def test_every_entry_point_returns_the_same_digest(spec):
    validate_spec(spec)
    ref = result_digest(execute_spec(spec))
    got = {
        "Lab.run_cells": Lab(size="tiny").run_cells([spec])[0],
        "run_cells(workers=1)": run_cells([spec], workers=1)[0],
    }
    if not (spec.seed or spec.params or spec.edits):
        lab = Lab(size="tiny", devices=spec.devices, partition=spec.partition)
        got["Lab.run"] = lab.run(spec.app, spec.dataset, spec.impl, permuted=spec.permuted)
    digests = {name: result_digest(res) for name, res in got.items()}
    digests["Broker.submit"] = broker_digest(spec)
    if not (spec.seed or spec.params):
        digests["repro run"] = cli_digest(spec)
    assert digests == dict.fromkeys(digests, ref), spec.describe()


def test_parallel_run_cells_matches_execute_spec_on_a_mixed_batch():
    cells = [
        RunSpec("bfs", "roadNet-CA", "persist-CTA", size="tiny"),
        RunSpec("pagerank", "soc-LiveJournal1", "BSP", size="tiny"),
        RunSpec("cc", "roadNet-CA", "persist-warp", size="tiny", seed=7),
        RunSpec("bfs", "soc-LiveJournal1", "discrete-CTA", size="tiny", params={"source": 9}),
        RunSpec("bfs-inc", "roadNet-CA", "persist-CTA", size="tiny", edits="2x16@3",
                permuted=True),
        RunSpec("cc-inc", "roadNet-CA", "persist-CTA", size="tiny", edits="2x8@5", devices=2),
    ]
    out = run_cells(cells, workers=2)
    assert not [r for r in out if isinstance(r, CellError)]
    assert [result_digest(r) for r in out] == [
        result_digest(execute_spec(cell)) for cell in cells
    ]


class TestEveryFieldReachesTheRun:
    def test_permuted_reaches_an_edit_replay(self):
        plain = RunSpec("bfs-inc", "roadNet-CA", size="tiny", edits="2x16@3")
        permuted = RunSpec("bfs-inc", "roadNet-CA", size="tiny", edits="2x16@3", permuted=True)
        a = result_digest(execute_spec(plain, validate=True))
        b = result_digest(execute_spec(permuted, validate=True))
        assert a != b

    def test_cli_replay_honours_devices(self):
        spec = RunSpec("bfs-inc", "roadNet-CA", size="tiny", edits="2x16@3", devices=2)
        single = RunSpec("bfs-inc", "roadNet-CA", size="tiny", edits="2x16@3")
        got = cli_digest(spec)
        assert got == result_digest(execute_spec(spec))
        assert got != result_digest(execute_spec(single))

    @pytest.mark.parametrize("argv", [
        ["bfs", "roadNet-CA"],
        ["bfs-inc", "roadNet-CA", "--edits", "2x16@3"],
    ])
    def test_cli_prints_the_result_digest(self, argv, capsys):
        assert main(["run", *argv, "--size", "tiny"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("digest: ") for line in lines) == 1


class TestCanonicalSpec:
    def test_ignored_fields_drop_away(self):
        base = RunSpec("bfs", "roadNet-CA", size="tiny")
        assert RunSpec("bfs", "roadnet_ca_sim", size="tiny") == base
        assert RunSpec("bfs", "roadNet-CA", size="tiny", devices=1) == base
        assert RunSpec("bfs", "roadNet-CA", size="tiny", partition="vertex") == base
        bsp = RunSpec("bfs", "roadNet-CA", "BSP", size="tiny")
        assert RunSpec("bfs", "roadNet-CA", "BSP", size="tiny", devices=4,
                       partition="vertex") == bsp

    def test_params_order_is_canonical(self):
        a = RunSpec("pagerank", "roadNet-CA", params={"epsilon": 0.01, "damping": 0.85})
        b = RunSpec("pagerank", "roadNet-CA", params=(("damping", 0.85), ("epsilon", 0.01)))
        assert a == b and hash(a) == hash(b)
