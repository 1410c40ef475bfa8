"""Golden-equivalence guard for the ExecutionPolicy refactor.

The policy extraction (``_Engine`` → :class:`repro.core.engine.ExecutionEngine`
+ :mod:`repro.core.policy`) must not perturb simulated behavior.  These
digests were captured on the pre-refactor scheduler (one monolithic
``run_persistent``/``run_discrete`` pair) for every named paper preset ×
{bfs, pagerank, coloring} on the ``tiny`` dataset size; the refactored
runtime must reproduce each event stream byte-for-byte.

:meth:`repro.obs.collector.Collector.digest` is SHA-256 over the ordered
``repr`` of every emitted event, so a matching digest pins event order,
timestamps, worker assignment, queue depths and per-task counters all at
once.

The hybrid acceptance check (ISSUE 2 criterion) lives here too: on the
small-frontier workloads the paper's Section 6.5 highlights (road_usa BFS,
permuted indochina coloring), the adaptive policy must land within 5% of
the better pure strategy.
"""

from __future__ import annotations

import pytest

from repro.apps.common import run_app
from repro.core.config import CONFIGS, VARIANTS
from repro.harness.runner import Lab
from repro.obs import Collector, PolicySwitch
from repro.service.jobs import RunSpec, execute_spec, result_digest

# (app, dataset) cells: one traversal app on a mesh, one data-centric app
# and one speculative app on scale-free graphs — the three Table 1 app
# families.
CELLS = [
    ("bfs", "roadNet-CA"),
    ("pagerank", "soc-LiveJournal1"),
    ("coloring", "indochina-2004"),
]

# Captured with the pre-refactor scheduler at size="tiny" (seeded graph
# generators make these machine-independent).
GOLDEN_DIGESTS = {
    ("bfs", "roadNet-CA", "persist-warp"):
        "bef672f931c225fa9dc3fd7f88718e7380b488981e531a83bb0d34c1f61f57bb",
    ("bfs", "roadNet-CA", "persist-CTA"):
        "a3029a94b151a9d0271b8a039ab71e75bc056559050371621ee53c3efdcbd41a",
    ("bfs", "roadNet-CA", "discrete-CTA"):
        "64b5cd8c3cbe3ce870611c89860c941d3bfbe43a672f4344bfb55fce06c66b3b",
    ("bfs", "roadNet-CA", "discrete-warp"):
        "10c19437d500e3431ad47ab5489bf42d397efe6db8ea2f1fffaf84b8845553a7",
    ("pagerank", "soc-LiveJournal1", "persist-warp"):
        "bbafd71cc012a74b29dff7a851d354c8d1c53d41d7284f33a4f71adb4e8b19cf",
    ("pagerank", "soc-LiveJournal1", "persist-CTA"):
        "bed62468a8e30fd2131033dc8a280af1b9cad5b9d8c5460ee9d2cefc11cbde0b",
    ("pagerank", "soc-LiveJournal1", "discrete-CTA"):
        "4449ba9e27983888eec8c2f43d37466ca8630a7231ba1e6a9fc1ebb53f7efbdf",
    ("pagerank", "soc-LiveJournal1", "discrete-warp"):
        "4bd2c740906e053ca1d674dd2805099a398a4d51d39c04662b18f062318ae6c8",
    ("coloring", "indochina-2004", "persist-warp"):
        "bc70ba49ac0551bd5144e4cf4fcaa3b7fed59207b78d948c3989f95d08afa69f",
    ("coloring", "indochina-2004", "persist-CTA"):
        "9eb9fb59dbde0c2917ac1d7458e76e83c2db5b8e0e9e456786a0cc7524cc80a5",
    ("coloring", "indochina-2004", "discrete-CTA"):
        "ddfcda4015a265e82bc13569a155a7adf5dc01ec0828b34aeda6b82b47ee47cf",
    ("coloring", "indochina-2004", "discrete-warp"):
        "538ba5c2f0bf7ea90bacbe3b3b4bc947f9dd813a46a9f4ffd7d5fba94101f34d",
}


# ---------------------------------------------------------------------------
# Performance-layer cells (ISSUE 4): the repro.perf optimizations (batched
# costing, cached occupancy, obs fast path, queue micro-optimizations) must
# be bit-identical on every policy × worklist combination the engine can
# run.  These digests were captured on the pre-optimization engine for the
# hybrid presets and for the StealingWorklist variants of all three
# engine-level policies (the shared-worklist pure presets are already
# pinned above).
# ---------------------------------------------------------------------------

def _steal(name: str):
    """A named preset rebased onto the work-stealing worklist."""
    return CONFIGS[name].with_overrides(
        worklist="stealing", num_queues=4, name=f"{name}+steal"
    )


PERF_CONFIGS = {
    "hybrid-CTA": CONFIGS["hybrid-CTA"],
    "hybrid-warp": CONFIGS["hybrid-warp"],
    "persist-warp+steal": _steal("persist-warp"),
    "discrete-CTA+steal": _steal("discrete-CTA"),
    "hybrid-CTA+steal": _steal("hybrid-CTA"),
}

# The stealing-cell digests were deliberately recaptured when
# ``StealingWorklist._victim_order`` became a true Fisher-Yates permutation
# (the old rotated ring had a selection bias) and ``QueueSteal`` grew the
# ``banked`` field; cells whose runs never successfully steal kept their
# original digests byte-for-byte, pinning that the fixes change nothing else.
GOLDEN_DIGESTS.update({
    ("bfs", "roadNet-CA", "hybrid-CTA"):
        "5036311cd107ccaa4892205e68de52f5fc97c229a15144507980837855c1a9d9",
    ("bfs", "roadNet-CA", "hybrid-warp"):
        "90ad23ea9b8b15b824187d3ad90c7496c3fc7276fb97c3286d6b7a4acca4feb9",
    ("bfs", "roadNet-CA", "persist-warp+steal"):
        "1801d15383156dc613c57ce67a9ea595688357f9715b1c2b03c3c758e6134edf",
    ("bfs", "roadNet-CA", "discrete-CTA+steal"):
        "3442acb761b80aedb7e1794c4ccdbfcf30d7540b778464550e721d772ed41750",
    ("bfs", "roadNet-CA", "hybrid-CTA+steal"):
        "b1a038fdf248e36ac03d67f6cd34c83fe6fbc42757c2d56e3dedf4e00f2edf0b",
    ("pagerank", "soc-LiveJournal1", "hybrid-CTA"):
        "aabdf680ef503dadbebe585a8b750128e6bd9ece96c997a73786fb1b21a830d4",
    ("pagerank", "soc-LiveJournal1", "hybrid-warp"):
        "6bb64f06406ea66caaabbf48b2404605b9ae9b21fd7bbffab2d9eb41bca6779e",
    ("pagerank", "soc-LiveJournal1", "persist-warp+steal"):
        "f5e4a91db936042b0e8b95319ab33b4e43a2d03fb32e6a776f77e229c9db4786",
    ("pagerank", "soc-LiveJournal1", "discrete-CTA+steal"):
        "dc4d4a372641ef0729c3c58178b593da9e0f78c7d5279c4993bffa226c01fddc",
    ("pagerank", "soc-LiveJournal1", "hybrid-CTA+steal"):
        "25ffbebf1b7f7e23229c4f85fdd3e31dcb679336e3eab336e056744231640771",
    ("coloring", "indochina-2004", "hybrid-CTA"):
        "8dd59cdc231266d9ab6df3404aee1071c088eb9a0d70f46a7691985614aaa475",
    ("coloring", "indochina-2004", "hybrid-warp"):
        "5f9e8f7ce69096ad2c480473320078a0ca2d3d1517ac0e89f433a27bea83b824",
    ("coloring", "indochina-2004", "persist-warp+steal"):
        "83bc8155aba8d71c6427a5a5719928dc394e26fb0573d3102e807a76bed625a0",
    ("coloring", "indochina-2004", "discrete-CTA+steal"):
        "74fd2c8e9d02e7a1812db526627c0852152f968f030bd4b9362c4038ddf30b4f",
    ("coloring", "indochina-2004", "hybrid-CTA+steal"):
        "027e2fab69a52f95c1c379b5ecb1febe314d6f65d5f71ea400e3e1c9c1460b4f",
})


@pytest.fixture(scope="module")
def lab() -> Lab:
    return Lab(size="tiny")


@pytest.mark.parametrize("app,dataset", CELLS)
@pytest.mark.parametrize("preset", sorted(VARIANTS))
def test_digest_matches_pre_refactor(app, dataset, preset):
    sink = Collector()
    execute_spec(RunSpec(app, dataset, preset, size="tiny"), sink=sink)
    assert sink.digest() == GOLDEN_DIGESTS[(app, dataset, preset)], (
        f"{app}/{dataset}/{preset}: simulated behavior diverged "
        "from the pre-refactor scheduler"
    )


@pytest.mark.parametrize("app,dataset", CELLS)
@pytest.mark.parametrize("preset", sorted(PERF_CONFIGS))
def test_digest_matches_pre_perf_layer(lab, app, dataset, preset):
    """Hybrid-policy and stealing-worklist cells pin the optimized engine."""
    sink = Collector()
    # the stealing variants are not presets, so no RunSpec names them
    run_app(app, lab.graph(dataset), PERF_CONFIGS[preset], sink=sink)
    assert sink.digest() == GOLDEN_DIGESTS[(app, dataset, preset)], (
        f"{app}/{dataset}/{preset}: simulated behavior diverged "
        "from the pre-optimization engine"
    )


# ---------------------------------------------------------------------------
# Dynamic-replay cells (ISSUE 8): a 2-epoch edit replay through the
# incremental kernels, one Collector digest over the whole multi-epoch
# stream (epoch 0 + EpochMark + repair epochs), pinning the epoch-boundary
# protocol alongside the per-run streams above.
# ---------------------------------------------------------------------------

DYNAMIC_EDITS = "2x16@3"
GOLDEN_DYNAMIC_DIGESTS = {
    ("bfs-inc", "rmat8", "persist-CTA"):
        "bda5484411e70bd1a18893ffeee75c47c2524147d0f84ac99af9062634deaa9d",
    ("cc-inc", "rmat8", "persist-CTA"):
        "8b5faad2cc911b5a89f76a30cf013e69195e52e7c67e970aeb45d1f936441c4d",
    # the incremental PageRank kernel on both of its paths: the multi-item
    # (CTA, fetch 64) and the scalar (warp, fetch 1) callbacks
    ("pagerank-inc", "rmat8", "persist-CTA"):
        "cfa076977633209150a30ad8a2ae5fc9a1e7bf966127d446b74f010192175984",
    ("pagerank-inc", "rmat8", "persist-warp"):
        "fb29524952556f281014b4a117f9beca86b23f6cdfff9ec89878d2c2526dc988",
}


def _assert_replay_matches_golden(app, preset, **params):
    from repro.apps.common import replay_app
    from repro.graph.generators import rmat

    g = rmat(8, edge_factor=6, seed=7, name="rmat8")
    g = g if g.is_symmetric() else g.symmetrize()
    sink = Collector()
    replay_app(
        app, g, CONFIGS[preset], DYNAMIC_EDITS, sink=sink, validate=True, **params
    )
    assert sink.digest() == GOLDEN_DYNAMIC_DIGESTS[(app, "rmat8", preset)], (
        f"{app}/rmat8/{preset}: dynamic replay stream diverged "
        "from its introduction digest"
    )


@pytest.mark.parametrize("app,params", [("bfs-inc", {"source": 0}), ("cc-inc", {})])
def test_dynamic_replay_digest_matches_golden(app, params):
    _assert_replay_matches_golden(app, "persist-CTA", **params)


@pytest.mark.parametrize("preset", ["persist-CTA", "persist-warp"])
def test_pagerank_inc_replay_digest_matches_golden(preset):
    _assert_replay_matches_golden("pagerank-inc", preset)


# ---------------------------------------------------------------------------
# CTA-worker cells: the multi-item on_read / on_complete / final_check
# paths (fetch_size 64) of the label-propagation, speculative, peeling and
# shortest-path apps, on the two sweep datasets at ``tiny``.  Captured
# while those paths still looped over their items one vertex at a time;
# the segmented-gather rewrite must reproduce every (Collector digest,
# result_digest) pair.
# ---------------------------------------------------------------------------

GOLDEN_CTA = {
    ("cc", "roadNet-CA", "persist-CTA"): (
        "c96bc14802a7aaa7b3f9da4fb619b06267c7bc2398a7788916c00a8d864cddec",
        "e7ada03d6ebe4870",
    ),
    ("cc", "roadNet-CA", "discrete-CTA"): (
        "904602a72c1443248575f302274c31ac32e63ea061964da3dd8a37d3bad6069d",
        "d991f70b71744454",
    ),
    ("cc", "roadNet-CA", "hybrid-CTA"): (
        "7ae3baee56bd79a917d0ebb8c56328b55eddb15e2585639392bab051826f7383",
        "0153719eb0cc1e50",
    ),
    ("cc", "soc-LiveJournal1", "persist-CTA"): (
        "7ad76fb66850d8c97c33bbfd90cddb74173e8c87d90f0587dcde9af7f9e74287",
        "bd41dcf44e2029b1",
    ),
    ("cc", "soc-LiveJournal1", "discrete-CTA"): (
        "1d1cf501d9702b67d960c3cdfd82b777eb4293d061e6bbf3d3580ff77e31d2e6",
        "8a215e4936e49582",
    ),
    ("cc", "soc-LiveJournal1", "hybrid-CTA"): (
        "e897aa165dc9766fc896c4dbb8b16ae3b4160e400779ac4b099ceeaac64282c6",
        "a5f84fe4f85969a3",
    ),
    ("coloring", "roadNet-CA", "persist-CTA"): (
        "22ce6a9c4256c1fafa4d1aee9b84b0ffc84a9b8bdbc729028023f2d6fad3ca4c",
        "ff4284fbda0537f8",
    ),
    ("coloring", "roadNet-CA", "discrete-CTA"): (
        "fd89411beca1c7842a30885874b27f6c96d8210d2bd2ed35602171bbcf5d93a7",
        "6040e1183e64a586",
    ),
    ("coloring", "roadNet-CA", "hybrid-CTA"): (
        "64c9d889c4c0dcc9bf67d1b9e76d07f9da3273be4d61cbff88748a5c19ce1a0e",
        "f2a2f7ee93eb15c6",
    ),
    ("coloring", "soc-LiveJournal1", "persist-CTA"): (
        "308eaf22ce0119b6281772df4587fa58958bfd619b746f240801773fa8967e93",
        "82fcd60df4d678a7",
    ),
    ("coloring", "soc-LiveJournal1", "discrete-CTA"): (
        "13b3c0c70b5a26f0aed6f5f9faf10241ca069340be1fa2382fbc97ce84ba5977",
        "3a63ac0f52227f0b",
    ),
    ("coloring", "soc-LiveJournal1", "hybrid-CTA"): (
        "f2bccc7ac3037d88435dbd1e773db8a39ac6c20255caa0fbf9ed6df9289aea64",
        "bcbb38e67b573681",
    ),
    ("kcore", "roadNet-CA", "persist-CTA"): (
        "1a53ddbd1b87283be1223f1db8fd55c18685342e14ca843b3197bbcf2247b017",
        "0243aab5c9a1fbb5",
    ),
    ("kcore", "roadNet-CA", "discrete-CTA"): (
        "a386ff342fb5232bfd3335d40d7df1b0d5e3d13738e8951008e89473415bd13b",
        "0f13ed99233b480c",
    ),
    ("kcore", "roadNet-CA", "hybrid-CTA"): (
        "af0b1d5296293bd8b1fde5b02ca28067a02e1f7b0a250bc6cbdad05a75f0270f",
        "bc8542103e914e24",
    ),
    ("kcore", "soc-LiveJournal1", "persist-CTA"): (
        "ecbe5c2f3b7f638e6e2e14bbbb505f3563155101f91cc985de845971ba6345e2",
        "232b27d6c97c4101",
    ),
    ("kcore", "soc-LiveJournal1", "discrete-CTA"): (
        "fdd986880213d4d67939f3d1abcf2d2a29ab209d452dad6436b4c2ca8d321a15",
        "41d230dfa595f176",
    ),
    ("kcore", "soc-LiveJournal1", "hybrid-CTA"): (
        "a0fbd37502a06d5e5d099e0ff861184d9bf489e0973b61c8f3540cbef84887ef",
        "233b772fbf6caecf",
    ),
    ("mis", "roadNet-CA", "persist-CTA"): (
        "420b449409ad59ab5adc4fb4412a0a243430d4fe1560b4a9e50b27fa15d0aadb",
        "f6f0f23c066d9730",
    ),
    ("mis", "roadNet-CA", "discrete-CTA"): (
        "56f7fb23eaa4fb516b261cc833838882c52fab61e13d54aec14811059a574eb8",
        "9d3cafe0785109cb",
    ),
    ("mis", "roadNet-CA", "hybrid-CTA"): (
        "e209a832345d3a9a41485ed63f4abbc4f66047df515570d246365c0f21859326",
        "0c69de0ef3ffe506",
    ),
    ("mis", "soc-LiveJournal1", "persist-CTA"): (
        "44c90b797c1a07cb43082d500f1c06c043c8b34cc0c950018747a881772c956d",
        "19534c0a36c961e1",
    ),
    ("mis", "soc-LiveJournal1", "discrete-CTA"): (
        "9f7bd66552984d5b1a0f703430346cc649f030a414050fcdb02d099b1294b1f3",
        "180300aac1cc05d8",
    ),
    ("mis", "soc-LiveJournal1", "hybrid-CTA"): (
        "c671b1881edcf20e1b9cde1856770b7d6cb794de8014e68d3db2e9c6807dcdee",
        "7c0411c47dac8517",
    ),
    ("sssp", "roadNet-CA", "persist-CTA"): (
        "a3029a94b151a9d0271b8a039ab71e75bc056559050371621ee53c3efdcbd41a",
        "d4dab9bf6aaf4997",
    ),
    ("sssp", "roadNet-CA", "discrete-CTA"): (
        "64b5cd8c3cbe3ce870611c89860c941d3bfbe43a672f4344bfb55fce06c66b3b",
        "e9d32040add9c260",
    ),
    ("sssp", "roadNet-CA", "hybrid-CTA"): (
        "5036311cd107ccaa4892205e68de52f5fc97c229a15144507980837855c1a9d9",
        "f7c8fba8ba49772f",
    ),
    ("sssp", "soc-LiveJournal1", "persist-CTA"): (
        "10a6712f2a1b002c656246774b08e63374512511f8d5eb363d84fce005367a83",
        "37487d25a9593390",
    ),
    ("sssp", "soc-LiveJournal1", "discrete-CTA"): (
        "2c3a734ed20c8c4ce00e7d36fa57f9c6a68f1d4b0f97fa150d2ec5b71ad5793b",
        "de16d88f87c1c17b",
    ),
    ("sssp", "soc-LiveJournal1", "hybrid-CTA"): (
        "75879d8cbcf9013bc1829cd4bbaec471cd2ccecf38ada346fdcff7c1f5cd560a",
        "ac151c0871e6f7f2",
    ),
}


@pytest.mark.parametrize("app,dataset,preset", sorted(GOLDEN_CTA))
def test_cta_worker_cell_matches_golden(app, dataset, preset):
    sink = Collector()
    res = execute_spec(RunSpec(app, dataset, preset, size="tiny"), sink=sink)
    digest, rdigest = GOLDEN_CTA[(app, dataset, preset)]
    assert sink.digest() == digest, f"{app}/{dataset}/{preset}: event stream diverged"
    assert result_digest(res) == rdigest, f"{app}/{dataset}/{preset}: result diverged"


# Every BSP runner: (Collector digest, result_digest) per cell, like the
# table above.  The stream is the one BspTimeline emits with a sink
# attached; the result digests predate it and did not move when it landed.
GOLDEN_BSP = {
    ("bfs", "roadNet-CA"): (
        "ba14d236b017d2221c0d0843e8903d9ca2a6c40ffc06aea4eca7d8b7263ac47f",
        "9dddf9ef1dc5397f",
    ),
    ("bfs", "soc-LiveJournal1"): (
        "02fc93e4c0b29b3d33b99f804e9f229aac7e7e6edd7e5132b04878bd1ecd2c89",
        "b703a083b34337aa",
    ),
    ("cc", "roadNet-CA"): (
        "3faaebfa28a53104519e14e1b0215f785611c914372b836cf813d7f759b3e1d5",
        "bd88ff52a0e0dee3",
    ),
    ("cc", "soc-LiveJournal1"): (
        "d2551fdbc86a66ffcc53e898068d432d963f68a7e60c80c02dd3a0fc006a2d17",
        "0e54a8f6448fd2e8",
    ),
    ("coloring", "roadNet-CA"): (
        "0b414d2e03caa1004374905e90b0419784c475245a147481b12e6926a0391086",
        "b6ccf8963b55975e",
    ),
    ("coloring", "soc-LiveJournal1"): (
        "ff3dbf0978e0f26651dda2c86fab4dcd082ad71d030fe18d37e4008b3877935a",
        "484db3c756a1d6fe",
    ),
    ("delta-sssp", "roadNet-CA"): (
        "ce574c5accd1a9958f0a0571581366933c64d13bd4570617f0365464a3e3dd96",
        "b3ad2068f9c2247a",
    ),
    ("delta-sssp", "soc-LiveJournal1"): (
        "980ff51835f1f9b424eb2da098d8f5bee7a4394d937368fbc4c06935c10863dd",
        "ad30b2e559771e6f",
    ),
    ("kcore", "roadNet-CA"): (
        "ff2904f61324af299a8b87796922428d2e919f2d9e6e8f28863d44d3d58d845b",
        "be0c6d738d1c20e0",
    ),
    ("kcore", "soc-LiveJournal1"): (
        "ddb256c9a58665fff3350b03b21cb02c024d8243473983d65202d7a98cb3cd32",
        "7b2cc9f7b1f12105",
    ),
    ("mis", "roadNet-CA"): (
        "96086805f19aab00bf6a6ed30eeafcdf250c02fc3b8bf7b0135be76cf8c236fe",
        "e6012e98716510c9",
    ),
    ("mis", "soc-LiveJournal1"): (
        "91cbb325924516bb28507c7a206c6e7e34e2bde2382395d361e71a30931c62b8",
        "80c42c38af000112",
    ),
    ("pagerank", "roadNet-CA"): (
        "47973263c1a020abf2e07578ac01f6c2be487ff7bdac8df4512decf93a0de251",
        "6574faece1c1b816",
    ),
    ("pagerank", "soc-LiveJournal1"): (
        "a4a51c8b31acd5d9f3dac10bf26b563e165b4b65051be3e3055772295243a996",
        "d6045ce43197bf71",
    ),
    ("sssp", "roadNet-CA"): (
        "ce574c5accd1a9958f0a0571581366933c64d13bd4570617f0365464a3e3dd96",
        "3dbc96e0310de4c6",
    ),
    ("sssp", "soc-LiveJournal1"): (
        "980ff51835f1f9b424eb2da098d8f5bee7a4394d937368fbc4c06935c10863dd",
        "27dd2e9fe0460941",
    ),
}


def _run_bsp_observed(spec: RunSpec):
    """``(result, stream digest)`` of a BSP spec run with every sink attached.

    ``validate`` attaches the invariant monitor, which reconciles
    ``items_retired`` and ``kernel_launches`` from the stream; the metrics
    summary must count the same.
    """
    sink = Collector()
    res = execute_spec(spec, sink=sink, validate=True, metrics=True)
    counters = res.extra["metrics"]["counters"]
    assert counters["kernel_launches"] == res.kernel_launches
    assert counters["items_retired"] == res.items_retired
    return res, sink.digest()


@pytest.mark.parametrize("app,dataset", sorted(GOLDEN_BSP))
def test_bsp_runner_matches_golden(app, dataset):
    res, digest = _run_bsp_observed(RunSpec(app, dataset, "BSP", size="tiny"))
    golden, rdigest = GOLDEN_BSP[(app, dataset)]
    assert digest == golden, f"{app}/{dataset}/BSP: event stream diverged"
    assert result_digest(res) == rdigest, f"{app}/{dataset}/BSP diverged"


# Direction-optimized BFS (Beamer push/pull, impl "BSP-DO"): the BSP BFS
# runner's second body, reached through its ``direction_optimized`` param.
GOLDEN_BSP_DO = {
    "roadNet-CA": "fbf2ecaa61b66b44",
    "soc-LiveJournal1": "8534e2f81881f68e",
}


def bsp_do_spec(dataset: str, size: str = "small") -> RunSpec:
    return RunSpec("bfs", dataset, "BSP", size=size, params={"direction_optimized": True})


@pytest.mark.parametrize("dataset", sorted(GOLDEN_BSP_DO))
def test_direction_optimized_bsp_matches_golden(dataset):
    res, _ = _run_bsp_observed(bsp_do_spec(dataset, "tiny"))
    assert res.impl == "BSP-DO"
    assert result_digest(res) == GOLDEN_BSP_DO[dataset], f"bfs/{dataset}/BSP-DO diverged"


# ---------------------------------------------------------------------------
# Queue-counter cells: every counter a run's ``extra`` reports, on the
# worklist organisations no preset names (four stealing deques, four
# shared queues) and on a multi-device cell.  Of the small cells tried,
# bfs on rmat13 under dist-4 with the contiguous partition is the only one
# whose backlog opens the cross-device steal gate (``remote_steals > 0``).
# Together with the ``repro run`` pins in ``tests/test_cli_pins.py`` (a
# hybrid switch, multi-generation discrete queues, a 2-device run) every
# queue counter is nonzero in at least one pinned cell.
# ---------------------------------------------------------------------------

def _shared4(name: str):
    """A named preset scattered over four shared queues."""
    return CONFIGS[name].with_overrides(num_queues=4, name=f"{name}+shared4")


COUNTER_CELLS = {
    "persist-warp+steal": _steal("persist-warp"),
    "persist-warp+shared4": _shared4("persist-warp"),
    "discrete-CTA+steal": _steal("discrete-CTA"),
    "discrete-CTA+shared4": _shared4("discrete-CTA"),
    "dist-4+contiguous": CONFIGS["dist-4"].with_overrides(partition="contiguous"),
}

# ``extra`` entries with a numeric value (``device_stats`` is a list and
# stays out), sorted by key
GOLDEN_COUNTERS = {
    "discrete-CTA+shared4": {
        "empty_pops": 40,
        "failed_steals": 0,
        "mem_utilization": 0.39020392146107746,
        "occupancy": 0.75,
        "policy_switches": 0,
        "queue_contention_ns": 96.0,
        "queue_items_banked": 0,
        "queue_items_popped": 422,
        "queue_items_pushed": 422,
        "queue_pops": 19,
        "queue_pushes": 13,
        "steals": 0,
        "total_tasks": 10,
        "worker_slots": 48,
    },
    "discrete-CTA+steal": {
        "empty_pops": 20,
        "failed_steals": 48,
        "mem_utilization": 0.3875332238958298,
        "occupancy": 0.75,
        "policy_switches": 0,
        "queue_contention_ns": 468.0,
        "queue_items_banked": 14,
        "queue_items_popped": 422,
        "queue_items_pushed": 422,
        "queue_pops": 14,
        "queue_pushes": 6,
        "steals": 6,
        "total_tasks": 14,
        "worker_slots": 48,
    },
    "dist-4+contiguous": {
        "comm_ns": 258086.45833333346,
        "devices": 4,
        "empty_pops": 224,
        "failed_steals": 566,
        "mem_utilization": 0.8889596442030248,
        "occupancy": 0.5,
        "policy_switches": 0,
        "queue_contention_ns": 20238.702237083387,
        "queue_items_banked": 64,
        "queue_items_popped": 6420,
        "queue_items_pushed": 6420,
        "queue_pops": 211,
        "queue_pushes": 200,
        "remote_items": 5157,
        "remote_pushes": 142,
        "remote_steals": 5,
        "steals": 5,
        "total_tasks": 211,
        "worker_slots": 128,
    },
    "persist-warp+shared4": {
        "empty_pops": 1102,
        "failed_steals": 0,
        "mem_utilization": 0.682122530697339,
        "occupancy": 0.5,
        "policy_switches": 0,
        "queue_contention_ns": 45136.40612792955,
        "queue_items_banked": 0,
        "queue_items_popped": 422,
        "queue_items_pushed": 422,
        "queue_pops": 422,
        "queue_pushes": 154,
        "steals": 0,
        "total_tasks": 422,
        "worker_slots": 256,
    },
    "persist-warp+steal": {
        "empty_pops": 324,
        "failed_steals": 843,
        "mem_utilization": 0.6821225306973387,
        "occupancy": 0.5,
        "policy_switches": 0,
        "queue_contention_ns": 46231.12630353653,
        "queue_items_banked": 260,
        "queue_items_popped": 422,
        "queue_items_pushed": 422,
        "queue_pops": 422,
        "queue_pushes": 101,
        "steals": 53,
        "total_tasks": 422,
        "worker_slots": 256,
    },
}


def _counter_graph(cell: str):
    from repro.graph.generators import rmat

    if cell.startswith("dist-"):
        return rmat(13, edge_factor=16, seed=1)
    return rmat(9, edge_factor=8, seed=1)


@pytest.mark.parametrize("cell", sorted(GOLDEN_COUNTERS))
def test_queue_counters_match_golden(cell):
    res = run_app("bfs", _counter_graph(cell), COUNTER_CELLS[cell])
    counters = {
        k: v for k, v in sorted(res.extra.items()) if isinstance(v, (int, float))
    }
    assert counters == GOLDEN_COUNTERS[cell], f"bfs/{cell}: queue counters diverged"


def test_counter_goldens_cover_every_queue_counter():
    queue_counters = (
        "queue_contention_ns", "empty_pops", "steals", "failed_steals",
        "queue_pushes", "queue_pops", "queue_items_pushed",
        "queue_items_popped", "queue_items_banked", "remote_pushes",
        "remote_items", "remote_steals", "comm_ns",
    )
    for key in queue_counters:
        assert any(g.get(key) for g in GOLDEN_COUNTERS.values()), key


# ---------------------------------------------------------------------------
# Hybrid acceptance: within 5% of the better pure strategy on the
# small-frontier regimes of Section 6.5
# ---------------------------------------------------------------------------

def _best_pure(lab: Lab, app: str, dataset: str, *, permuted: bool, kind: str) -> float:
    pure = [f"persist-{kind}", f"discrete-{kind}"]
    return min(
        lab.run(app, dataset, impl, permuted=permuted).elapsed_ns for impl in pure
    )


@pytest.mark.parametrize(
    "app,dataset,permuted,kind",
    [
        ("bfs", "road_usa", False, "CTA"),
        ("coloring", "indochina-2004", True, "warp"),
    ],
)
def test_hybrid_within_5pct_of_best_pure(lab, app, dataset, permuted, kind):
    best = _best_pure(lab, app, dataset, permuted=permuted, kind=kind)
    hybrid = lab.run(app, dataset, f"hybrid-{kind}", permuted=permuted)
    assert hybrid.elapsed_ns <= 1.05 * best, (
        f"hybrid-{kind} on {app}/{dataset}: {hybrid.elapsed_ns:.0f} ns vs "
        f"best pure {best:.0f} ns"
    )


def test_hybrid_emits_policy_switch():
    sink = Collector()
    execute_spec(RunSpec("bfs", "road_usa", "hybrid-CTA", size="tiny"), sink=sink)
    switches = sink.events_of(PolicySwitch)
    assert switches, "hybrid run on a high-diameter mesh never switched policy"
    assert switches[0].policy == "persistent"
