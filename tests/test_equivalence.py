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


# Every BSP runner: result_digest per cell (BSP runs emit no engine
# events), captured with the same code as the table above.
GOLDEN_BSP = {
    ("bfs", "roadNet-CA"): "9dddf9ef1dc5397f",
    ("bfs", "soc-LiveJournal1"): "b703a083b34337aa",
    ("cc", "roadNet-CA"): "bd88ff52a0e0dee3",
    ("cc", "soc-LiveJournal1"): "0e54a8f6448fd2e8",
    ("coloring", "roadNet-CA"): "b6ccf8963b55975e",
    ("coloring", "soc-LiveJournal1"): "484db3c756a1d6fe",
    ("delta-sssp", "roadNet-CA"): "b3ad2068f9c2247a",
    ("delta-sssp", "soc-LiveJournal1"): "ad30b2e559771e6f",
    ("kcore", "roadNet-CA"): "be0c6d738d1c20e0",
    ("kcore", "soc-LiveJournal1"): "7b2cc9f7b1f12105",
    ("mis", "roadNet-CA"): "e6012e98716510c9",
    ("mis", "soc-LiveJournal1"): "80c42c38af000112",
    ("pagerank", "roadNet-CA"): "6574faece1c1b816",
    ("pagerank", "soc-LiveJournal1"): "d6045ce43197bf71",
    ("sssp", "roadNet-CA"): "3dbc96e0310de4c6",
    ("sssp", "soc-LiveJournal1"): "27dd2e9fe0460941",
}


@pytest.mark.parametrize("app,dataset", sorted(GOLDEN_BSP))
def test_bsp_runner_matches_golden(lab, app, dataset):
    res = lab.run(app, dataset, "BSP")
    assert result_digest(res) == GOLDEN_BSP[(app, dataset)], f"{app}/{dataset}/BSP diverged"


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
    res = execute_spec(bsp_do_spec(dataset, "tiny"))
    assert res.impl == "BSP-DO"
    assert result_digest(res) == GOLDEN_BSP_DO[dataset], f"bfs/{dataset}/BSP-DO diverged"


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
