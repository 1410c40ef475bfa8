"""Synthetic stand-ins for the paper's five evaluation datasets.

The paper (Table 2) evaluates on three scale-free graphs and two mesh-like
road networks:

==================  ==========  =======  ========  ==========
paper dataset       vertices    edges    diameter  type
==================  ==========  =======  ========  ==========
soc-LiveJournal1    4.8M        68M      20        scale-free
hollywood-2009      1.1M        112M     11        scale-free (dense)
indochina-2004      7.4M        191M     26        scale-free (very skewed)
road_usa            23.9M       57M      6809      mesh-like
roadNet-CA          1.9M        5M       849       mesh-like
==================  ==========  =======  ========  ==========

Those graphs cannot be bundled, and at full scale a pure-Python
discrete-event simulation would take hours per run, so each stand-in is a
deterministic synthetic graph ~100x smaller that preserves the two
structural axes the paper's analysis actually uses (see DESIGN.md §1):
degree skew for the scale-free trio and diameter/low-degree for the road
pair.  ``indochina_sim`` uses a more skewed R-MAT than ``livejournal_sim``
to mirror indochina-2004's extreme max in-degree (256k vs 14k), and
``hollywood_sim`` uses dense preferential attachment to mirror
hollywood-2009's high average degree.

Each loader takes a ``size`` preset:

* ``"tiny"``   — hundreds of vertices; unit tests.
* ``"small"``  — a few thousand; fast benchmarks and figures.
* ``"default"`` — tens of thousands; headline table runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.csr import Csr
from repro.graph.generators import grid_mesh, rmat, road_network
from repro.graph.permute import (
    block_shuffle_permutation,
    crawl_order_relabel,
    permute_vertices,
)

__all__ = [
    "DatasetInfo",
    "DATASETS",
    "TEST_GRAPHS",
    "SIZES",
    "load_dataset",
    "resolve_dataset",
    "soc_livejournal_sim",
    "hollywood_sim",
    "indochina_sim",
    "road_usa_sim",
    "roadnet_ca_sim",
]

SIZES = ("tiny", "small", "default")


def _check_size(size: str) -> None:
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}, got {size!r}")


def soc_livejournal_sim(size: str = "default", *, seed: int = 1) -> Csr:
    """Stand-in for soc-LiveJournal1: Graph500-parameter R-MAT.

    Matched properties: heavy-tailed degrees (max degree thousands of times
    the mean), low diameter (~10), avg degree ~15.
    """
    _check_size(size)
    scale = {"tiny": 9, "small": 12, "default": 14}[size]
    g = rmat(scale, edge_factor=8, seed=seed, name="soc-LiveJournal1-sim")
    return crawl_order_relabel(g)


def hollywood_sim(size: str = "default", *, seed: int = 2) -> Csr:
    """Stand-in for hollywood-2009: dense R-MAT.

    Matched properties: scale-free with *high average degree* (the paper's
    hollywood-2009 averages 105 edges/vertex; edge_factor=24 gives ~31
    post-dedup) and crawl-order id locality.  R-MAT rather than preferential
    attachment because its recursive structure carries the community-like
    clustering that makes crawl-order ids local — the property the
    Section 6.3 permutation study destroys.
    """
    _check_size(size)
    scale = {"tiny": 8, "small": 11, "default": 13}[size]
    return crawl_order_relabel(
        rmat(scale, edge_factor=24, seed=seed, name="hollywood-2009-sim")
    )


def indochina_sim(size: str = "default", *, seed: int = 3) -> Csr:
    """Stand-in for indochina-2004: extra-skewed R-MAT.

    Matched properties: web-crawl-like extreme degree skew (paper max
    in-degree 256k vs avg 8) achieved with a larger R-MAT ``a`` quadrant.
    """
    _check_size(size)
    scale = {"tiny": 9, "small": 12, "default": 14}[size]
    return crawl_order_relabel(
        rmat(scale, edge_factor=8, a=0.65, b=0.15, c=0.15, seed=seed, name="indochina-2004-sim")
    )


def road_usa_sim(size: str = "default", *, seed: int = 4) -> Csr:
    """Stand-in for road_usa: the larger, higher-diameter road mesh."""
    _check_size(size)
    rows, cols = {"tiny": (24, 20), "small": (90, 70), "default": (260, 230)}[size]
    # Block-shuffled ids: SNAP road-network ids carry weak locality (ids
    # come from source numbering, not a crawl), so the stand-in shuffles
    # within 512-id blocks; the Section 6.3 strong-locality story
    # concerns the crawl-ordered scale-free datasets.
    g = road_network(rows, cols, seed=seed, name="road_usa-sim")
    perm = block_shuffle_permutation(g.num_vertices, 512, seed=seed + 100)
    return permute_vertices(g, perm).with_name("road_usa-sim")


def roadnet_ca_sim(size: str = "default", *, seed: int = 5) -> Csr:
    """Stand-in for roadNet-CA: the smaller road mesh."""
    _check_size(size)
    rows, cols = {"tiny": (16, 14), "small": (50, 40), "default": (120, 100)}[size]
    g = road_network(rows, cols, seed=seed, name="roadNet-CA-sim")
    perm = block_shuffle_permutation(g.num_vertices, 512, seed=seed + 100)
    return permute_vertices(g, perm).with_name("roadNet-CA-sim")


@dataclass(frozen=True)
class DatasetInfo:
    """Registry entry: loader plus the paper's reported stats for context."""

    key: str
    loader: Callable[..., Csr]
    graph_type: str  # "scale-free" | "mesh-like"
    paper_vertices: str
    paper_edges: str
    paper_diameter: int


DATASETS: dict[str, DatasetInfo] = {
    "soc-LiveJournal1": DatasetInfo(
        "soc-LiveJournal1", soc_livejournal_sim, "scale-free", "4.8M", "68M", 20
    ),
    "hollywood-2009": DatasetInfo(
        "hollywood-2009", hollywood_sim, "scale-free", "1.1M", "112M", 11
    ),
    "indochina-2004": DatasetInfo(
        "indochina-2004", indochina_sim, "scale-free", "7.4M", "191M", 26
    ),
    "road_usa": DatasetInfo("road_usa", road_usa_sim, "mesh-like", "23.9M", "57M", 6809),
    "roadNet-CA": DatasetInfo("roadNet-CA", roadnet_ca_sim, "mesh-like", "1.9M", "5M", 849),
}


def _rmat8(size: str) -> Csr:
    g = rmat(8, edge_factor=6, seed=7, name="rmat8")
    return g if g.is_symmetric() else g.symmetrize()


#: the fuzzer's small reference graphs (as in ``tests/``), accepted by name
#: wherever a dataset is: a multi-seed ``repro check`` on them finishes in
#: seconds.  One fixed graph each, whatever the size preset; symmetric, so
#: every app (k-core needs an undirected graph) accepts them.
TEST_GRAPHS: dict[str, Callable[[str], Csr]] = {
    "rmat8": _rmat8,
    "grid_mesh": lambda size: grid_mesh(8, 6),
}

SCALE_FREE_KEYS = ("soc-LiveJournal1", "hollywood-2009", "indochina-2004")
MESH_KEYS = ("road_usa", "roadNet-CA")


def _normalize(name: str) -> str:
    return "".join(c for c in name.lower() if c.isalnum())


def _build_aliases() -> dict[str, str]:
    """Alias table: paper keys, loader names (``roadnet_ca_sim``) and their
    ``_sim``-less forms all resolve to the registry key."""
    aliases: dict[str, str] = {}
    for key, info in DATASETS.items():
        aliases[_normalize(key)] = key
        loader_name = _normalize(info.loader.__name__)
        aliases[loader_name] = key
        if loader_name.endswith("sim"):
            aliases[loader_name[: -len("sim")]] = key
    return aliases


_ALIASES = _build_aliases()


def resolve_dataset(name: str) -> str:
    """Map a dataset spelling to its registry key.

    Accepts the paper name (``roadNet-CA``), the loader-function name
    (``roadnet_ca_sim``) or the sim-less form (``roadnet-ca``),
    case-insensitively and ignoring punctuation, plus the exact names of
    :data:`TEST_GRAPHS`.
    """
    if name in TEST_GRAPHS:
        return name
    key = _ALIASES.get(_normalize(name))
    if key is None:
        raise KeyError(
            f"unknown dataset {name!r}; known: {sorted(DATASETS)} or {sorted(TEST_GRAPHS)}"
        )
    return key


def load_dataset(key: str, size: str = "default", *, permuted: bool = False) -> Csr:
    """Load one of the five stand-ins (or a test graph) by any accepted spelling.

    ``permuted`` applies the Section 6.3 random vertex-id permutation
    (seed 42).  Builds are memoised process-wide through
    :func:`repro.perf.buildcache.cached_graph`: every Lab, benchmark
    repeat, sweep worker and service thread that asks for the same
    (dataset, size, permuted) triple shares one read-only :class:`Csr`.
    """
    from repro.perf.buildcache import cached_graph

    rkey = resolve_dataset(key)
    if permuted:
        base = load_dataset(rkey, size)
        return cached_graph(
            ("dataset", rkey, size, "permuted"), lambda: permute_vertices(base, seed=42)
        )
    build = TEST_GRAPHS.get(rkey) or DATASETS[rkey].loader
    return cached_graph(("dataset", rkey, size), lambda: build(size))
