"""Compressed-sparse-row (CSR) graph storage.

The CSR layout mirrors what Atos and Gunrock use on the GPU: an ``indptr``
array of ``num_vertices + 1`` offsets and an ``indices`` array holding the
concatenated neighbor lists.  All algorithm code in this repository reads
neighbor lists through :meth:`Csr.neighbors` (a zero-copy view) or through
vectorised gathers on ``indptr``/``indices`` directly.

Design notes
------------
* Arrays are stored C-contiguous and read-only (``writeable=False``) so that
  algorithm code cannot accidentally mutate the graph mid-run; the discrete
  event simulator relies on the graph being immutable while shared state
  (depths, ranks, colors) evolves.
* Vertex ids and offsets are ``int64`` throughout.  The paper's datasets go
  up to 191M edges; our stand-ins are far smaller, but int64 keeps the code
  path identical to what a full-scale run would need and avoids silent
  overflow in degree prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Csr", "from_edges"]


def _as_index_array(values: object) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D index array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Csr:
    """An immutable directed graph in compressed-sparse-row form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; ``indptr[v]`` is the
        offset of vertex ``v``'s neighbor list inside ``indices``.
    indices:
        ``int64`` array of length ``num_edges`` with the destination vertex
        of every edge, grouped by source vertex.

    The constructor validates monotonicity of ``indptr`` and the range of
    ``indices`` and then freezes both arrays.
    """

    indptr: np.ndarray
    indices: np.ndarray
    name: str = field(default="csr", compare=False)

    def __post_init__(self) -> None:
        indptr = _as_index_array(self.indptr)
        indices = _as_index_array(self.indices)
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise ValueError(f"indptr[0] must be 0, got {indptr[0]}")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.size})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(
                f"indices out of range [0, {n}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        indptr = np.ascontiguousarray(indptr)
        indices = np.ascontiguousarray(indices)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|`` (CSR entries)."""
        return self.indices.size

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Csr(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

    # ------------------------------------------------------------------
    # Neighbor access
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> np.ndarray:
        """Zero-copy view of ``vertex``'s out-neighbor list."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Out-degree of one vertex."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, as an ``int64`` array."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (histogram over ``indices``)."""
        return np.bincount(self.indices, minlength=self.num_vertices).astype(np.int64)

    def frontier_edges(self, frontier: Sequence[int] | np.ndarray) -> int:
        """Total out-degree of a frontier (used by the BSP cost model)."""
        f = _as_index_array(frontier)
        if f.size == 0:
            return 0
        return int((self.indptr[f + 1] - self.indptr[f]).sum())

    def segments(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segmented gather of the neighbor lists of ``items``.

        Returns ``(pos, flat, degrees)``: ``degrees[i]`` is the out-degree
        of ``items[i]``, and gathered edge ``k`` is CSR entry ``flat[k]`` of
        source ``items[pos[k]]`` (its neighbor is ``indices[flat[k]]``, its
        weight ``weights[flat[k]]``).  Edges come in item order, each list
        in CSR order.  This is the vectorised load-balancing search of the
        paper (Section 3.3): one gather expands a whole batch, which is how
        the BSP runners and every multi-item task read their edges.
        """
        starts = self.indptr[items]
        degrees = self.indptr[items + 1] - starts
        pos = np.repeat(np.arange(degrees.size), degrees)
        # CSR offset = segment start + rank inside the segment
        base = starts - np.cumsum(degrees) + degrees
        flat = np.arange(pos.size) + base[pos]
        return pos, flat, degrees

    def gather_neighbors(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, destinations)`` of every out-edge of ``frontier``,
        flattened in frontier order (see :meth:`segments`)."""
        frontier = _as_index_array(frontier)
        pos, flat, _ = self.segments(frontier)
        return frontier[pos], self.indices[flat]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all directed edges as ``(src, dst)`` pairs (slow path)."""
        for v in range(self.num_vertices):
            for w in self.neighbors(v):
                yield v, int(w)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(E, 2)`` array (vectorised)."""
        sources = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.out_degrees())
        return np.stack([sources, self.indices], axis=1)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def transpose(self) -> "Csr":
        """Reverse every edge (CSR of the transposed adjacency matrix)."""
        edges = self.edge_array()
        return from_edges(
            self.num_vertices,
            np.stack([edges[:, 1], edges[:, 0]], axis=1),
            name=f"{self.name}^T",
            dedup=False,
        )

    def symmetrize(self) -> "Csr":
        """Union of the graph and its transpose, with duplicates removed."""
        edges = self.edge_array()
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        return from_edges(self.num_vertices, both, name=f"{self.name}+sym", dedup=True)

    def remove_self_loops(self) -> "Csr":
        """Drop ``v -> v`` edges."""
        edges = self.edge_array()
        keep = edges[:, 0] != edges[:, 1]
        return from_edges(self.num_vertices, edges[keep], name=self.name, dedup=False)

    def subgraph(self, vertices: Sequence[int] | np.ndarray) -> "Csr":
        """Induced subgraph on ``vertices``, relabelled to ``0..k-1``.

        The relabelling preserves the relative order of the selected vertex
        ids, which keeps the "consecutive ids are likely neighbors" property
        the coloring study depends on.
        """
        vs = np.unique(_as_index_array(vertices))
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[vs] = np.arange(vs.size, dtype=np.int64)
        edges = self.edge_array()
        keep = (remap[edges[:, 0]] >= 0) & (remap[edges[:, 1]] >= 0)
        kept = edges[keep]
        remapped = np.stack([remap[kept[:, 0]], remap[kept[:, 1]]], axis=1)
        return from_edges(vs.size, remapped, name=f"{self.name}[sub]", dedup=False)

    def with_name(self, name: str) -> "Csr":
        """Return the same graph under a different display name."""
        return Csr(self.indptr, self.indices, name=name)

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def is_symmetric(self) -> bool:
        """True when every edge has a reverse edge."""
        fwd = self.edge_array()
        a = fwd[np.lexsort((fwd[:, 1], fwd[:, 0]))]
        rev = fwd[:, ::-1]
        b = rev[np.lexsort((rev[:, 1], rev[:, 0]))]
        return bool(np.array_equal(a, b))

    def has_sorted_neighbor_lists(self) -> bool:
        """True when each vertex's neighbor list is ascending."""
        for v in range(self.num_vertices):
            nb = self.neighbors(v)
            if nb.size > 1 and np.any(np.diff(nb) < 0):
                return False
        return True


def from_edges(
    num_vertices: int,
    edges: Iterable[tuple[int, int]] | np.ndarray,
    *,
    name: str = "csr",
    dedup: bool = True,
    sort_neighbors: bool = True,
) -> Csr:
    """Build a :class:`Csr` from an edge list.

    Parameters
    ----------
    num_vertices:
        The vertex-id domain is ``[0, num_vertices)``.
    edges:
        ``(E, 2)`` array or iterable of ``(src, dst)`` pairs.
    dedup:
        Remove duplicate edges (parallel edges) when True.
    sort_neighbors:
        Sort each neighbor list ascending (canonical CSR).
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be (E, 2), got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
        raise ValueError("edge endpoints out of range")
    if sort_neighbors or dedup:
        order = np.lexsort((arr[:, 1], arr[:, 0]))
        arr = arr[order]
    if dedup and arr.shape[0] > 1:
        keep = np.concatenate(([True], np.any(arr[1:] != arr[:-1], axis=1)))
        arr = arr[keep]
    counts = np.bincount(arr[:, 0], minlength=num_vertices).astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Csr(indptr=indptr, indices=arr[:, 1].copy(), name=name)
