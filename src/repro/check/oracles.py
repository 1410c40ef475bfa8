"""Answer oracles: independent reference solutions per application.

Every oracle takes ``(graph, output, **params)`` — ``output`` being the
artifact array an :class:`~repro.apps.common.AppResult` carries (depth,
distance, label, color, status, core or rank vector) — and returns a
:class:`ValidationReport` listing named pass/fail checks.  Oracles never
consult the scheduler: references are recomputed with sequential NumPy
algorithms (BFS level sweep, binary-heap Dijkstra, DFS labelling, greedy
peeling, power iteration), so a passing report means the *answer* is
right, independent of how the simulated schedule interleaved the work.

Two kinds of check appear in a report:

* **reference equality** — for schedule-invariant fixpoints (BFS depths,
  SSSP distances, CC min-labels, lexicographic MIS, core numbers) the
  output must equal the sequential reference exactly (to float tolerance
  for distances);
* **validity predicates** — properties checkable without a reference
  (edge relaxation, proper coloring, independence *and* maximality,
  coreness witnesses, the PageRank residual bound).  These catch bugs the
  equality checks would also catch, but localise the failure ("edge
  (3, 7) is monochromatic") and, for coloring/PageRank — whose outputs
  legitimately vary with ε or speculation order — they *are* the
  definition of correct.

Entry point: :func:`validate` dispatches on the registered app name; the
``ORACLES`` registry is extensible via :func:`register_oracle` the same
way apps register adapters, and one oracle body may serve several names
(an incremental app asks its static app's question of each snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.graph.csr import Csr

__all__ = [
    "CheckResult",
    "OracleError",
    "ValidationReport",
    "ORACLES",
    "register_oracle",
    "oracle_names",
    "validate",
    "validate_epochs",
]


class OracleError(AssertionError):
    """An application's output failed oracle validation."""


@dataclass(frozen=True)
class CheckResult:
    """One named predicate's outcome."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class ValidationReport:
    """Everything one oracle checked about one run's output."""

    app: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name=name, ok=bool(ok), detail=detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def assert_valid(self) -> None:
        """Raise :class:`OracleError` listing every failed check."""
        if not self.ok:
            lines = "; ".join(str(c) for c in self.failures)
            raise OracleError(f"{self.app} failed oracle validation: {lines}")

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = ", ".join(str(c) for c in self.checks)
        return f"{self.app}: {status} ({body})"


#: app name -> oracle ``(graph, output, **params) -> ValidationReport``
ORACLES: dict[str, Callable[..., ValidationReport]] = {}


def register_oracle(*names: str) -> Callable:
    """Decorator: register one oracle body for every app in ``names``."""

    def deco(fn: Callable[..., ValidationReport]) -> Callable[..., ValidationReport]:
        for name in names:
            ORACLES[name] = fn
        return fn

    return deco


def oracle_names() -> list[str]:
    """Sorted names of every app with a registered oracle."""
    return sorted(ORACLES)


def validate(app: str, graph: Csr, result: Any, **params) -> ValidationReport:
    """Validate ``result`` (an AppResult or a raw output array) for ``app``.

    ``params`` are the same keyword arguments the run was given (``source``,
    ``weights``, ``epsilon``…); each oracle consumes the ones that define
    its reference answer and ignores the rest (e.g. PageRank's
    ``check_size``, which shapes the schedule but not the fixpoint).  The
    report is named after ``app``, also when its oracle serves several.
    """
    try:
        oracle = ORACLES[app]
    except KeyError:
        raise KeyError(f"no oracle registered for app {app!r}; known: {oracle_names()}") from None
    output = getattr(result, "output", result)
    report = oracle(graph, np.asarray(output), **params)
    report.app = app
    return report


def validate_epochs(
    app: str,
    epochs: Sequence[Any],
    *,
    validator: Callable[..., ValidationReport] = validate,
    **params: Any,
) -> ValidationReport:
    """Check each replay epoch (an :class:`~repro.apps.common.EpochResult`)
    against ``app``'s oracle on its own snapshot.

    With more than one epoch, check names carry an ``epochN:`` prefix, so
    a failure names its epoch.  ``validator`` stands in for :func:`validate`.
    """
    report = ValidationReport(app=app)
    for epoch in epochs:
        prefix = f"epoch{epoch.epoch}:" if len(epochs) > 1 else ""
        for c in validator(app, epoch.graph, epoch.result, **params).checks:
            report.add(prefix + c.name, c.ok, c.detail)
    return report


# ---------------------------------------------------------------------------
# BFS
# ---------------------------------------------------------------------------

@register_oracle("bfs")
def oracle_bfs(graph: Csr, depth: np.ndarray, *, source: int = 0, **_: Any) -> ValidationReport:
    """Depths must equal the exact BFS distances and relax every edge."""
    from repro.apps.bfs import UNREACHED, reference_depths

    rep = ValidationReport(app="bfs")
    ref = reference_depths(graph, source)
    rep.add(
        "matches-reference",
        np.array_equal(depth, ref),
        f"{int((depth != ref).sum())}/{depth.size} vertices deviate",
    )
    rep.add("source-depth-zero", depth.size > source and depth[source] == 0)
    # independent predicate: along every edge (u, v) with u reached,
    # depth[v] <= depth[u] + 1 (no edge left relaxed), and no vertex other
    # than the source claims depth 0
    edges = graph.edge_array()
    reached = depth[edges[:, 0]] != UNREACHED
    relaxed = depth[edges[:, 1]][reached] <= depth[edges[:, 0]][reached] + 1
    rep.add("edges-relaxed", bool(relaxed.all()), f"{int((~relaxed).sum())} unrelaxed edges")
    zero_claims = np.flatnonzero(depth == 0)
    rep.add("unique-root", zero_claims.size == 1 and zero_claims[0] == source)
    return rep


# ---------------------------------------------------------------------------
# SSSP (speculative and delta-stepping share one oracle)
# ---------------------------------------------------------------------------

@register_oracle("sssp", "delta-sssp")
def oracle_sssp(
    graph: Csr,
    dist: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    source: int = 0,
    **_: Any,
) -> ValidationReport:
    """Distances must match Dijkstra and admit no further relaxation.

    Delta-stepping answers the same question: its ``delta`` and
    ``max_rounds`` only shape the schedule, so they fall into ``**_``.
    """
    from repro.apps.sssp import reference_distances, uniform_weights

    if weights is None:
        weights = uniform_weights(graph)
    weights = np.asarray(weights, dtype=np.float64)
    rep = ValidationReport(app="sssp")
    ref = reference_distances(graph, weights, source)
    both_inf = np.isinf(ref) & np.isinf(dist)
    close = np.isclose(ref, dist, rtol=1e-9, atol=1e-9)
    bad = ~(both_inf | close)
    rep.add("matches-dijkstra", not bad.any(), f"{int(bad.sum())}/{dist.size} vertices deviate")
    rep.add("source-zero", dist.size > source and dist[source] == 0.0)
    # triangle inequality on every edge from a reached vertex: the
    # distance labelling must be a fixpoint of relaxation
    src_idx = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    finite = np.isfinite(dist[src_idx])
    slack = dist[graph.indices[finite]] - (dist[src_idx[finite]] + weights[finite])
    rep.add(
        "edges-relaxed",
        bool((slack <= 1e-9).all()) if slack.size else True,
        f"{int((slack > 1e-9).sum())} relaxable edges remain" if slack.size else "",
    )
    return rep


# ---------------------------------------------------------------------------
# Connected components
# ---------------------------------------------------------------------------

@register_oracle("cc")
def oracle_cc(graph: Csr, labels: np.ndarray, **_: Any) -> ValidationReport:
    """Labels must be the min-id component labelling and edge-consistent."""
    from repro.apps.cc import reference_components

    rep = ValidationReport(app="cc")
    ref = reference_components(graph)
    rep.add(
        "matches-reference",
        np.array_equal(labels, ref),
        f"{int((labels != ref).sum())}/{labels.size} vertices deviate",
    )
    # independent predicate: both endpoints of every (symmetrized) edge
    # agree, and each label is the minimum vertex id of its class
    sym = graph if graph.is_symmetric() else graph.symmetrize()
    edges = sym.edge_array()
    agree = labels[edges[:, 0]] == labels[edges[:, 1]]
    rep.add("edge-agreement", bool(agree.all()), f"{int((~agree).sum())} split edges")
    # one pass, not one scan per class: every label is a vertex id no
    # larger than its member's own id, and the vertex it names carries it
    ids = np.arange(labels.size)
    members_ok = bool(
        (labels >= 0).all() and (labels <= ids).all() and (labels[labels] == labels).all()
    )
    rep.add("labels-are-min-ids", members_ok)
    return rep


# ---------------------------------------------------------------------------
# Graph coloring
# ---------------------------------------------------------------------------

@register_oracle("coloring")
def oracle_coloring(graph: Csr, colors: np.ndarray, **_: Any) -> ValidationReport:
    """Every vertex colored, no monochromatic edge, palette not absurd.

    Speculative coloring's palette depends on the schedule, so there is no
    reference array to compare against — properness *is* correctness.  The
    palette bound ``max_color <= max_degree`` (greedy never exceeds it)
    guards against wild overshoot without pinning a specific coloring.
    """
    from repro.apps.coloring import count_conflicts

    rep = ValidationReport(app="coloring")
    rep.add(
        "all-colored",
        bool((colors >= 0).all()),
        f"{int((colors < 0).sum())} uncolored vertices",
    )
    conflicts = count_conflicts(graph, colors)
    rep.add("conflict-free", conflicts == 0, f"{conflicts} monochromatic edges")
    degrees = np.diff(graph.indptr)
    max_deg = int(degrees.max()) if degrees.size else 0
    rep.add(
        "palette-bounded",
        int(colors.max(initial=0)) <= max_deg,
        f"max color {int(colors.max(initial=0))} > max degree {max_deg}",
    )
    return rep


# ---------------------------------------------------------------------------
# Maximal independent set
# ---------------------------------------------------------------------------

@register_oracle("mis")
def oracle_mis(graph: Csr, status: np.ndarray, **_: Any) -> ValidationReport:
    """Independent, maximal, and equal to the lexicographic fixed point."""
    from repro.apps.mis import IN, OUT, reference_mis

    rep = ValidationReport(app="mis")
    edges = graph.edge_array()
    mono = (status[edges[:, 0]] == IN) & (status[edges[:, 1]] == IN)
    rep.add("independent", not mono.any(), f"{int(mono.sum())} edges inside the set")
    not_maximal = 0
    for v in range(graph.num_vertices):
        if status[v] == OUT and not (status[graph.neighbors(v)] == IN).any():
            not_maximal += 1
    rep.add("maximal", not_maximal == 0, f"{not_maximal} addable vertices")
    ref = reference_mis(graph)
    rep.add(
        "lexicographically-first",
        np.array_equal(status, ref),
        f"{int((status != ref).sum())}/{status.size} vertices deviate",
    )
    return rep


# ---------------------------------------------------------------------------
# k-core decomposition
# ---------------------------------------------------------------------------

@register_oracle("kcore")
def oracle_kcore(graph: Csr, core: np.ndarray, **_: Any) -> ValidationReport:
    """Core numbers must equal the peeling reference, with local witnesses.

    The witness predicate: every vertex ``v`` must have at least
    ``core[v]`` neighbors of core number ``>= core[v]`` (membership in its
    own k-core), and ``core[v] <= degree(v)``.
    """
    from repro.apps.kcore import reference_core_numbers

    rep = ValidationReport(app="kcore")
    ref = reference_core_numbers(graph)
    rep.add(
        "matches-reference",
        np.array_equal(core, ref),
        f"{int((core != ref).sum())}/{core.size} vertices deviate",
    )
    degrees = np.diff(graph.indptr)
    rep.add("bounded-by-degree", bool((core <= degrees).all()))
    witness_fail = 0
    for v in range(graph.num_vertices):
        k = int(core[v])
        if k and int((core[graph.neighbors(v)] >= k).sum()) < k:
            witness_fail += 1
    rep.add("core-witnesses", witness_fail == 0, f"{witness_fail} vertices lack witnesses")
    return rep


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------

@register_oracle("pagerank")
def oracle_pagerank(
    graph: Csr,
    rank: np.ndarray,
    *,
    lam: float | None = None,
    epsilon: float | None = None,
    signed: bool = False,
    **_: Any,
) -> ValidationReport:
    """Residual-bound convergence of the push-PageRank fixpoint.

    Push PageRank maintains ``residue = (1-λ)·1 + λ·AᵀD⁻¹·rank − rank``
    exactly; at quiescence every residue is in ``[0, ε]``.  The oracle
    recomputes that residual from the rank vector alone (it never trusts
    the kernel's own residue array) and additionally bounds the distance
    to the power-iteration fixpoint: each unresolved residue contributes at
    most ``ε/(1-λ)`` of rank mass, so ``|rank − p*|∞ ≤ n·ε/(1-λ)``.

    ``signed=True`` (``pagerank-inc``, see the aliases below) checks
    ``|residual| <= ε`` instead, with no ``residual-nonnegative``.
    """
    from repro.apps.pagerank import DEFAULT_EPSILON, DEFAULT_LAMBDA, max_rank_error

    lam = DEFAULT_LAMBDA if lam is None else float(lam)
    epsilon = DEFAULT_EPSILON if epsilon is None else float(epsilon)
    rep = ValidationReport(app="pagerank")
    n = graph.num_vertices
    out_deg = np.maximum(graph.out_degrees().astype(np.float64), 1.0)
    edges = graph.edge_array()
    contrib = np.zeros(n, dtype=np.float64)
    np.add.at(contrib, edges[:, 1], lam * rank[edges[:, 0]] / out_deg[edges[:, 0]])
    residual = (1.0 - lam) + contrib - rank
    tol = 1e-8
    if signed:
        worst = float(np.abs(residual).max()) if residual.size else 0.0
        rep.add(
            "residual-converged",
            worst <= epsilon + tol,
            f"max |residual| {worst:.3e} > epsilon {epsilon:.1e}",
        )
    else:
        rep.add(
            "residual-nonnegative",
            bool((residual >= -tol).all()),
            f"min residual {residual.min():.3e} (rank overshoot)",
        )
        rep.add(
            "residual-converged",
            bool((residual <= epsilon + tol).all()),
            f"max residual {residual.max():.3e} > epsilon {epsilon:.1e}",
        )
    bound = n * epsilon / (1.0 - lam) + tol
    err = max_rank_error(graph, rank, lam=lam)
    rep.add(
        "close-to-fixpoint",
        err <= bound,
        f"max error {err:.3e} > bound {bound:.3e}",
    )
    return rep


# ---------------------------------------------------------------------------
# Incremental (dynamic-graph) variants — the differential oracle
# ---------------------------------------------------------------------------
#
# The dynamic replay harness (repro.apps.common.replay_app) validates the
# incremental kernels' state after *every* epoch against the materialized
# CSR snapshot of that epoch.  BFS and CC converge to schedule-invariant
# fixpoints, so "incremental == from-scratch recompute" is literally the
# static oracle's exact reference-equality check evaluated on the mutated
# graph — the static oracles serve both names.  Incremental PageRank needs
# its own residual predicate: a rebase injects *signed* residues (a deleted
# edge withdraws rank mass), so at quiescence the recomputed residual lies
# in [-ε, ε] rather than [0, ε]; everything else (the residual
# recomputation from the rank vector alone, the fixpoint-distance bound)
# is identical.

register_oracle("bfs-inc")(oracle_bfs)
register_oracle("cc-inc")(oracle_cc)
register_oracle("pagerank-inc")(partial(oracle_pagerank, signed=True))
