"""Job specifications and content addressing for the scheduler service.

A :class:`JobSpec` names one deterministic unit of work — a static run, a
perturbed (seeded) run, or a dynamic edit-replay — in plain JSON scalars,
so it can cross the HTTP boundary, be hashed, and be replayed serially
for verification.  Three derived quantities make the service work:

* :func:`job_key` — the content address: SHA-256 over the *canonical*
  job identity ``(app, dataset-topology-digest, config-digest, seed,
  edits, permuted, params)``.  The dataset enters by topology digest
  (:meth:`repro.graph.csr.Csr.topology_digest`), not by name, and the
  configuration by :meth:`repro.core.config.AtosConfig.digest` of the
  *effective* config (devices/partition folded in), so aliases and
  renames share entries while any knob that changes simulated behavior
  separates them.
* :func:`execute_spec` — the one way a spec becomes a result, used by
  the broker's worker pool *and* by tests/benchmarks as the serial
  reference, so "service response == direct run" is comparing two walks
  of the same code path on independent Lab state.
* :func:`result_digest` — 16-hex digest over the algorithmic surface of
  an :class:`~repro.apps.common.AppResult` (identity, simulated clock,
  counters, and the raw output array bytes).  Equal digests across the
  service and a direct run certify bit-identical simulation end to end.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.apps.common import AppResult

__all__ = [
    "JobSpec",
    "JobResult",
    "JobSpecError",
    "job_key",
    "result_digest",
    "execute_spec",
    "spec_from_dict",
]

#: job kinds, derived: ``edits`` set -> replay; ``seed`` > 0 -> perturbed
_SIZES = ("tiny", "small", "default")


class JobSpecError(ValueError):
    """A malformed or unsatisfiable job specification (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One deterministic job: what to run, on what, and under which knobs.

    ``seed`` selects a schedule perturbation
    (:func:`repro.check.fuzz.perturbation`): ``0`` is the unperturbed
    run, any positive seed is a distinct — still fully deterministic —
    schedule, so seeds multiply the cacheable universe instead of
    defeating the cache.  ``edits`` routes the job through the dynamic
    edit-replay harness (:func:`repro.apps.dynamic.replay_app`).
    ``params`` are extra kernel arguments (e.g. ``source`` for BFS) as a
    sorted tuple of pairs so the spec stays hashable and canonical.
    """

    app: str
    dataset: str
    config: str = "persist-CTA"
    size: str = "small"
    seed: int = 0
    edits: str | None = None
    devices: int | None = None
    partition: str | None = None
    permuted: bool = False
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.params, tuple):
            object.__setattr__(
                self, "params", tuple(sorted(dict(self.params).items()))
            )
        else:
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    def to_dict(self) -> dict:
        """JSON-ready form (the HTTP request body's ``job`` object)."""
        doc = asdict(self)
        doc["params"] = dict(self.params)
        return doc

    def describe(self) -> str:
        bits = [f"{self.app}/{self.dataset}/{self.config}", f"size={self.size}"]
        if self.seed:
            bits.append(f"seed={self.seed}")
        if self.edits:
            bits.append(f"edits={self.edits}")
        if self.devices and self.devices > 1:
            bits.append(f"devices={self.devices}")
        return " ".join(bits)


_SPEC_FIELDS = {f.name for f in fields(JobSpec)}


def spec_from_dict(doc: object) -> JobSpec:
    """Parse an untrusted JSON object into a :class:`JobSpec`.

    Raises :class:`JobSpecError` with a one-line message on anything
    malformed: wrong container type, unknown keys, wrong value types.
    Name resolution (does the app exist?) happens later in
    :func:`validate_spec` so schema errors and lookup errors read
    differently to a client.
    """
    if not isinstance(doc, dict):
        raise JobSpecError(f"job must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _SPEC_FIELDS)
    if unknown:
        raise JobSpecError(f"unknown job field(s): {', '.join(unknown)}")
    if "app" not in doc or "dataset" not in doc:
        raise JobSpecError("job needs at least 'app' and 'dataset'")
    clean = dict(doc)
    params = clean.pop("params", {})
    if not isinstance(params, dict):
        raise JobSpecError("'params' must be a JSON object")
    for key, typ, label in (
        ("app", str, "a string"),
        ("dataset", str, "a string"),
        ("config", str, "a string"),
        ("size", str, "a string"),
        ("seed", int, "an integer"),
        ("permuted", bool, "a boolean"),
    ):
        if key in clean and not isinstance(clean[key], typ):
            raise JobSpecError(f"'{key}' must be {label}")
    for key in ("edits", "partition"):
        if clean.get(key) is not None and not isinstance(clean[key], str):
            raise JobSpecError(f"'{key}' must be a string or null")
    if clean.get("devices") is not None and not isinstance(clean["devices"], int):
        raise JobSpecError("'devices' must be an integer or null")
    try:
        return JobSpec(params=tuple(sorted(params.items())), **clean)
    except TypeError as exc:  # defensive: surfaced as a schema error
        raise JobSpecError(str(exc)) from exc


def validate_spec(spec: JobSpec) -> None:
    """Resolve every name in ``spec``; raise :class:`JobSpecError` if any fails.

    Run by the broker *before* a job is queued, so a bad request is
    rejected synchronously (HTTP 400) instead of burning a worker slot.
    """
    from repro.apps.common import APP_REGISTRY, get_adapter
    from repro.core.config import CONFIGS
    from repro.core.policy import policy_for
    from repro.graph.datasets import resolve_dataset

    if spec.app not in APP_REGISTRY:
        raise JobSpecError(
            f"unknown app {spec.app!r}; known: {', '.join(sorted(APP_REGISTRY))}"
        )
    if spec.config not in CONFIGS:
        raise JobSpecError(
            f"unknown config {spec.config!r}; known: {', '.join(sorted(CONFIGS))}"
        )
    if spec.size not in _SIZES:
        raise JobSpecError(f"unknown size {spec.size!r}; known: {', '.join(_SIZES)}")
    try:
        resolve_dataset(spec.dataset)
    except KeyError as exc:
        raise JobSpecError(str(exc.args[0]) if exc.args else str(exc)) from exc
    if spec.seed < 0:
        raise JobSpecError("seed must be >= 0 (0 = unperturbed)")
    if spec.devices is not None and spec.devices < 1:
        raise JobSpecError("devices must be >= 1")
    if spec.partition is not None:
        from repro.graph.partition import PARTITION_CHOICES

        if spec.partition not in PARTITION_CHOICES:
            raise JobSpecError(
                f"unknown partition {spec.partition!r}; "
                f"known: {', '.join(PARTITION_CHOICES)}"
            )
    adapter = get_adapter(spec.app)
    config = CONFIGS[spec.config]
    if spec.edits is not None and not adapter.dynamic:
        raise JobSpecError(
            f"'edits' needs a dynamic app (bfs-inc, cc-inc, pagerank-inc); "
            f"{spec.app!r} is static"
        )
    if adapter.dynamic and spec.edits is None:
        raise JobSpecError(f"dynamic app {spec.app!r} needs an 'edits' script")
    if spec.seed and policy_for(config).app_level:
        raise JobSpecError(
            f"seed > 0 perturbs the engine schedule; config {spec.config!r} "
            "runs at application level (BSP) and has no engine"
        )
    if spec.edits is not None:
        from repro.graph.delta import _SPEC_RE

        if _SPEC_RE.match(spec.edits.strip()) is None:
            raise JobSpecError(
                f"bad edits spec {spec.edits!r}; "
                "expected EPOCHSxBATCH@SEED[dFRAC], e.g. 3x32@7"
            )


def effective_config(spec: JobSpec):
    """The :class:`~repro.core.config.AtosConfig` the job actually runs.

    Applies the spec's devices/partition rebase exactly like :class:`repro.harness.runner.Lab` does, so the config
    digest inside :func:`job_key` addresses the *simulated machine*, not
    the preset name the client typed.
    """
    from repro.core.config import CONFIGS, KernelStrategy

    config = CONFIGS[spec.config]
    if spec.devices and spec.devices > 1 and config.strategy is not KernelStrategy.BSP:
        overrides: dict = {
            "strategy": KernelStrategy.DISTRIBUTED,
            "devices": spec.devices,
        }
        if spec.partition is not None:
            overrides["partition"] = spec.partition
        config = config.with_overrides(**overrides)
    return config


def dataset_digest(spec: JobSpec) -> str:
    """Topology digest of the job's dataset at the job's size preset.

    Goes through the process-wide build cache
    (:mod:`repro.perf.buildcache`), so after the first request for a
    (dataset, size) pair this is a dictionary lookup plus a memoised
    digest read — cheap enough to run at submit time on every request.
    """
    from repro.graph.datasets import load_dataset, resolve_dataset

    return load_dataset(resolve_dataset(spec.dataset), spec.size).topology_digest()


def job_key(spec: JobSpec, *, graph_digest: str | None = None) -> str:
    """The content address of one job (hex SHA-256).

    Every component that can change the result is folded in;
    everything cosmetic (config
    *name*, dataset *alias*) is already normalised away by the digests.
    Memoised per spec (datasets are immutable per (name, size), so the
    address can never go stale) — this sits on the broker's warm path,
    where recomputing the dataset digest would dominate hit latency.
    """
    if graph_digest is None:
        try:
            return _job_key_cached(spec)
        except TypeError:
            pass  # unhashable param value: compute without the memo
    return _job_key_uncached(spec, graph_digest)


@functools.lru_cache(maxsize=4096)
def _job_key_cached(spec: JobSpec) -> str:
    return _job_key_uncached(spec, None)


def _job_key_uncached(spec: JobSpec, graph_digest: str | None) -> str:
    ident = {
        "app": spec.app,
        "dataset": graph_digest or dataset_digest(spec),
        "config": effective_config(spec).digest(),
        "seed": spec.seed,
        "edits": spec.edits,
        "permuted": spec.permuted,
        "params": [[k, v] for k, v in spec.params],
    }
    payload = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Result digest + execution
# ---------------------------------------------------------------------------

def result_digest(result: AppResult) -> str:
    """16-hex digest over the algorithmic surface of a finished run.

    Covers the identity triple, the simulated clock, the work/retire/
    launch counters and the raw output array bytes — everything the
    paper's tables are derived from.  ``extra`` (advisory diagnostics,
    optionally-attached metrics) stays out so the digest is stable
    across observability choices; byte-level cache integrity is handled
    separately by the cache's payload checksum.
    """
    h = hashlib.sha256()
    header = json.dumps(
        {
            "app": result.app,
            "impl": result.impl,
            "dataset": result.dataset,
            "elapsed_ns": repr(float(result.elapsed_ns)),
            "work_units": repr(float(result.work_units)),
            "items_retired": int(result.items_retired),
            "iterations": int(result.iterations),
            "kernel_launches": int(result.kernel_launches),
            "dtype": str(result.output.dtype),
            "shape": list(result.output.shape),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    h.update(header.encode("utf-8"))
    h.update(np.ascontiguousarray(result.output).tobytes())
    return h.hexdigest()[:16]


def execute_spec(spec: JobSpec, lab=None, *, sink=None) -> AppResult:
    """Run one job to completion and return its :class:`AppResult`.

    The single execution path shared by the broker's worker pool and the
    serial verification harness.  ``lab`` supplies warm state (graph and
    result memos); ``None`` builds a fresh one — semantics are identical
    either way because every run is deterministic.

    ``sink`` attaches an observability sink (event capture for traced
    jobs).  Sinks are passive — attaching one cannot change simulated
    results — but a sink must observe a *fresh* execution, so a static
    job with a sink routes through :meth:`Lab.run_config` (never
    memoised) instead of the memoising :meth:`Lab.run`.

    Dynamic jobs (``edits``) replay through
    :func:`repro.apps.dynamic.replay_app` and return the *final epoch's*
    result with replay totals folded into ``extra`` — NEVER through a
    warm Lab's memo: the memo key (app, dataset, impl, permuted) does
    not include the edit script, so serving replays from it would hand
    job B whatever edit script job A ran (see
    :meth:`repro.service.pool.LabPool.run` and the regression tests in
    ``tests/test_perf.py``).
    """
    from repro.harness.runner import Lab

    validate_spec(spec)
    if lab is None:
        lab = Lab(
            size=spec.size,
            devices=spec.devices,
            partition=spec.partition,
        )
    if spec.edits is not None:
        dres = lab.replay(
            spec.app, _resolved(spec), spec.config, spec.edits,
            sink=sink, perturb=_perturb(spec), **dict(spec.params),
        )
        final = dres.final
        final.extra["replay_edits"] = dres.edits
        final.extra["replay_epochs"] = len(dres.epochs)
        final.extra["replay_total_elapsed_ns"] = float(dres.total_elapsed_ns)
        final.extra["replay_total_work_units"] = float(dres.total_work_units)
        return final
    if spec.seed or spec.params:
        # perturbed or parameterised runs must not touch the Lab memo —
        # its key has neither seed nor params
        from repro.apps.common import run_app

        return run_app(
            spec.app,
            lab.graph(_resolved(spec), permuted=spec.permuted),
            effective_config(spec),
            spec=lab.spec,
            max_tasks=lab.max_tasks,
            sink=sink,
            perturb=_perturb(spec),
            **dict(spec.params),
        )
    if sink is not None:
        from repro.core.config import CONFIGS

        return lab.run_config(
            spec.app, _resolved(spec), CONFIGS[spec.config],
            permuted=spec.permuted, sink=sink,
        )
    return lab.run(spec.app, _resolved(spec), spec.config, permuted=spec.permuted)


def _resolved(spec: JobSpec) -> str:
    from repro.graph.datasets import resolve_dataset

    return resolve_dataset(spec.dataset)


def _perturb(spec: JobSpec):
    if not spec.seed:
        return None
    from repro.check.fuzz import perturbation

    return perturbation(spec.seed)


# ---------------------------------------------------------------------------
# The service's response record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JobResult:
    """What the broker hands back (and the HTTP layer serialises).

    ``digest`` is :func:`result_digest` of the underlying run — the
    number a client compares against its own serial reference.
    ``cached`` distinguishes a content-address hit from a fresh
    execution; ``attempts`` counts executions including fault-injected
    retries; ``wall_ms`` is service-side latency (queue wait included).
    ``trace_id`` names the job's span trace (:mod:`repro.dash.trace`),
    fetchable at ``GET /v1/traces/<id>`` while retained; ``None`` when
    the broker runs with tracing off.
    """

    spec: JobSpec
    digest: str
    elapsed_ms: float
    work_units: float
    items_retired: int
    iterations: int
    kernel_launches: int
    cached: bool
    attempts: int
    wall_ms: float
    tenant: str = "default"
    trace_id: str | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "job": self.spec.to_dict(),
            "digest": self.digest,
            "elapsed_ms": self.elapsed_ms,
            "work_units": self.work_units,
            "items_retired": self.items_retired,
            "iterations": self.iterations,
            "kernel_launches": self.kernel_launches,
            "cached": self.cached,
            "attempts": self.attempts,
            "wall_ms": self.wall_ms,
            "tenant": self.tenant,
            "trace_id": self.trace_id,
        }


def make_job_result(
    spec: JobSpec,
    result: AppResult,
    *,
    cached: bool,
    attempts: int,
    wall_ms: float,
    tenant: str,
    trace_id: str | None = None,
) -> JobResult:
    extra = {
        k: result.extra[k]
        for k in ("replay_edits", "replay_epochs", "replay_total_elapsed_ns")
        if k in result.extra
    }
    return JobResult(
        spec=spec,
        digest=result_digest(result),
        elapsed_ms=float(result.elapsed_ns) / 1e6,
        work_units=float(result.work_units),
        items_retired=int(result.items_retired),
        iterations=int(result.iterations),
        kernel_launches=int(result.kernel_launches),
        cached=cached,
        attempts=attempts,
        wall_ms=wall_ms,
        tenant=tenant,
        trace_id=trace_id,
        extra=extra,
    )
