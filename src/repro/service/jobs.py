"""The run identity: :class:`RunSpec`, its content address and its one execution path.

A :class:`RunSpec` names one deterministic run — a static run, a
perturbed (seeded) run, or a dynamic edit-replay — in plain JSON
scalars, so it can cross the HTTP boundary, be hashed, and be replayed
serially for verification.  It is the only description of "which run"
in the repository: the :class:`~repro.harness.runner.Lab` memo key, the
cell of a parallel sweep (:func:`repro.perf.parallel.run_cells`), the
service's job and every CLI command that runs a cell all build one.  Three
derived quantities make it work:

* :func:`job_key` — the content address: SHA-256 over the *canonical*
  spec.  A spec canonicalises once, at construction (dataset alias,
  sorted ``params``, fields the run ignores), so two specs share a key
  exactly when they are the same run.
* :func:`execute_spec` — the only code that turns a spec into an
  :class:`~repro.apps.common.AppResult`, used by every entry point, so
  "service response == Lab == sweep == CLI" compares walks of one path.
* :func:`result_digest` — 16-hex digest over the algorithmic surface of
  an :class:`~repro.apps.common.AppResult` (identity, simulated clock,
  counters, and the raw output array bytes).  Equal digests across the
  service and a direct run certify bit-identical simulation end to end.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.apps.common import AppResult, replay_app
from repro.core.config import CONFIGS, AtosConfig, KernelStrategy
from repro.graph.csr import Csr
from repro.graph.datasets import SIZES, load_dataset, resolve_dataset
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = [
    "RunSpec",
    "JobResult",
    "JobSpecError",
    "job_key",
    "result_digest",
    "execute_spec",
    "spec_from_dict",
]


class JobSpecError(ValueError):
    """A malformed or unsatisfiable job specification (HTTP 400)."""


@dataclass(frozen=True)
class RunSpec:
    """One deterministic run: what to run, on what, and under which knobs.

    ``impl`` names a preset of :data:`repro.core.config.CONFIGS` (the JSON
    key is ``config``).  ``seed`` selects a schedule perturbation
    (:func:`repro.check.fuzz.perturbation`): ``0`` is the unperturbed
    run, any positive seed is a distinct — still fully deterministic —
    schedule.  ``edits`` replays an edit script through a dynamic app
    (:func:`repro.apps.common.replay_app`).  ``devices``/``partition``
    rebase the preset onto the distributed strategy
    (:meth:`~repro.core.config.AtosConfig.on_devices`).  ``permuted``
    runs on the Section 6.3 id-permuted graph.  ``params`` are extra
    kernel arguments (e.g. ``source`` for BFS), a sorted tuple of pairs.

    Construction canonicalises: the dataset alias resolves to its
    registry key, ``params`` sort, and fields the run ignores drop to
    ``None`` (``devices`` of 1, ``partition`` without ``devices``, and
    both on the BSP preset).  Invalid values are kept as given so
    :func:`validate_spec` can name them.
    """

    app: str
    dataset: str
    impl: str = "persist-CTA"
    size: str = "small"
    seed: int = 0
    edits: str | None = None
    devices: int | None = None
    partition: str | None = None
    permuted: bool = False
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "dataset", resolve_dataset(self.dataset))
        except KeyError:
            pass  # validate_spec names the unknown dataset
        params = self.params.items() if isinstance(self.params, dict) else self.params
        object.__setattr__(self, "params", tuple(sorted(params)))
        preset = CONFIGS.get(self.impl)
        if self.devices == 1 or (preset is not None and preset.strategy is KernelStrategy.BSP):
            object.__setattr__(self, "devices", None)
        if self.devices is None:
            object.__setattr__(self, "partition", None)

    def atos_config(self) -> AtosConfig:
        """The configuration the run executes: the preset, rebased onto ``devices``."""
        if self.impl not in CONFIGS:
            raise KeyError(f"unknown implementation {self.impl!r}; known: {sorted(CONFIGS)}")
        return CONFIGS[self.impl].on_devices(self.devices, self.partition)

    def graph(self) -> Csr:
        """The input graph, shared through the process-wide build cache."""
        return load_dataset(self.dataset, self.size, permuted=self.permuted)

    def perturbation(self):
        """The engine's pop-stagger hook for ``seed`` (``None`` when unperturbed)."""
        if not self.seed:
            return None
        from repro.check.fuzz import perturbation

        return perturbation(self.seed)

    def to_dict(self) -> dict:
        """JSON-ready form (the HTTP request body's ``job`` object)."""
        doc = {("config" if k == "impl" else k): v for k, v in asdict(self).items()}
        doc["params"] = dict(self.params)
        return doc

    def describe(self) -> str:
        bits = [f"{self.app}/{self.dataset}/{self.impl}", f"size={self.size}"]
        if self.seed:
            bits.append(f"seed={self.seed}")
        if self.edits:
            bits.append(f"edits={self.edits}")
        if self.devices:
            bits.append(f"devices={self.devices}")
        if self.partition:
            bits.append(f"partition={self.partition}")
        if self.permuted:
            bits.append("permuted")
        return " ".join(bits)


#: the job document's keys: the RunSpec fields, with ``impl`` spelled ``config``
_JOB_KEYS = {"config" if f.name == "impl" else f.name for f in fields(RunSpec)}


def spec_from_dict(doc: object) -> RunSpec:
    """Parse an untrusted JSON job object into a :class:`RunSpec`.

    Raises :class:`JobSpecError` with a one-line message on anything
    malformed: wrong container type, unknown keys, wrong value types.
    Name resolution (does the app exist?) happens later in
    :func:`validate_spec` so schema errors and lookup errors read
    differently to a client.
    """
    if not isinstance(doc, dict):
        raise JobSpecError(f"job must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _JOB_KEYS)
    if unknown:
        raise JobSpecError(f"unknown job field(s): {', '.join(unknown)}")
    if "app" not in doc or "dataset" not in doc:
        raise JobSpecError("job needs at least 'app' and 'dataset'")
    clean = dict(doc)
    params = clean.pop("params", {})
    if not isinstance(params, dict):
        raise JobSpecError("'params' must be a JSON object")
    if not all(v is None or isinstance(v, (str, int, float)) for v in params.values()):
        raise JobSpecError("'params' values must be JSON scalars")
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
    if "config" in clean:
        clean["impl"] = clean.pop("config")
    return RunSpec(params=params, **clean)


def validate_spec(spec: RunSpec) -> None:
    """Resolve every name in ``spec``; raise :class:`JobSpecError` if any fails.

    Run by the broker *before* a job is queued, so a bad request is
    rejected synchronously (HTTP 400) instead of burning a worker slot,
    and by every CLI command that runs a named cell before it executes.
    ``params`` must name keywords the run's entry point takes: the
    adapter's ``bsp`` runner under an application-level config, its
    ``make_kernel`` otherwise.  Their values are checked by the run.
    """
    from repro.apps.common import APP_REGISTRY, get_adapter
    from repro.core.policy import policy_for

    if spec.app not in APP_REGISTRY:
        raise JobSpecError(
            f"unknown app {spec.app!r}; known: {', '.join(sorted(APP_REGISTRY))}"
        )
    if spec.impl not in CONFIGS:
        raise JobSpecError(
            f"unknown config {spec.impl!r}; known: {', '.join(sorted(CONFIGS))}"
        )
    if spec.size not in SIZES:
        raise JobSpecError(f"unknown size {spec.size!r}; known: {', '.join(SIZES)}")
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
    app_level = policy_for(CONFIGS[spec.impl]).app_level
    if app_level and adapter.bsp is None:
        raise JobSpecError(
            f"app {spec.app!r} has no BSP implementation; "
            f"config {spec.impl!r} runs at application level"
        )
    if not app_level and adapter.make_kernel is None:
        raise JobSpecError(f"app {spec.app!r} is BSP-only; use config 'BSP'")
    if spec.params:
        # the keywords of the call the run makes: the BSP runner or the
        # kernel factory, minus the graph, the simulated GPU and the event
        # sink the run path gives it
        entry = adapter.bsp if app_level else adapter.make_kernel
        taken = set(inspect.signature(entry).parameters) - {"graph", "spec", "sink"}
        unknown = sorted(set(dict(spec.params)) - taken)
        if unknown:
            raise JobSpecError(
                f"unknown param(s) {', '.join(map(repr, unknown))} for app "
                f"{spec.app!r} under config {spec.impl!r}; "
                f"known: {', '.join(sorted(taken)) or 'none'}"
            )
    if spec.edits is not None and not adapter.dynamic:
        raise JobSpecError(
            f"'edits' needs a dynamic app (bfs-inc, cc-inc, pagerank-inc); "
            f"{spec.app!r} is static"
        )
    if adapter.dynamic and spec.edits is None:
        raise JobSpecError(f"dynamic app {spec.app!r} needs an 'edits' script")
    if spec.seed and app_level:
        raise JobSpecError(
            f"seed > 0 perturbs the engine schedule; config {spec.impl!r} "
            "runs at application level (BSP) and has no engine"
        )
    if spec.edits is not None:
        from repro.graph.delta import _SPEC_RE

        if _SPEC_RE.match(spec.edits.strip()) is None:
            raise JobSpecError(
                f"bad edits spec {spec.edits!r}; "
                "expected EPOCHSxBATCH@SEED[dFRAC], e.g. 3x32@7"
            )


@functools.lru_cache(maxsize=4096)
def job_key(spec: RunSpec) -> str:
    """The content address of one run (hex SHA-256 of the canonical spec).

    Every field is in it, the preset name included: :func:`result_digest`
    covers ``impl``, so two presets with identical knobs are still two
    answers.  Cosmetics (dataset alias, ``params`` order, ignored
    device fields) were normalised away when the spec was built.
    Memoised per spec — this sits on the broker's warm path.
    """
    payload = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
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


def execute_spec(
    spec: RunSpec,
    *,
    sink=None,
    gpu: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    validate: bool = False,
    metrics=False,
) -> AppResult:
    """Run one spec to completion and return its :class:`AppResult`.

    The only code that turns a :class:`RunSpec` into a result: the Lab,
    parallel sweeps, the broker's executor threads and every CLI command
    that runs a named cell (``run``, ``trace``, ``metrics``, ``dash
    --app``, the BSP pass of ``check``) call it.  It holds no state — graphs come from the locked
    process-wide build cache — so callers may memoise on the spec and
    threads may share it.  ``sink``, ``validate`` (answer oracle plus
    invariant monitor) and ``metrics`` (streaming telemetry) only observe
    the run (see :func:`~repro.apps.common.replay_app`; a metrics summary
    is stamped with ``spec.size``); ``gpu`` and
    ``max_tasks`` are the simulated device and the runaway guard, which
    a :class:`~repro.harness.runner.Lab` sets and the service leaves at
    their defaults.

    The result is the run's *final epoch*: the only one of a static run,
    the last one of an ``edits`` replay, whose ``extra`` carries the
    replay totals (and a metrics summary over every epoch).
    """
    result = replay_app(
        spec.app, spec.graph(), spec.atos_config(), spec.edits,
        spec=gpu, max_tasks=max_tasks, sink=sink, validate=validate,
        metrics=metrics, perturb=spec.perturbation(), **dict(spec.params),
    ).final
    if metrics:
        result.extra["metrics"]["size"] = spec.size
    return result


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

    spec: RunSpec
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
    spec: RunSpec,
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
