"""Schedule-perturbation fuzzing: same answers under every legal schedule.

The paper's correctness argument (Section 6) is *schedule-independence*:
relaxed pops and stale reads change how much work is done, never what is
computed.  The simulator makes that claim testable — every pop-issue
instant flows through :meth:`repro.core.engine.ExecutionEngine.pop_stagger`,
which accepts a ``perturb(worker, seq) -> extra_ns`` hook.  A perturbation
delays pops by a bounded, deterministic, per-seed pseudo-random amount:
exactly the freedom real hardware warp schedulers have, and nothing more
(delays are non-negative; nothing is reordered beyond what timing allows).

:func:`fuzz_app` re-runs one (app, graph, config) cell under ``seeds``
different perturbations, each with a live
:class:`~repro.check.invariants.InvariantMonitor` attached, then validates
the output against the app's answer oracle
(:func:`repro.check.oracles.validate`).  Any seed that breaks an engine
invariant or produces a wrong answer is a real scheduler/application bug,
not noise — the perturbations stay within the model's legal envelope.

Only engine-level policies (persistent / discrete / hybrid) can be
fuzzed: BSP runs at application level and never issues pops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Sequence

from repro.apps.common import AppResult, get_adapter, replay_app, replay_totals
from repro.check.invariants import InvariantMonitor, InvariantViolation, Violation
from repro.check.oracles import ValidationReport, validate, validate_epochs
from repro.core.config import AtosConfig
from repro.core.engine import _worker_slots
from repro.core.policy import policy_for
from repro.graph.csr import Csr
from repro.sim.spec import V100_SPEC, GpuSpec

__all__ = ["perturbation", "FuzzRun", "FuzzReport", "fuzz_app"]

#: default pop-delay amplitude: comparable to the persistent-mode jitter
#: (150 ns) — large enough to reorder racing pops, small enough to stay a
#: scheduling perturbation rather than a different machine
DEFAULT_AMPLITUDE_NS = 200.0

_MASK64 = (1 << 64) - 1


def perturbation(seed: int, amplitude_ns: float = DEFAULT_AMPLITUDE_NS) -> Callable[[int, int], float]:
    """A deterministic pop-delay function for one fuzz seed.

    Returns ``perturb(worker, seq) -> delay_ns`` in ``[0, amplitude_ns)``,
    computed by an splitmix-style integer mix of ``(worker, seq, seed)`` —
    stateless, so replaying a seed reproduces the schedule bit-for-bit.
    """
    if amplitude_ns < 0:
        raise ValueError("amplitude_ns must be non-negative")

    def perturb(worker: int, seq: int) -> float:
        x = (
            worker * 0x9E3779B97F4A7C15
            + seq * 0xBF58476D1CE4E5B9
            + (seed + 1) * 0x94D049BB133111EB
        ) & _MASK64
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        return ((x >> 40) / float(1 << 24)) * amplitude_ns

    return perturb


@dataclass
class FuzzRun:
    """Outcome of one perturbed execution."""

    seed: int
    elapsed_ns: float
    total_tasks: int
    violations: list[Violation]
    oracle: ValidationReport
    result: AppResult | None = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return not self.violations and self.oracle.ok


@dataclass
class FuzzReport:
    """All runs of one fuzzed (app, graph, config) cell."""

    app: str
    dataset: str
    config: str
    amplitude_ns: float
    runs: list[FuzzRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs)

    @property
    def failed_seeds(self) -> list[int]:
        return [r.seed for r in self.runs if not r.ok]

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` naming every failing seed."""
        if self.ok:
            return
        details = []
        for r in self.runs:
            if r.ok:
                continue
            parts = [str(v) for v in r.violations[:3]]
            parts += [str(c) for c in r.oracle.failures[:3]]
            details.append(f"seed {r.seed}: " + "; ".join(parts))
        raise InvariantViolation(
            f"fuzz {self.app}/{self.dataset}/{self.config} failed on "
            f"seeds {self.failed_seeds}: " + " | ".join(details)
        )

    def summary(self) -> str:
        """One line per seed plus a verdict (the CLI's output)."""
        lines = []
        for r in self.runs:
            status = "ok" if r.ok else "FAIL"
            extra = ""
            if r.violations:
                extra = f" invariants: {len(r.violations)} violation(s)"
            if not r.oracle.ok:
                extra += f" oracle: {'; '.join(str(c) for c in r.oracle.failures)}"
            lines.append(
                f"  seed {r.seed:>3d}  {status:4s} "
                f"tasks={r.total_tasks:<8d} elapsed={r.elapsed_ns / 1e6:.3f} ms{extra}"
            )
        verdict = "PASS" if self.ok else f"FAIL ({len(self.failed_seeds)} bad seeds)"
        head = (
            f"fuzz {self.app} on {self.dataset} [{self.config}] "
            f"amplitude={self.amplitude_ns:.0f} ns x {len(self.runs)} seeds: {verdict}"
        )
        return "\n".join([head, *lines])


def fuzz_app(
    app: str,
    graph: Csr,
    config: AtosConfig,
    *,
    edits: Any = None,
    seeds: int | Iterable[int] = 10,
    amplitude_ns: float = DEFAULT_AMPLITUDE_NS,
    spec: GpuSpec = V100_SPEC,
    max_tasks: int = 20_000_000,
    validator: Callable[..., ValidationReport] = validate,
    **params: Any,
) -> FuzzReport:
    """Fuzz one (app, graph, config) cell across perturbation seeds.

    Each seed runs the app with a fresh :class:`InvariantMonitor` attached
    and a seeded :func:`perturbation` hook, reconciles counters against
    the event stream, and validates the output with the app's oracle
    (``validator`` overrides it, for negative tests).  ``seeds`` is a
    count (``10`` → seeds 0..9) or an explicit iterable; seed 0 at
    ``amplitude_ns=0`` is the unperturbed schedule.

    ``edits`` (an :class:`~repro.graph.delta.EditScript` or spec string)
    makes each seed replay the whole script through a dynamic app
    (:func:`repro.apps.common.replay_app`) with one monitor riding the
    entire stream, so epoch boundaries (quiescence at every
    :class:`~repro.obs.events.EpochMark`) and replay-summed counter
    reconciliation are fuzzed alongside the answers.  Every epoch is
    checked against the oracle on its materialized snapshot
    (:func:`~repro.check.oracles.validate_epochs`: ``epochN:`` check-name
    prefixes when there is more than one epoch); one failing epoch fails
    the seed.

    Returns a :class:`FuzzReport`; it never raises on violations — call
    :meth:`FuzzReport.assert_clean` for the asserting form.
    """
    adapter = get_adapter(app)
    policy = policy_for(config)
    if policy.app_level:
        raise ValueError(
            f"config {config.name!r} runs at application level (no pops to perturb); "
            "fuzzing requires an engine-level policy"
        )
    if adapter.make_kernel is None:
        raise ValueError(f"app {app!r} is BSP-only and cannot be fuzzed")
    seed_list: Sequence[int] = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    tuned = adapter.tune_config(config) if adapter.tune_config is not None else config
    slots, _ = _worker_slots(spec, tuned)
    # the distributed policy runs one engine per device off a shared
    # worker-id space, so the slot-range invariant covers the whole cluster
    slots *= max(1, tuned.devices)

    report = FuzzReport(
        app=app, dataset=graph.name, config=config.name, amplitude_ns=amplitude_ns
    )
    for seed in seed_list:
        monitor = InvariantMonitor(worker_slots=slots)
        run = replay_app(
            app, graph, config, edits, spec=spec, max_tasks=max_tasks, sink=monitor,
            perturb=perturbation(seed, amplitude_ns), **params,
        )
        totals = replay_totals(run.epochs)
        monitor.reconcile(SimpleNamespace(extra=totals))
        oracle_report = validate_epochs(app, run.epochs, validator=validator, **params)
        report.runs.append(
            FuzzRun(
                seed=seed,
                elapsed_ns=run.total_elapsed_ns,
                total_tasks=totals["total_tasks"],
                violations=list(monitor.violations),
                oracle=oracle_report,
                result=run.final,
            )
        )
    return report
