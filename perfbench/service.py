"""The service workloads: ``python -m repro serve`` driven over real HTTP.

Load shape: one benchmark process with one client thread, a server
started with ``--workers 2``.  The loop is closed: the client waits for
its reply before sending the next job, the way sweep scripts and ``repro
submit`` use the service.  One client, not two: the broker's workers share
one interpreter lock, so a second client only queues behind the first
(throughput measured the same with both) while making each latency
depend on which job it happened to overlap.  Jobs are issued in shuffled
passes over a fixed deck and the window closes only at the end of a pass,
so every run sends the same mix.  End-to-end runs use the server exactly as shipped (span tracing on,
default retention); the traced run only raises ``--trace-capacity`` so
every request's spans can be fetched from ``/v1/traces/<id>`` afterwards.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from perfbench.common import (
    MIN_REQUESTS,
    SETUP_REPEATS,
    Outcome,
    Paced,
    RunDiscarded,
    pass_count,
    quantile,
    zero_layers,
)
from perfbench.layers import build_graphs, edit_ms, make_kernel_ms

WORKERS = 2
DATASETS = ("roadNet-CA", "soc-LiveJournal1")
DYNAMIC_APPS = ("bfs-inc", "cc-inc", "pagerank-inc")
#: span retention for the traced run: above any window's request count
TRACE_CAPACITY = 1_000_000

#: the ``service-hit`` result set: payloads from ~17 KB (persist-CTA BFS)
#: to ~1.3 MB (persist-warp PageRank) at ``small``
HIT_JOBS = (
    {"app": "bfs", "dataset": "roadNet-CA", "config": "persist-CTA"},
    {"app": "bfs", "dataset": "soc-LiveJournal1", "config": "persist-CTA"},
    {"app": "sssp", "dataset": "roadNet-CA", "config": "discrete-CTA"},
    {"app": "kcore", "dataset": "soc-LiveJournal1", "config": "persist-CTA"},
    {"app": "delta-sssp", "dataset": "soc-LiveJournal1", "config": "BSP"},
    {"app": "bfs-inc", "dataset": "roadNet-CA", "config": "persist-CTA", "edits": "2x16@3"},
    {"app": "coloring", "dataset": "roadNet-CA", "config": "persist-warp"},
    {"app": "mis", "dataset": "soc-LiveJournal1", "config": "persist-warp"},
    {"app": "cc", "dataset": "soc-LiveJournal1", "config": "persist-warp"},
    {"app": "cc", "dataset": "roadNet-CA", "config": "persist-warp"},
    {"app": "pagerank", "dataset": "roadNet-CA", "config": "persist-warp"},
    {"app": "pagerank", "dataset": "soc-LiveJournal1", "config": "persist-warp"},
)


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------

class Server:
    """One ``python -m repro serve`` child process on a free port."""

    def __init__(self, root: Path, *, trace_capacity: int | None = None) -> None:
        from repro.service.client import ServiceUnavailable

        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", str(WORKERS)]
        if trace_capacity is not None:
            cmd += ["--trace-capacity", str(trace_capacity)]
        src = str(root / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^\s:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))
        give_up = time.monotonic() + 60.0
        while True:
            try:
                if self.client().health():
                    break
            except ServiceUnavailable:
                if time.monotonic() > give_up:
                    self.stop()
                    raise
            time.sleep(0.01)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(port=self.port, timeout=120.0)

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the server process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# ---------------------------------------------------------------------------
# Job decks
# ---------------------------------------------------------------------------

def cold_templates() -> list[dict]:
    """The cold deck: the 44 sweep cells plus 12 dynamic edit-replay jobs."""
    from repro.perf.bench import bench_cells

    static = [{"app": c.app, "dataset": c.dataset, "config": c.impl} for c in bench_cells()]
    dynamic = [
        {"app": app, "dataset": ds, "config": cfg}
        for app in DYNAMIC_APPS
        for ds in DATASETS
        for cfg in ("persist-CTA", "discrete-CTA")
    ]
    return static + dynamic


class ColdDeck:
    """Shuffled passes over the cold templates, each job made unique.

    Engine jobs get a distinct perturbation ``seed``, BSP jobs a distinct
    ``source``, dynamic jobs a distinct ``edits`` script.  These count up
    from 1 in template order, so pass ``k`` of every run holds the same
    jobs and the workload seed only sets the order they are sent in: a
    perturbation or edit script changes a job's cost by tens of percent,
    which would otherwise make runs with different seeds incomparable.
    """

    #: nominal wall seconds of one pass at ``small`` on the reference machine
    pass_seconds = 5.0

    def __init__(self, rng: random.Random, size: str) -> None:
        from repro.graph.datasets import load_dataset

        self.rng = rng
        self.size = size
        self.templates = cold_templates()
        self.vertices = {ds: load_dataset(ds, size).num_vertices for ds in DATASETS}
        self.next_unique = 1

    def __len__(self) -> int:
        return len(self.templates)

    def __call__(self) -> list[dict]:
        jobs = []
        for template in self.templates:
            job = dict(template, size=self.size)
            u = self.next_unique
            self.next_unique += 1
            if job["app"] in DYNAMIC_APPS:
                job["edits"] = f"2x16@{u}"
            elif job["config"] == "BSP":
                job["params"] = {"source": u % self.vertices[job["dataset"]]}
            else:
                job["seed"] = u
            jobs.append(job)
        self.rng.shuffle(jobs)
        return jobs


class HitDeck:
    """Shuffled passes over the fixed hit set."""

    #: nominal wall seconds of one pass on the reference machine
    pass_seconds = 0.03

    def __init__(self, rng: random.Random, size: str) -> None:
        self.rng = rng
        self.jobs = [dict(job, size=size) for job in HIT_JOBS]

    def __len__(self) -> int:
        return len(self.jobs)

    def __call__(self) -> list[dict]:
        jobs = list(self.jobs)
        self.rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# The closed-loop client
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    job: dict
    doc: dict | None
    error: str | None


@dataclass
class Window:
    """One measured window against one server."""

    samples: list[Sample]
    #: the requests' wall times, with a calibration spin between requests
    paced: Paced
    rss_mb: float
    setup_s: float
    #: mean per-request span breakdown (traced windows only)
    spans: dict[str, float] | None


def _submit(client, job: dict) -> tuple[dict | None, str | None]:
    from repro.service.client import ServiceError, ServiceUnavailable

    try:
        return client.submit(job), None
    except (ServiceError, ServiceUnavailable) as exc:
        return None, str(exc)


def closed_loop(server: Server, deck, seconds: float) -> tuple[list[Sample], Paced]:
    """Send ``seconds`` worth of deck passes, one request at a time."""
    client = server.client()
    paced = Paced()
    samples: list[Sample] = []
    for _ in range(pass_count(seconds, deck.pass_seconds, len(deck), MIN_REQUESTS)):
        for job in deck():
            doc, error = paced.measure(lambda: _submit(client, job))
            samples.append(Sample(job, doc, error))
    return samples, paced


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------

def _job_id(job: dict) -> str:
    return json.dumps(job, sort_keys=True)


def references(root: Path, jobs: list[dict]) -> dict[str, dict]:
    """Serial ``execute_spec`` records for ``jobs``, one worker per core."""
    unique = list({_job_id(j): j for j in jobs}.values())
    shares = [unique[i::WORKERS] for i in range(WORKERS)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), str(root), os.environ.get("PYTHONPATH")) if p
    ))

    def work(share: list[dict]) -> list[dict]:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.reference"], cwd=root, env=env,
            input=json.dumps(share), capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference worker failed:\n{proc.stderr}")
        return json.loads(proc.stdout)

    out: dict[str, dict] = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        for share, records in zip(shares, pool.map(work, shares)):
            for job, record in zip(share, records):
                out[_job_id(job)] = record
    return out


def check(samples: list[Sample], refs: dict[str, dict], *, must_hit: bool) -> tuple[int, list[str]]:
    """Failures: transport or HTTP errors, digest mismatches, hit-set misses."""
    failed, errors = 0, []
    for s in samples:
        if s.error is not None:
            problem = s.error
        elif s.doc["digest"] != refs[_job_id(s.job)]["digest"]:
            problem = f"digest {s.doc['digest']} != reference {refs[_job_id(s.job)]['digest']}"
        elif must_hit and not s.doc["cached"]:
            problem = "not served from the cache"
        else:
            continue
        failed += 1
        errors.append(f"{s.job}: {problem}")
    return failed, errors


# ---------------------------------------------------------------------------
# Span breakdown
# ---------------------------------------------------------------------------

def span_breakdown(server: Server, samples: list[Sample], walls: list[float]) -> dict[str, float]:
    """Mean per-request ms of each service layer, from the server's spans.

    Self-checks every trace: the root's children must fit inside it, and
    each derived remainder (HTTP, executor hop, finish) must be
    non-negative; a violation discards the run.
    """
    client = server.client()
    sums: defaultdict[str, float] = defaultdict(float)
    answered = [(s, wall) for s, wall in zip(samples, walls) if s.doc is not None]
    for s, wall in answered:
        doc = client.trace(s.doc["trace_id"])
        spans = doc["spans"]
        root = next(sp for sp in spans if sp["parent_id"] is None)
        ms: defaultdict[str, float] = defaultdict(float)
        for sp in spans:
            if sp["end_ns"] is None:
                raise RunDiscarded(f"open span {sp['name']} in trace {doc['trace_id']}")
            ms[sp["name"]] += sp["duration_ns"] / 1e6
        children = sum(
            sp["duration_ns"] for sp in spans if sp["parent_id"] == root["span_id"]
        ) / 1e6
        root_ms = root["duration_ns"] / 1e6
        parts = {
            "http": wall * 1e3 - root_ms,
            "job_key": ms["job.key"],
            "cache_lookup": ms["cache.lookup"],
            "queue_wait": ms["queue.wait"],
            "engine": ms["engine"],
            "executor_hop": ms["attempt"] - ms["engine"],
            "finish": root_ms - children,
        }
        negative = [k for k in ("http", "executor_hop", "finish") if parts[k] < 0]
        if negative:
            raise RunDiscarded(f"trace {doc['trace_id']}: negative {', '.join(negative)}")
        attempts = [sp for sp in spans if sp["name"] == "attempt"]
        parts["retries"] = max(0, len(attempts) - 1)
        parts["timeouts"] = sum(
            "exceeded" in str(sp["attrs"].get("error", "")) for sp in attempts
        )
        for key, value in parts.items():
            sums[key] += value
    return {key: value / len(answered) for key, value in sums.items()}


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _prime_cold(server: Server, size: str) -> None:
    """Warm-up: build both graphs in the server with jobs the run never sends."""
    client = server.client()
    for ds in DATASETS:
        client.submit({"app": "bfs", "dataset": ds, "config": "persist-CTA", "size": size})


def _prime_hit(server: Server, size: str) -> None:
    """Cache fill: run every hit-set job once."""
    client = server.client()
    for job in HIT_JOBS:
        client.submit(dict(job, size=size))


def _start(root: Path, size: str, prime, trace_capacity: int | None) -> Server:
    server = Server(root, trace_capacity=trace_capacity)
    try:
        prime(server, size)
    except BaseException:
        server.stop()
        raise
    return server


def _window(root, size, deck, prime, seconds, *, repeats, trace_capacity=None) -> Window:
    """Set up ``repeats`` fresh servers (keeping the last), then measure."""
    setup = Paced()
    server = None
    for _ in range(repeats):
        if server is not None:
            server.stop()
        server = setup.measure(lambda: _start(root, size, prime, trace_capacity))
    try:
        samples, paced = closed_loop(server, deck, seconds)
        rss_mb = server.vm_hwm_mb()
        spans = span_breakdown(server, samples, paced.walls) if trace_capacity else None
    finally:
        server.stop()
    return Window(samples, paced, rss_mb, statistics.median(setup.scaled()), spans)


def _e2e(w: Window, refs: dict[str, dict]) -> dict[str, float]:
    scaled = w.paced.scaled()
    lat_ms = [t * 1e3 for t in scaled]
    served_tasks = sum(refs[_job_id(s.job)]["total_tasks"] for s in w.samples)
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_ms_p50": quantile(lat_ms, 0.50),
        "latency_ms_p90": quantile(lat_ms, 0.90),
        "sim_tasks_per_s": served_tasks / sum(scaled),
        "peak_rss_mb": w.rss_mb,
        "setup_s": w.setup_s,
    }


def run(*, workload: str, root: Path, seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    cold = workload == "service-cold"
    rng = random.Random(seed)
    deck = ColdDeck(rng, size) if cold else HitDeck(rng, size)
    prime = _prime_cold if cold else _prime_hit

    if not trace:
        windows = [_window(root, size, deck, prime, seconds, repeats=SETUP_REPEATS)]
    else:
        # an as-shipped window, then a traced one with full span retention
        windows = [
            _window(root, size, deck, prime, seconds / 2, repeats=1),
            _window(root, size, deck, prime, seconds / 2, repeats=1,
                    trace_capacity=TRACE_CAPACITY),
        ]
    main = windows[-1]
    samples = main.samples
    refs = references(root, [s.job for w in windows for s in w.samples])
    failed, errors = 0, []
    for w in windows:
        f, e = check(w.samples, refs, must_hit=not cold)
        failed += f
        errors += e
    attempted = sum(len(w.samples) for w in windows)
    hits = sum(1 for s in samples if s.doc is not None and s.doc["cached"])
    misses = sum(1 for s in samples if s.doc is not None and not s.doc["cached"])
    notes = [
        f"  {len(samples)} requests in {sum(main.paced.walls):.2f} s wall "
        f"({len(samples) // len(deck)} pass(es) of {len(deck)} jobs), "
        f"one closed-loop client, server --workers {WORKERS}",
        f"  cache hits {hits}, misses {misses} (from each response's cached flag)",
        f"  latency samples    {len(samples)} requests",
        f"  failed_ratio       {failed / attempted:.4f} ({failed}/{attempted})",
        *(f"  FAILED {e}" for e in errors[:10]),
    ]
    e2e = _e2e(main, refs)
    if not trace:
        return Outcome(attempted, failed, e2e, notes)

    # simulated counts over one fixed job set: the first pass of the deck
    first_jobs = [s.job for s in samples[: len(deck)]]
    first = [refs[_job_id(j)] for j in first_jobs]
    total = {k: sum(r[k] for r in first) for k in first[0] if k != "digest"}
    spans = main.spans
    builds = Paced()
    for _ in range(SETUP_REPEATS):
        builds.measure(lambda: build_graphs(DATASETS, size))
    metrics = zero_layers()
    metrics.update({
        "graph.build_ms": statistics.median(builds.scaled()) * 1e3,
        "queueing.pops": total["queue_pops"],
        "queueing.empty_pops": total["empty_pops"],
        "queueing.empty_pop_ratio": (
            total["empty_pops"] / total["queue_pops"] if total["queue_pops"] else 0.0
        ),
        "queueing.items_pushed": total["queue_items_pushed"],
        "queueing.steals": total["steals"],
        "sim.tasks": total["total_tasks"],
        "sim.elapsed_ns": total["elapsed_ns"],
        "sim.work_units": total["work_units"],
        "sim.trace_samples": total["trace_samples"],
        "service.cache_entry_bytes": total["bytes"] / len(first),
        "service.cache_hits": hits,
        "service.cache_misses": misses,
        "bench.latency_samples": len(samples),
        "bench.trace_overhead": _e2e(windows[0], refs)["ops_per_s"] / e2e["ops_per_s"],
        **{f"service.{k}_ms": spans[k] for k in (
            "http", "job_key", "cache_lookup", "queue_wait", "engine", "executor_hop", "finish"
        )},
        "service.retries": spans["retries"],
        "service.timeouts": spans["timeouts"],
    })
    if cold:
        edits = [edit_ms(j["dataset"], size, j["edits"]) for j in first_jobs if "edits" in j]
        kernels = [
            ms for j in first_jobs
            if (ms := make_kernel_ms(j["app"], j["dataset"], size, j.get("params", {})))
            is not None
        ]
        metrics["graph.edit_ms"] = sum(edits) / len(edits)
        metrics["apps.make_kernel_ms"] = sum(kernels) / len(kernels)
    return Outcome(attempted, failed, metrics, notes)
