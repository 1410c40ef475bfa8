"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep``, ``service-cold``, ``service-hit`` (see
``perfbench/README.md``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs the traced breakdown and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any output was wrong or a traced self-check failed.

Run it from the root of a checkout: the program is imported from
``src/`` there and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "service-cold", "service-hit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("tiny", "small", "default"), default=None,
        help="graph size (default: 'default' for sweep, 'small' for the service)",
    )
    parser.add_argument(
        "--goldens", type=Path, default=None,
        help="sweep golden file (default: perfbench/goldens/sweep-<size>.json)",
    )
    parser.add_argument(
        "--write-goldens", action="store_true",
        help="record the sweep goldens at --size from this checkout, then exit",
    )
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="regenerate BENCHMARK.json at the checkout root, then exit",
    )
    args = parser.parse_args(argv)
    if not (args.write_goldens or args.write_manifest or args.workload):
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _bootstrap()
    from perfbench import manifest, service, sweep
    from perfbench.common import RunDiscarded

    if args.write_manifest:
        print(manifest.write(ROOT))
        return 0
    if args.write_goldens:
        print(sweep.write_goldens(args.size or "default"))
        return 0

    seconds = manifest.RUN_SECONDS if args.seconds is None else args.seconds
    trace = bool(args.trace)
    print(f"perfbench {args.workload}  seed={args.seed}  seconds={seconds:g}  trace={args.trace}")
    try:
        if args.workload == "sweep":
            out = sweep.run(
                seed=args.seed, seconds=seconds, trace=trace,
                size=args.size or "default", goldens=args.goldens,
            )
        else:
            out = service.run(
                workload=args.workload, root=ROOT, seed=args.seed, seconds=seconds,
                trace=trace, size=args.size or "small",
            )
    except RunDiscarded as exc:
        print(f"perfbench: traced run discarded: {exc}", file=sys.stderr)
        return 3

    table = manifest.PER_LAYER if trace else manifest.END_TO_END
    for line in out.notes:
        print(line)
    correct = out.failed == 0
    if correct and set(out.metrics) != set(table):
        print(f"perfbench: metric set mismatch: {sorted(set(table) ^ set(out.metrics))}",
              file=sys.stderr)
        return 2
    metrics = {}
    for name, (unit, *_) in table.items():
        if name in out.metrics:
            value = float(out.metrics[name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
