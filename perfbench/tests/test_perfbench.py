"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``.

Every test runs ``perfbench/run.py`` as a subprocess at ``tiny`` size,
exactly as the benchmark is run for real, only smaller.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import manifest  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(manifest.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    doc = _result(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    table = manifest.PER_LAYER if trace == "1" else manifest.END_TO_END
    units = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert units == {name: spec[0] for name, spec in table.items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_planted_wrong_golden_raises_failed_ratio(tmp_path):
    goldens = json.loads((ROOT / "perfbench/goldens/sweep-tiny.json").read_text())
    goldens[sorted(goldens)[0]]["digest"] = "0" * 16
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps(goldens))
    proc = _run("--workload", "sweep", "--seconds", "1", "--size", "tiny",
                "--goldens", str(planted))
    assert proc.returncode != 0
    doc = _result(proc)
    assert doc["correct"] is False
    assert doc["failed"] / doc["attempted"] > 0
    assert "failed_ratio" in proc.stdout


def test_committed_manifest_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest.manifest()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
