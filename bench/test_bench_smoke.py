"""Smoke test of the benchmark: every workload at demo size, traced and not."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--size", "smoke",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in _contract()["workloads"]])
def test_traced_run_is_correct_and_reports_every_layer_metric(workload):
    result = _result(_run(workload, 1))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("refit", 0))
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("pipeline-csv", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
