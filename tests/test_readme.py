"""README drift: every ``from migtensor... import`` statement in README.md's
code blocks must import, and the Python examples must run on the demo, so
the README never names a deleted function or an old signature."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

import numpy as np

from migtensor import cli
from migtensor.residence import read_migrations

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
PYTHON = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT = re.compile(r"^from migtensor(?:\.\w+)* import (?:\([^)]*\)|[^\n]*)", re.MULTILINE)


def readme_imports() -> list[str]:
    return [stmt for block in FENCED.findall(README.read_text(encoding="utf-8"))
            for stmt in IMPORT.findall(block)]


def test_readme_imports_resolve():
    statements = readme_imports()
    assert statements, "README.md shows no migtensor import"
    for stmt in statements:
        exec(compile(stmt, str(README), "exec"), {})


def test_readme_python_examples_run_on_the_demo(tmp_path, monkeypatch, capsys):
    # the Quick start's synth and run commands, then every Python block in
    # order, in one namespace, in the demo directory
    for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
        shutil.copy(ROOT / "demo" / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--spec", "synth_tourism.json", "--registry", "registry.txt",
                     "--out-events", "tourism_events.csv", "--out-truth", "tourism_truth.json"]) == 0
    assert cli.main(["run", "--config", "config_tourism.json"]) == 0
    blocks = PYTHON.findall(README.read_text(encoding="utf-8"))
    assert blocks, "README.md shows no Python example"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the library calls reproduce the run's artifacts
    out = tmp_path / "out_tourism"
    assert (tmp_path / "kept_events.csv").read_bytes() == (out / "events.csv").read_bytes()
    assert (tmp_path / "kept_residences.csv").read_bytes() == (out / "residences.csv").read_bytes()
    _, moves = read_migrations(out / "migrations.csv", namespace["registry"], 36)
    assert np.array_equal(namespace["moves"], moves)
