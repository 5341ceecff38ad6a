"""Corrupt intermediate artifacts of a demo run: the stage command that
reads one exits 0 or 3, never with a traceback, and an exit 3 for a dump
names the line."""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migtensor import cli

DEMO = Path(__file__).resolve().parent.parent / "demo"

# each intermediate artifact, with the stage command that reads it
READERS = {"events.csv": "residences", "residences.csv": "detect", "migrations.csv": "tensorize",
           "tensor.txt": "fit", "model.txt": "analyze"}
SHORT_FIT = ["--restarts", "1", "--max-iters", "5"]


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """The demo tourism config, and the bytes of each artifact of its run."""
    root = tmp_path_factory.mktemp("demo")
    for name in ("registry.txt", "centroids.csv", "synth_tourism.json", "config_tourism.json"):
        shutil.copy(DEMO / name, root / name)
    assert cli.main(["synth", "--spec", str(root / "synth_tourism.json"),
                     "--registry", str(root / "registry.txt"),
                     "--out-events", str(root / "tourism_events.csv")]) == 0
    config = root / "config_tourism.json"
    assert cli.main(["run", "--config", str(config), *SHORT_FIT]) == 0
    return config, {name: (root / "out_tourism" / name).read_bytes() for name in READERS}


def edited(data: bytes, kind: str, at: int, value: int) -> bytes:
    """``data`` with one edit: bit ``value % 8`` of a byte flipped, a byte
    overwritten by ``value``, the bytes from ``at`` on cut off, a line
    duplicated, or ``value`` put at the start of a line."""
    i = at % len(data)
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << value % 8]) + data[i + 1:]
    if kind == "overwrite":
        return data[:i] + bytes([value]) + data[i + 1:]
    if kind == "truncate":
        return data[:i]
    lines = data.splitlines(keepends=True)
    line = at % len(lines)
    if kind == "duplicate":
        return b"".join(lines[:line + 1] + lines[line:])
    return b"".join(lines[:line] + [bytes([value]) + lines[line]] + lines[line + 1:])


EDITS = st.tuples(st.sampled_from(["flip", "overwrite", "truncate", "duplicate", "prefix"]),
                  st.integers(0, 1 << 24),
                  st.one_of(st.sampled_from(list(b'",\n\r #-.0179x\0')), st.integers(0, 255)))


@settings(max_examples=60, deadline=None)
@given(artifact=st.sampled_from(sorted(READERS)), edit=EDITS)
# a stray quote at the start of line 3 of the 156 KB residences.csv runs
# past csv's field size limit
@example(artifact="residences.csv", edit=("prefix", 2, ord('"')))
def test_stage_reading_a_corrupt_artifact_exits_0_or_3(demo_run, artifact, edit):
    config, artifacts = demo_run
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stderr(err):
        path = Path(out_dir) / artifact
        path.write_bytes(edited(artifacts[artifact], *edit))
        code = cli.main([READERS[artifact], "--config", str(config), "--out-dir", out_dir, *SHORT_FIT])
    assert code in (0, 3)
    # the error for a dump names its line, unless the file is not UTF-8
    if code == 3:
        assert re.search(f"{re.escape(str(path))}:[0-9]+: ", err.getvalue()) or "not UTF-8" in err.getvalue()
