"""Workload inputs, program invocation and output checks for the benchmark.

The program is treated as a black box: every call into it is a
``python -m migtensor.cli ...`` subprocess with ``PYTHONPATH=<root>/src``,
timed from spawn to exit, with peak RSS and CPU time read from ``wait4``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR / "workloads.json"
REGISTRY = BENCH_DIR / "data" / "registry.txt"
CENTROIDS = BENCH_DIR / "data" / "centroids.csv"

# artifacts a stage-by-stage run does not write, left out when comparing
# its digests with those of a `run`
RUN_ONLY_ARTIFACTS = ("run_summary.json",)


def load_specs() -> dict:
    """The workload specs, with each ``synth_from`` replaced by the named
    workload's ``synth`` and ``smoke`` blocks."""
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        specs = json.load(fh)
    workloads = specs["workloads"]
    for spec in workloads.values():
        source = spec.pop("synth_from", None)
        if source:
            for key in ("synth", "smoke"):
                spec[key] = copy.deepcopy(workloads[source][key])
    return specs


@dataclass
class Proc:
    """One finished program process."""

    argv: list
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawn: float  # perf_counter() just before the spawn
    stdout: str
    stderr: str


def program_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # one less source of run-to-run variation
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list, env: dict, log_dir: Path, tag: str) -> Proc:
    """Run one process to completion; stdout and stderr go to files."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv=argv,
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        spawn=start,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: a probe of the machine's speed
    at this moment, which tracks the program's own slow-downs on a shared
    machine closely enough to scale them out."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    return time.perf_counter() - start


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "migtensor.cli", *map(str, args)]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): sha256_file(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def sized(spec: dict, size: str) -> dict:
    """The workload spec at the requested size (``full`` or ``smoke``)."""
    spec = copy.deepcopy(spec)
    if size == "full":
        return spec
    smoke = spec["smoke"]
    synth = spec["synth"]
    for key in ("users", "noise_rate"):
        synth[key] = smoke["synth"][key]
    for comp, intensity in zip(synth["components"], smoke["synth"]["intensity"]):
        comp["intensity"] = intensity
    spec["config"]["fit"].update(smoke.get("fit", {}))
    return spec


@dataclass
class Inputs:
    """One set-up's products: config, input stream and its record count."""

    dir: Path
    config: Path
    input: Path
    records: int  # non-blank input lines a parser sees, header excluded
    out_dir: Path  # holds the prebuilt artifacts of a `build` workload


def _write_geo_jsonl(stream_csv: Path, out: Path, geo: dict, seed: int) -> int:
    """Turn a country-coded synth stream into JSONL lat/lon points.

    Each point is its country's centroid plus Gaussian jitter. A share of
    ``malformed_rate`` of the lines are extra broken copies of a good line:
    half cut in two (bad JSON), half with day 32 in the timestamp. Returns
    the number of lines written.
    """
    table = {}
    with open(CENTROIDS, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            code, lat, lon = line.strip().split(",")
            table[code] = (float(lat), float(lon))
    with open(stream_csv, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    n = len(rows)
    rng = np.random.default_rng([seed, 0x6E0])
    base = np.array([table[r[2]] for r in rows], dtype=float).reshape(n, 2)
    jitter = rng.normal(0.0, geo["jitter_deg"], size=(n, 2))
    lat = np.clip(base[:, 0] + jitter[:, 0], -90.0, 90.0)
    lon = np.clip(base[:, 1] + jitter[:, 1], -180.0, 180.0)
    broken = rng.random(n) < geo["malformed_rate"] / (1.0 - geo["malformed_rate"])
    cut = rng.random(n) < 0.5
    lines = 0
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for i, (user, ts, _) in enumerate(rows):
            good = (f'{{"lat": {lat[i]:.5f}, "lon": {lon[i]:.5f}, '
                    f'"timestamp": "{ts}", "user_id": "{user}"}}\n')
            fh.write(good)
            lines += 1
            if broken[i]:
                fh.write(good[: len(good) // 2] + "\n" if cut[i]
                         else good.replace(ts, ts[:8] + "32" + ts[10:]))
                lines += 1
    return lines


def generate_input(root: Path, spec: dict, seed: int, dest: Path) -> tuple:
    """Generate the workload's input stream from its spec and ``seed`` under
    ``dest``; returns the stream's path and its record count."""
    dest.mkdir(parents=True, exist_ok=True)
    synth_spec = dict(spec["synth"], seed=seed)
    (dest / "synth.json").write_text(json.dumps(synth_spec, indent=2), encoding="utf-8")
    stream = dest / "stream.csv"
    proc = spawn(cli_argv("synth", "--spec", dest / "synth.json", "--registry", REGISTRY,
                          "--out-events", stream), program_env(root), dest / "logs", "synth")
    if proc.code != 0:
        raise SetupError(f"synth exited with {proc.code}: {proc.stderr.strip()}")
    if spec["format"] == "jsonl":
        events = dest / "events.jsonl"
        records = _write_geo_jsonl(stream, events, spec["geo"], seed)
        stream.unlink()
        return events, records
    with open(stream, "r", encoding="utf-8") as fh:
        return stream, sum(1 for _ in fh) - 1  # header line


def set_up(root: Path, spec: dict, seed: int, dest: Path, runner=None) -> Inputs:
    """Generate the workload's input and config under ``dest``.

    A workload with a ``build`` list also runs those stage commands here,
    through ``runner(cli_args, tag)`` when given (the traced run passes one).
    """
    events, records = generate_input(root, spec, seed, dest)
    env = program_env(root)
    out_dir = dest / "out"
    config = dict(spec["config"], epoch=spec["synth"]["epoch"], months=spec["synth"]["months"],
                  registry=str(REGISTRY), centroids=str(CENTROIDS), input=str(events),
                  out_dir=str(out_dir), format=spec["format"], threads=1)
    (dest / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    inputs = Inputs(dest, dest / "config.json", events, records, out_dir)
    for stage in spec.get("build", []):
        args = [stage, "--config", str(inputs.config)]
        proc = (runner(args, f"build-{stage}") if runner
                else spawn(cli_argv(*args), env, dest / "logs", stage))
        if proc.code != 0:
            raise SetupError(f"set-up stage {stage} exited with {proc.code}: {proc.stderr.strip()}")
    return inputs


class SetupError(RuntimeError):
    """The workload's input could not be generated."""


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1  # header line


def tensor_counts(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        return [int(line.split()[3]) for line in fh if line.strip()]


def fit_deviance(nll: float, counts: list) -> float:
    """Poisson deviance of a fit per migration: 2 (NLL - NLL_saturated) / total.

    For a fixed tensor it is the fit's negative log-likelihood shifted and
    scaled, so it moves exactly when the fit does; dividing by the tensor
    total makes it comparable across seeds.
    """
    total = sum(counts)
    saturated = total - sum(c * math.log(c) for c in counts)
    return 2.0 * (nll - saturated) / total


def check_outputs(out_dir: Path, build_dir: Path, inputs: Inputs, spec: dict) -> list:
    """Correctness failures of one run, as messages (empty when correct).

    ``build_dir`` holds the ingest..tensorize artifacts: the run's own
    ``out_dir``, or the set-up's for a workload that builds in set-up.
    """
    failures = []
    try:
        stats = _read_json(build_dir / "ingest_stats.json")
        rejects = sum(stats["rejects"].values())
        if inputs.records != stats["events_parsed"] + rejects:
            failures.append(f"records {inputs.records} != parsed {stats['events_parsed']}"
                            f" + rejects {rejects}")
        dropped = stats["filter"]["events_dropped"]
        if stats["events_parsed"] != stats["events_kept"] + dropped:
            failures.append(f"parsed {stats['events_parsed']} != kept {stats['events_kept']}"
                            f" + dropped {dropped}")
        migrations = _csv_rows(build_dir / "migrations.csv")
        total = sum(tensor_counts(build_dir / "tensor.txt"))
        if migrations != total:
            failures.append(f"migrations {migrations} != tensor total {total}")
        failures += _check_planted(out_dir, spec)
        objective = _read_json(out_dir / "fit_summary.json").get("objective")
        if not (isinstance(objective, float) and np.isfinite(objective)):
            failures.append(f"fit objective is {objective!r}")
    except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
        failures.append(f"unreadable artifact: {exc!r}")
    return failures


def _check_planted(out_dir: Path, spec: dict) -> list:
    """Each planted flow tops one of the highest-Gini components.

    Of the first ``len(planted)`` ranked components, one must have the
    planted (origin, destination) as its top pair and peak in a planted
    month that the k-month window can detect (k <= m <= M - k).
    """
    planted = spec["synth"]["components"]
    k = spec["config"]["window_k"]
    months = spec["synth"]["months"]
    ranked = _read_json(out_dir / "reports" / "summary.json")["components"][: len(planted)]
    failures = []
    for comp in planted:
        detectable = {m for m in comp["active_months"] if k <= m <= months - k}
        hit = any(
            c["top_origins"][0][0] == comp["origin"]
            and c["top_destinations"][0][0] == comp["destination"]
            and int(np.argmax(c["time_profile"])) in detectable
            for c in ranked)
        if not hit:
            failures.append(f"planted {comp['origin']}->{comp['destination']} not recovered")
    return failures
