"""Benchmark of the migtensor pipeline: one workload, one seed, one run.

    python3 bench/run.py --workload pipeline-csv --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is ``src/`` next to this directory. The
workload's input is generated from its spec in ``workloads.json`` and the
seed, then the workload's user-facing command(s) run as fresh processes,
one repetition after another, until ``--seconds`` have passed. Every
repetition's outputs are checked. Human-readable report lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall time
of a repetition, spawn to exit), ``peak_rss_mb``, ``fit_deviance`` and
``setup_s`` (median of the workload's ``setup_repeats`` set-ups). The two
times are scaled to a reference machine speed: a fixed pure-Python loop is
timed just before and just after each repetition and set-up, and the wall
time is multiplied by ``reference_loop_s`` (workloads.json) over the mean of
the two loop times. This takes out the slow drifts in the speed of a shared
machine; the raw wall times are printed alongside.
``--trace 1`` alternates untraced repetitions with traced ones, where each
stage runs as its own ``tracer.py`` process, and reports the per-layer
metrics of ``BENCHMARK.json``. ``--size smoke`` runs a demo-sized input in
seconds. A full-size run first generates the default seed's input and
refuses to run if it differs from the workload's ``input_sha256``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layers
import workload as wl

ROOT = wl.BENCH_DIR.parent
EXIT_REFUSED = 3


def median(values):
    return statistics.median(values) if values else None


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


class Bench:
    def __init__(self, args, spec: dict, work: Path):
        self.args = args
        self.spec = spec
        self.work = work
        self.env = wl.program_env(ROOT)
        self.failures: list = []  # (repetition tag, message)
        self.attempted = 0
        self.reference = None  # artifact digests of the first repetition
        self.first_artifacts = None  # ... with the set-up's build, for the cross-commit note
        self.notes: dict = {}  # metric name -> report note
        self.extra: dict = {}  # name -> (value, unit, note), reported but not in the JSON
        self.probe = None  # the latest wl.reference_loop_s() reading
        self.probes: list = []

    def scaled(self, fn):
        """Run ``fn``; return its result and the factor that scales a wall time
        taken inside it to the reference speed: ``reference_loop_s`` over the
        mean of the loop times read just before and just after it."""
        before = wl.reference_loop_s() if self.probe is None else self.probe
        result = fn()
        self.probe = wl.reference_loop_s()
        self.probes.append(self.probe)
        return result, SPECS["reference_loop_s"] / ((before + self.probe) / 2)

    # -- set-up ---------------------------------------------------------
    def check_pin(self) -> None:
        """Refuse to run when the default seed's input differs from its pin.

        Whatever --seed is, the default seed's input is generated (outside
        the set-up timing) and compared, so that a change to the generator
        cannot alter the workload unnoticed.
        """
        pinned = self.spec.get("input_sha256")
        if self.args.size != "full" or not pinned:
            return
        dest = self.work / "pin"
        events, _ = wl.generate_input(ROOT, self.spec, DEFAULT_SEED, dest)
        digest = wl.sha256_file(events)
        shutil.rmtree(dest)
        if digest != pinned:
            raise Refused(f"generated input sha256 {digest} != pinned {pinned} for seed "
                          f"{DEFAULT_SEED}: the workload changed; refusing to run")

    # -- repetitions ----------------------------------------------------
    def _fresh_out(self, inputs: wl.Inputs, tag: str) -> Path:
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        if self.spec.get("build"):
            for name in ("tensor.txt", "tensor.registry.txt"):
                shutil.copyfile(inputs.out_dir / name, out_dir / name)
        return out_dir

    def repetition(self, inputs: wl.Inputs, tag: str, traced: bool):
        """One repetition; returns (procs, out_dir, stage traces or None)."""
        out_dir = self._fresh_out(inputs, tag)
        stages = self.spec["commands"]
        if traced and stages == ["run"]:
            stages = layers.STAGES
        procs, traces = [], []
        for stage in stages:
            args = [stage, "--config", str(inputs.config), "--out-dir", str(out_dir)]
            if traced:
                trace = self.traced(args, f"{tag}-{stage}")
                procs.append(trace.proc)
                traces.append(trace)
            else:
                procs.append(wl.spawn(wl.cli_argv(*args), self.env, self.work / "logs",
                                      f"{tag}-{stage}"))
            if procs[-1].code != 0:
                break
        self.attempted += 1
        self.verify(inputs, tag, procs, out_dir, traced)
        return procs, out_dir, traces if traced else None

    def traced(self, cli_args: list, tag: str) -> layers.StageTrace:
        spans_path = self.work / "spans" / f"{tag}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(wl.BENCH_DIR / "tracer.py"), str(spans_path), tag, "--",
                *cli_args]
        proc = wl.spawn(argv, self.env, self.work / "logs", tag)
        spans = []
        if spans_path.exists():
            with open(spans_path, "r", encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
        try:
            summary = json.loads(proc.stdout) if proc.code == 0 else {}
        except json.JSONDecodeError:
            summary = {}
        return layers.StageTrace(cli_args[0], proc, spans, summary)

    def verify(self, inputs: wl.Inputs, tag: str, procs: list, out_dir: Path,
               traced: bool) -> None:
        messages = [f"exit {p.code} from {' '.join(p.argv[-5:])}: {p.stderr.strip()[-300:]}"
                    for p in procs if p.code != 0]
        if not messages:
            build_dir = inputs.out_dir if self.spec.get("build") else out_dir
            messages = wl.check_outputs(out_dir, build_dir, inputs, self.spec)
            digests = wl.artifact_digests(out_dir)
            if self.reference is None:
                self.reference = digests
                self.first_artifacts = dict(wl.artifact_digests(build_dir), **digests)
            else:
                skip = wl.RUN_ONLY_ARTIFACTS if traced else ()
                ref, now = ({k: v for k, v in d.items() if k not in skip}
                            for d in (self.reference, digests))
                if now != ref:
                    changed = sorted(k for k in set(ref) | set(now) if ref.get(k) != now.get(k))
                    messages.append(f"artifacts differ from the first repetition: {changed}")
        self.failures += [(tag, msg) for msg in messages]

    def loop(self, inputs: wl.Inputs, kinds, between=None) -> dict:
        """Repetitions cycling through ``kinds`` (traced flags) for --seconds.

        Each result is ``repetition()``'s triple and its ``scaled()`` factor.
        ``between(share)`` runs after each repetition with the share of
        --seconds used so far.
        """
        results = {kind: [] for kind in set(kinds)}
        start = time.perf_counter()
        i = 0
        while True:
            kind = kinds[i % len(kinds)]
            rep, scale = self.scaled(lambda: self.repetition(inputs, f"rep{i}", kind))
            results[kind].append((*rep, scale))
            i += 1
            share = (time.perf_counter() - start) / max(self.args.seconds, 1e-9)
            if between:
                between(share)
            if i >= len(kinds) and share >= 1.0:
                return results

    # -- modes ------------------------------------------------------------
    def end_to_end(self) -> dict:
        setups, digests = [], []  # setups: (wall, scale)
        repeats = self.spec["setup_repeats"]

        def set_up_timed():
            def timed():
                start = time.perf_counter()
                dest = self.work / f"setup{len(setups)}"
                inputs = wl.set_up(ROOT, self.spec, self.args.seed, dest)
                return inputs, time.perf_counter() - start

            (inputs, wall), scale = self.scaled(timed)
            setups.append((wall, scale))
            digests.append(wl.sha256_file(inputs.input))
            if digests[-1] != digests[0]:
                self.failures.append(("setup", "set-up is not deterministic"))
            return inputs

        def extra_set_up(share):
            # spread the set-ups over the run, so that they sample the
            # machine at the same moments as the repetitions do
            if len(setups) < repeats and share >= len(setups) / repeats:
                shutil.rmtree(set_up_timed().dir)

        self.check_pin()
        inputs = set_up_timed()
        reps = self.loop(inputs, [False], extra_set_up)[False]
        while len(setups) < repeats:
            extra_set_up(1.0)
        walls = [sum(p.wall_s for p in procs) for procs, _, _, _ in reps]
        runs = [wall * scale for wall, (_, _, _, scale) in zip(walls, reps)]
        rss = [max(p.peak_rss_mb for p in procs) for procs, _, _, _ in reps]
        setup_runs = [wall * scale for wall, scale in setups]
        nll = deviance = None
        for _, out_dir, _, _ in reps:
            build_dir = inputs.out_dir if self.spec.get("build") else out_dir
            try:
                with open(out_dir / "fit_summary.json", "r", encoding="utf-8") as fh:
                    nll = json.load(fh)["objective"]
                deviance = wl.fit_deviance(nll, wl.tensor_counts(build_dir / "tensor.txt"))
                break
            except (OSError, KeyError, ValueError, StopIteration):
                continue
        self.notes["run_s"] = f"median of n={len(runs)}: " + " ".join(f"{r:.3f}" for r in runs)
        self.notes["setup_s"] = "median of " + " ".join(f"{s:.3f}" for s in setup_runs)
        self.extra["run_s.max"] = (max(runs), "s", f"highest percentile n={len(runs)} supports")
        self.extra["run_s.wall"] = (median(walls), "s", "median unscaled wall time")
        self.extra["setup_s.wall"] = (median([w for w, _ in setups]), "s",
                                      "median unscaled wall time")
        self.extra["reference_loop_s"] = (median(self.probes), "s",
                                          f"median of n={len(self.probes)}, scaled to "
                                          f"{SPECS['reference_loop_s']}")
        self.extra["fit_nll"] = (nll, "nats", "fit_summary.json objective of the winning restart")
        return {
            "run_s": (median(runs), "s"),
            "peak_rss_mb": (median(rss), "MB"),
            "fit_deviance": (deviance, "nats/migration"),
            "setup_s": (median(setup_runs), "s"),
        }

    def per_layer(self) -> dict:
        build_traces = []

        def runner(args, tag):
            trace = self.traced(args, tag)
            build_traces.append(trace)
            return trace.proc

        self.check_pin()
        inputs = wl.set_up(ROOT, self.spec, self.args.seed, self.work / "setup",
                           runner if self.spec.get("build") else None)
        reps = self.loop(inputs, [False, True])
        plain = [scale * sum(p.wall_s for p in procs) for procs, _, _, scale in reps[False]]
        traced = [scale * sum(p.wall_s for p in procs) for procs, _, _, scale in reps[True]]
        config = self.spec["config"]
        per_rep = [layers.layer_metrics(build_traces + traces, inputs.records, config["fit"],
                                        countries=len(wl.REGISTRY.read_text().split()),
                                        months=self.spec["synth"]["months"])
                   for _, _, traces, _ in reps[True]]
        metrics = {name: (median([m[name] for m in per_rep]), layers.UNITS[name])
                   for name in per_rep[0]}
        metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
        self.extra["run_s.untraced"] = (median(plain), "s", f"median of n={len(plain)}")
        self.extra["run_s.traced"] = (median(traced), "s", f"median of n={len(traced)}")
        return metrics

    # -- output -----------------------------------------------------------
    @staticmethod
    def report(name, value, unit, note="") -> None:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit:<6} {note}".rstrip())


class Refused(RuntimeError):
    """The benchmark will not run on this input."""


SPECS = wl.load_specs()
DEFAULT_SEED = SPECS["default_seed"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS["workloads"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "migtensor" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'migtensor'}", file=sys.stderr)
        return 2
    spec = wl.sized(SPECS["workloads"][args.workload], args.size)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    bench = Bench(args, spec, work)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except wl.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    except Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only while another run uses it
            work.parent.rmdir()

    failed = len({tag for tag, _ in bench.failures if tag != "setup"})
    for tag, msg in bench.failures:
        print(f"  FAIL {tag}: {msg}")
    baseline = spec.get("artifact_sha256")
    if args.size == "full" and baseline and bench.first_artifacts:
        if args.seed == DEFAULT_SEED:
            now = bench.first_artifacts
            changed = sorted(k for k in set(baseline) | set(now) if baseline.get(k) != now.get(k))
            note = f"changed {changed}" if changed else "unchanged"
        else:
            note = f"not compared: they are pinned for seed {DEFAULT_SEED} only"
        print(f"  artifact digests vs workloads.json: {note}")
    bench.report("error_rate", failed / bench.attempted, "ratio",
                 f"{failed} failed of {bench.attempted} attempted")
    for name, (value, unit, note) in bench.extra.items():
        bench.report(name, value, unit, note)
    for name, (value, unit) in metrics.items():
        bench.report(name, value, unit, bench.notes.get(name, ""))
    correct = not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
