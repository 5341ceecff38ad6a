"""Subcommand CLI for the migration tensor pipeline.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 numerical
failure. The ``migtensor`` command and ``python -m migtensor.cli`` both
leave through :func:`hard_exit`, which flushes stdout and stderr and ends
the process without interpreter teardown; every artifact file is closed
by then. :func:`main` returns its code, for callers in process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn

from . import pipeline, synth
from .config import DETECTION_MODES, FORMATS, OVERRIDE_KEYS, apply_overrides, load_config
from .events import InputError
from .ingestion import ConfigError, load_registry

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_STAGE_COMMANDS = dict(pipeline.STAGES)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--input", help="override the input event stream path")
    parser.add_argument("--format", choices=FORMATS, help="input stream format")
    parser.add_argument("--out-dir", dest="out_dir", help="override the artifact directory")
    parser.add_argument("--window-k", dest="window_k", type=int, help="migration window length in months")
    parser.add_argument("--detection-mode", dest="detection_mode", choices=DETECTION_MODES)
    parser.add_argument("--rank", type=int, help="number of components K")
    parser.add_argument("--seed", type=int, help="solver RNG seed")
    parser.add_argument("--restarts", type=int, help="independent solver restarts")
    parser.add_argument("--max-iters", dest="max_iters", type=int, help="max solver sweeps")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, help="relative objective tolerance")
    parser.add_argument("--top-k", dest="top_k", type=int, help="components to report")
    parser.add_argument("--n-top", dest="n_top", type=int, help="countries listed per component")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="migtensor",
        description="Turn geo-tagged event streams into migration count tensors, "
                    "factorize them, and rank components by temporal unevenness.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("ingest", "parse, resolve and filter the raw event stream"),
        ("residences", "compute monthly residence series"),
        ("detect", "detect window-k migrations"),
        ("tensorize", "aggregate migrations into the sparse count tensor"),
        ("fit", "fit the non-negative Poisson CP decomposition"),
        ("analyze", "rank components by Gini and emit reports"),
        ("run", "run the whole pipeline end to end"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_override_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic event stream with planted moves")
    p.add_argument("--spec", required=True, help="synth spec JSON")
    p.add_argument("--registry", required=True, help="country registry file")
    p.add_argument("--out-events", required=True, help="where to write the event stream CSV")
    p.add_argument("--out-truth", help="where to write the planted ground truth JSON")
    return parser


def _run_stage_command(args) -> int:
    config = load_config(args.config)
    config = apply_overrides(config, {k: getattr(args, k) for k in OVERRIDE_KEYS})
    if args.command == "run":
        pipeline.run_pipeline(config)
        return EXIT_OK
    summary = _STAGE_COMMANDS[args.command](config)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _run_synth_command(args) -> int:
    spec = synth.load_synth_spec(args.spec)
    summary = synth.write_synthetic(spec, load_registry(args.registry), args.out_events, args.out_truth)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _run_synth_command(args)
        return _run_stage_command(args)
    except pipeline.StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return exc.exit_code
    except ConfigError as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"error [input] {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error [io] {exc}", file=sys.stderr)
        return EXIT_INPUT


def hard_exit(code: int) -> NoReturn:
    """End the process with ``code`` once stdout and stderr are flushed,
    skipping the teardown that frees every module and object one by one.
    A stdout that cannot be flushed (its reader has closed the pipe) ends
    with 120, the code CPython gives then, but quietly."""
    try:
        sys.stdout.flush()
    except (OSError, ValueError):
        code = 120
    try:
        sys.stderr.flush()
    except (OSError, ValueError):
        pass
    os._exit(code)


def console_main() -> NoReturn:
    """The ``migtensor`` command: :func:`main`, through :func:`hard_exit`."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    hard_exit(code)


if __name__ == "__main__":
    console_main()
