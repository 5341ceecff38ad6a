"""Stage orchestration: each stage writes its artifacts under the
configured output directory, so stages can run one-shot or one at a time
with byte-identical results.

A stage is a loader, which builds the core's input from an artifact
under ``out_dir`` (ingest has none: its input is the raw stream), and a
core, which writes the stage's artifacts and returns its summary and a
hand-off for the next core. A stage command runs its loader, then its
core; a one-shot ``run`` chains the cores and reads no artifact back. It
hands over the kept :class:`~migtensor.events.EventTable`, the user ids
with their residence matrix, the ``(n, 4)`` migration rows, the tensor
and the fitted model (None for an empty tensor). Residences depend only
on the events and the calendar, so ``detect`` recomputes them from
``events.csv``, as ``residences`` does, and no stage reads
``residences.csv`` back; every other loader reads the artifact of the
stage before. Only a file on disk can be corrupt or stale, so the
loaders hold those checks: an events file without ingest's header or
with a row that ingest would have rejected or left unresolved, and a
model that does not fit the config's registry and months.

Each stage has one boundary, around its loader and its core alike, that
turns what they raise into a :class:`StageError` tagged with the stage's
name: a configuration error exits 2, an input error or a failed read or
write exits 3, and an artifact missing under ``out_dir`` names the stage
that writes it. A fit whose objective is not finite exits 4.

Nothing here writes to stdout: a stage command and :func:`run_pipeline`
return their summaries, which the CLI prints.

Artifact layout inside ``out_dir``::

    events.csv          parsed, resolved, filtered event stream
    ingest_stats.json   reject and drop tallies
    residences.csv      filled monthly residence per user (not read back)
    migrations.csv      detected window-k migration events
    tensor.txt          sparse count tensor (+ tensor.registry.txt sidecar)
    model.txt           fitted factor model (absent when the tensor is empty)
    fit_summary.json    objective trace summary
    reports/            summary.json and per-component plot CSVs
    run_summary.json    one-look overview of the whole run
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import analysis, events, ingestion, residence, solver, tensor
from .config import PipelineConfig
from .events import InputError, open_text
from .ingestion import ConfigError, write_json

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


class StageError(Exception):
    """Fatal stage failure with the exit code the CLI should use."""

    def __init__(self, stage: str, message: str, exit_code: int):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.exit_code = exit_code


@dataclass(frozen=True)
class Stage:
    """``load(config)`` reads the stage's input artifact (None for ingest);
    ``core(config, given)`` writes its artifacts and returns ``(summary,
    hand-off)``. Calling the stage runs the stage command."""

    name: str
    load: Optional[Callable[[PipelineConfig], Any]]
    core: Callable[[PipelineConfig, Any], tuple[dict, Any]]

    def __call__(self, config: PipelineConfig) -> dict:
        with self._boundary(config):
            return self.core(config, None if self.load is None else self.load(config))[0]

    def run(self, config: PipelineConfig, given) -> tuple[dict, Any]:
        with self._boundary(config):
            return self.core(config, given)

    @contextmanager
    def _boundary(self, config: PipelineConfig):
        """The message of an artifact missing under ``out_dir`` says to
        run the stage that writes it."""
        try:
            yield
        except ConfigError as exc:
            raise StageError(self.name, str(exc), EXIT_CONFIG) from exc
        except (InputError, OSError) as exc:
            message = str(exc)
            if isinstance(exc, FileNotFoundError) and exc.filename is not None:
                missing = Path(exc.filename)
                writer = WRITERS.get(missing.name) if missing.parent == config.out_dir else None
                if writer not in (None, self.name):
                    message = f"missing {exc.filename}; run {writer} first"
            raise StageError(self.name, message, EXIT_INPUT) from exc


# the stage that writes each artifact a loader reads
WRITERS = {"events.csv": "ingest", "migrations.csv": "detect", "tensor.txt": "tensorize",
           "model.txt": "fit"}


def _ingest(config: PipelineConfig, _: None) -> tuple[dict, events.EventTable]:
    """Parse the raw stream, resolve geo points, filter users, dump events."""
    registry = config.countries
    centroids = None if config.centroids is None else ingestion.load_centroids(config.centroids, registry)
    table, rejects = events.read_events(config.input, config.format, registry,
                                        config.calendar.interval(), centroids)
    kept, drops = ingestion.filter_table(table, config.filter_policy)
    summary = {
        "events_parsed": len(table),
        "events_kept": len(kept),
        "rejects": rejects.as_dict(),
        "filter": drops.as_dict(),
    }
    del table  # only the kept rows are alive through the write

    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "events.csv", "w", encoding="utf-8", newline="") as fh:
        events.write_events(kept, registry.codes, fh)
    write_json(config.out_dir / "ingest_stats.json", summary)
    return summary, kept


def _load_events(config: PipelineConfig) -> events.EventTable:
    """The events artifact, which holds only rows ingest kept, under the
    header ingest writes."""
    registry = config.countries
    path = config.out_dir / "events.csv"
    interval = config.calendar.interval()
    with open_text(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != events.CSV_HEADER_COUNTRY:
        raise events.line_error(path, 1, f"unexpected header {first!r}")
    try:
        table, rejects = events.read_events(path, "csv", registry, interval)
    except ConfigError:  # a point row, which ingest resolves before writing
        table = None
    if table is None or rejects.total:
        raise _bad_events_line(path, interval, registry)
    return table


def _bad_events_line(path, interval, registry) -> InputError:
    """The error naming the first line of the CSV events dump at ``path``
    that :func:`events.read_events` rejects, or finds a point on, with the reason.

    Each line is judged on its own in a whole read too, so the first block
    of lines that a read of it alone faults holds that line, and a read of
    each of its lines alone finds it. A line past the first is read under
    the header, as a data row."""
    def fault(lines: list[str], line: int) -> Optional[str]:
        rows = lines if line == 1 else [events.CSV_HEADER_COUNTRY + "\n", *lines]
        try:
            rejects = events.read_events(rows, "csv", registry, interval)[1]
        except ConfigError:
            return "holds an unresolved point"
        return f"row rejected as {', '.join(rejects.counts)}" if rejects.total else None

    with open_text(path) as fh:
        start = 1
        while block := list(islice(fh, events._PARSE_BLOCK)):
            if fault(block, start):
                for line, text in enumerate(block, start):
                    if reason := fault([text], line):
                        return events.line_error(path, line, f"events artifact {reason}")
            start += len(block)
    return InputError(f"{path}: events artifact is corrupt")


def _residences(config: PipelineConfig, table: events.EventTable) -> tuple[dict, tuple]:
    """Monthly residence of every user of the kept events."""
    filled = residence.residence_matrix(table, config.calendar)
    residence.write_residence_matrix(table.users, filled, config.countries,
                                     config.out_dir / "residences.csv")
    return {"users": len(table.users)}, (table.users, filled)


def _recompute_residences(config: PipelineConfig) -> tuple:
    """The users of the events artifact with their residence matrix, the
    hand-off of the residences core."""
    table = _load_events(config)
    return table.users, residence.residence_matrix(table, config.calendar)


def _detect(config: PipelineConfig, residences: tuple) -> tuple[dict, np.ndarray]:
    """Window-k migration detection over the users' residences."""
    users, filled = residences
    moves = residence.detect_all(filled, config.window_k, config.detection_mode)
    residence.write_migrations(users, moves, config.countries, config.out_dir / "migrations.csv")
    return {"migrations": len(moves)}, moves


def _load_migrations(config: PipelineConfig) -> np.ndarray:
    return residence.read_migrations(config.out_dir / "migrations.csv", config.countries, config.months)[1]


def _tensorize(config: PipelineConfig, moves: np.ndarray) -> tuple[dict, tensor.MigrationTensor]:
    registry = config.countries
    t = tensor.build_tensor(moves, registry, config.months)
    tensor.save_tensor(t, config.out_dir / "tensor.txt")
    ingestion.save_registry(registry, config.out_dir / "tensor.registry.txt")
    return {"nnz": t.nnz, "total": t.total}, t


def _check_dims(config: PipelineConfig, path, kind: str, dims: tuple, stage: str) -> None:
    """Refuse an artifact whose (N, N, M) dims are not the config's."""
    N, M = len(config.countries), config.months
    if dims != (N, N, M):
        raise InputError(f"{path}: {kind} of {dims[0]} x {dims[1]} countries x {dims[2]} months "
                         f"does not match the config's {N} countries and {M} months; "
                         f"run {stage} again")


def _load_tensor(config: PipelineConfig) -> tensor.MigrationTensor:
    path = config.out_dir / "tensor.txt"
    t = tensor.load_tensor(path)
    # before fit sizes its factors by the header's dims
    _check_dims(config, path, "tensor", t.dims, "tensorize")
    return t


def _fit(config: PipelineConfig, t: tensor.MigrationTensor) -> tuple[dict, Optional[solver.FactorModel]]:
    model_path = config.out_dir / "model.txt"
    if t.nnz == 0:
        model_path.unlink(missing_ok=True)
        summary = {"skipped": True, "reason": "empty tensor"}
        write_json(config.out_dir / "fit_summary.json", summary)
        return summary, None
    model, trace = solver.fit(t, config.fit)
    final = trace.objectives[-1]
    if not math.isfinite(final):
        raise StageError("fit", f"objective diverged to {final}", EXIT_NUMERICAL)
    solver.save_model(model, model_path)
    summary = {
        "skipped": False,
        "rank": config.fit.rank,
        "restarts": config.fit.restarts,
        "best_restart": trace.restart,
        "sweeps": trace.n_sweeps,
        "converged": trace.converged,
        "objective": final,
    }
    write_json(config.out_dir / "fit_summary.json", summary)
    return summary, model


def _load_model(config: PipelineConfig) -> Optional[solver.FactorModel]:
    """The fitted model, or None where fit wrote none for an empty tensor."""
    model_path = config.out_dir / "model.txt"
    # for a tensor that is not empty, loading the missing model fails below
    if not model_path.exists() and tensor.load_tensor(config.out_dir / "tensor.txt").nnz == 0:
        return None
    model = solver.load_model(model_path)
    _check_dims(config, model_path, "model", model.dims, "fit")
    return model


def _analyze(config: PipelineConfig, model: Optional[solver.FactorModel]) -> tuple[dict, None]:
    reports = [] if model is None else analysis.rank_components(model, config.countries,
                                                                 config.top_k, config.n_top)
    analysis.emit_reports(reports, config.calendar, config.out_dir / "reports")
    return {
        "components_reported": len(reports),
        "top_ginis": [round(r.gini, 6) for r in reports],
    }, None


# (name, stage command) pairs in run order; each command is its stage's loader and core
STAGES = tuple((name, Stage(name, load, core)) for name, load, core in (
    ("ingest", None, _ingest),
    ("residences", _load_events, _residences),
    ("detect", _recompute_residences, _detect),
    ("tensorize", _load_migrations, _tensorize),
    ("fit", _load_tensor, _fit),
    ("analyze", _load_model, _analyze),
))
stage_ingest, stage_residences, stage_detect, stage_tensorize, stage_fit, stage_analyze = (
    stage for _, stage in STAGES)


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage's core in order, each on the hand-off of the one
    before, write run_summary.json and return the summary.

    A fatal error in any stage aborts with that stage's tag and exit code.
    """
    summary: dict = {}
    given = None
    for name, stage in STAGES:
        # rebinding drops each hand-off as soon as the next core has taken
        # it, so only one is alive at a time
        summary[name], given = stage.run(config, given)
    summary["overview"] = {
        "users_kept": summary["ingest"]["filter"]["users_seen"]
        - summary["ingest"]["filter"]["users_dropped"],
        "events_kept": summary["ingest"]["events_kept"],
        "migrations": summary["detect"]["migrations"],
        "tensor_nnz": summary["tensorize"]["nnz"],
        "tensor_total": summary["tensorize"]["total"],
        "objective": summary["fit"].get("objective"),
        "solver_skipped": summary["fit"].get("skipped", False),
        "top_ginis": summary["analyze"]["top_ginis"],
    }
    write_json(config.out_dir / "run_summary.json", summary)
    return summary
