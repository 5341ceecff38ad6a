"""Stage orchestration: each stage reads and writes artifacts under the
configured output directory, so stages can run one-shot or one at a time
with byte-identical results. Each stage re-reads its input artifact from
disk, also inside a one-shot ``run``: nothing passes between stages in
memory.

Each stage has one boundary, :func:`_stage`. The stage body calls the
loaders and writers directly; the boundary turns what they raise into a
:class:`StageError` tagged with the stage's name: a configuration error
exits 2, an input error or a failed read or write exits 3, and a file
missing under ``out_dir`` names the stage to run first.

Artifact layout inside ``out_dir``::

    events.csv          parsed, resolved, filtered event stream
    ingest_stats.json   reject and drop tallies
    residences.csv      filled monthly residence per user
    migrations.csv      detected window-k migration events
    tensor.txt          sparse count tensor (+ tensor.registry.txt sidecar)
    model.txt           fitted factor model (absent when the tensor is empty)
    fit_summary.json    objective trace summary
    reports/            summary.json and per-component plot CSVs
    run_summary.json    one-look overview of the whole run
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

from . import analysis, events, ingestion, residence, solver, tensor
from .config import PipelineConfig
from .events import InputError, open_text
from .ingestion import ConfigError, write_json


class StageError(Exception):
    """Fatal stage failure with the exit code the CLI should use."""

    def __init__(self, stage: str, message: str, exit_code: int):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.exit_code = exit_code


def _stage(fn):
    """``fn`` behind the stage boundary. A file missing under ``out_dir`` is
    the artifact of the stage before, so its message says to run that one."""
    name = fn.__name__.removeprefix("stage_")

    @functools.wraps(fn)
    def stage(config: PipelineConfig) -> dict:
        try:
            return fn(config)
        except ConfigError as exc:
            raise StageError(name, str(exc), 2) from exc
        except (InputError, OSError) as exc:
            message = str(exc)
            names = [n for n, _ in STAGES]
            previous = dict(zip(names[1:], names)).get(name)
            if (previous and isinstance(exc, FileNotFoundError) and exc.filename is not None
                    and Path(exc.filename).parent == config.out_dir):
                message = f"missing {exc.filename}; run {previous} first"
            raise StageError(name, message, 3) from exc
    return stage


@_stage
def stage_ingest(config: PipelineConfig) -> dict:
    """Parse the raw stream, resolve geo points, filter users, dump events."""
    registry = ingestion.load_registry(config.registry)
    centroids = None if config.centroids is None else ingestion.load_centroids(config.centroids, registry)
    with open_text(config.input) as fh:
        table, rejects = events.read_events(fh, config.format, config.calendar.interval(), registry,
                                            centroids)
    kept, drops = ingestion.filter_table(table, config.filter_policy)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "events.csv", "w", encoding="utf-8", newline="") as fh:
        events.write_events(kept, fh)
    summary = {
        "events_parsed": len(table),
        "events_kept": len(kept),
        "rejects": rejects.as_dict(),
        "filter": drops.as_dict(),
    }
    write_json(config.out_dir / "ingest_stats.json", summary)
    return summary


@_stage
def stage_residences(config: PipelineConfig) -> dict:
    """Monthly residence of every user in the event artifact."""
    registry = ingestion.load_registry(config.registry)
    path = config.out_dir / "events.csv"
    try:
        with open_text(path) as fh:
            table, rejects = events.read_events(fh, "csv", config.calendar.interval(), registry)
    except ConfigError as exc:  # a point row, which ingest resolves before writing
        raise InputError(f"{path}: events artifact holds an unresolved point") from exc
    if rejects.total:
        raise InputError(f"{path}: events artifact is corrupt: {rejects.as_dict()}")
    filled = residence.residence_matrix(table, config.calendar)
    residence.write_residence_matrix(table.users, filled, registry, config.out_dir / "residences.csv")
    return {"users": len(table.users)}


@_stage
def stage_detect(config: PipelineConfig) -> dict:
    """Window-k migration detection over the residence artifact."""
    registry = ingestion.load_registry(config.registry)
    users, filled = residence.read_residences(config.out_dir / "residences.csv", registry, config.months)
    migrations = residence.detect_all(users, filled, config.window_k, config.detection_mode)
    residence.write_migrations(migrations, registry, config.out_dir / "migrations.csv")
    return {"migrations": len(migrations)}


@_stage
def stage_tensorize(config: PipelineConfig) -> dict:
    registry = ingestion.load_registry(config.registry)
    migrations = residence.read_migrations(config.out_dir / "migrations.csv", registry, config.months)
    t = tensor.build_tensor(migrations, registry, config.months)
    tensor.save_tensor(t, config.out_dir / "tensor.txt")
    ingestion.save_registry(registry, config.out_dir / "tensor.registry.txt")
    return {"nnz": t.nnz, "total": t.total}


@_stage
def stage_fit(config: PipelineConfig) -> dict:
    t = tensor.load_tensor(config.out_dir / "tensor.txt")
    model_path = config.out_dir / "model.txt"
    if t.nnz == 0:
        model_path.unlink(missing_ok=True)
        summary = {"skipped": True, "reason": "empty tensor"}
        write_json(config.out_dir / "fit_summary.json", summary)
        return summary
    model, trace = solver.fit(t, config.fit)
    final = trace.objectives[-1]
    if not math.isfinite(final):
        raise StageError("fit", f"objective diverged to {final}", 4)
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
    return summary


@_stage
def stage_analyze(config: PipelineConfig) -> dict:
    registry = ingestion.load_registry(config.registry)
    model_path = config.out_dir / "model.txt"
    reports_dir = config.out_dir / "reports"
    # fit writes no model for an empty tensor; for any other, loading the
    # missing model fails below
    if not model_path.exists() and tensor.load_tensor(config.out_dir / "tensor.txt").nnz == 0:
        analysis.emit_reports([], config.calendar, reports_dir)
        return {"components_reported": 0, "top_ginis": []}
    model = solver.load_model(model_path)
    N, M = len(registry), config.months
    if (len(model.O), len(model.D), len(model.T)) != (N, N, M):
        raise InputError(f"{model_path}: model of {len(model.O)} x {len(model.D)} countries x "
                         f"{len(model.T)} months does not match the config's {N} countries and {M} "
                         "months; run fit again")
    reports = analysis.rank_components(model, registry, config.top_k, config.n_top)
    analysis.emit_reports(reports, config.calendar, reports_dir)
    return {
        "components_reported": len(reports),
        "top_ginis": [round(r.gini, 6) for r in reports],
    }


STAGES = (
    ("ingest", stage_ingest),
    ("residences", stage_residences),
    ("detect", stage_detect),
    ("tensorize", stage_tensorize),
    ("fit", stage_fit),
    ("analyze", stage_analyze),
)


def run_pipeline(config: PipelineConfig, echo=print) -> dict:
    """Run every stage in order and write run_summary.json.

    A fatal error in any stage aborts with that stage's tag and exit code.
    """
    summary: dict = {}
    for name, fn in STAGES:
        summary[name] = fn(config)
    overview = {
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
    summary["overview"] = overview
    write_json(config.out_dir / "run_summary.json", summary)
    if echo is not None:
        echo(f"users kept:      {overview['users_kept']}")
        echo(f"events kept:     {overview['events_kept']}")
        echo(f"migrations:      {overview['migrations']}")
        echo(f"tensor nnz:      {overview['tensor_nnz']} (total {overview['tensor_total']})")
        if overview["solver_skipped"]:
            echo("solver:          skipped (empty tensor)")
        else:
            echo(f"final objective: {overview['objective']:.6f}")
        echo(f"top ginis:       {overview['top_ginis']}")
    return summary
