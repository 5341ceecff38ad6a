"""Stage orchestration: each stage reads and writes artifacts under the
configured output directory, so stages can run one-shot or one at a time
with byte-identical results. Each stage re-reads its input artifact from
disk, also inside a one-shot ``run``: nothing passes between stages in
memory.

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

import json
import math
from pathlib import Path

from . import analysis, events, ingestion, residence, solver, tensor
from .config import PipelineConfig


class StageError(Exception):
    """Fatal stage failure with the exit code the CLI should use."""

    def __init__(self, stage: str, message: str, exit_code: int):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.exit_code = exit_code


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read(stage: str, path, read, missing: str):
    """``read()``, which reads ``path``; a missing, non-UTF-8 or malformed
    file is an input error of ``stage`` (exit 3)."""
    try:
        return read()
    except OSError as exc:
        raise StageError(stage, missing.format(exc=exc), 3)
    except UnicodeDecodeError as exc:
        raise StageError(stage, f"{path}: not UTF-8 text ({exc.reason})", 3)
    except events.InputError as exc:
        raise StageError(stage, str(exc), 3)


def _load_registry(config: PipelineConfig) -> ingestion.CountryRegistry:
    try:
        return _read("ingest", config.registry, lambda: ingestion.load_registry(config.registry),
                     "cannot read registry: {exc}")
    except ingestion.ConfigError as exc:
        raise StageError("ingest", str(exc), 2)


def _read_events(stage: str, path, format: str, config: PipelineConfig, registry, missing: str):
    def read():
        with open(path, "r", encoding="utf-8") as fh:
            return events.read_events(fh, format, config.calendar.interval(), registry)
    return _read(stage, path, read, missing)


def stage_ingest(config: PipelineConfig) -> dict:
    """Parse the raw stream, resolve geo points, filter users, dump events."""
    registry = _load_registry(config)
    centroids = None
    if config.centroids is not None:
        try:
            centroids = _read("ingest", config.centroids,
                          lambda: ingestion.load_centroids(config.centroids, registry),
                          "cannot read centroid table: {exc}")
        except ingestion.ConfigError as exc:
            raise StageError("ingest", str(exc), 2)
    table, rejects = _read_events("ingest", config.input, config.format, config, registry,
                                  "cannot read input: {exc}")
    try:
        table = ingestion.resolve_table(table, centroids)
    except ingestion.ConfigError as exc:
        raise StageError("ingest", str(exc), 2)
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
    _write_json(config.out_dir / "ingest_stats.json", summary)
    return summary


def stage_residences(config: PipelineConfig) -> dict:
    """Monthly residence of every user in the event artifact."""
    registry = _load_registry(config)
    path = config.out_dir / "events.csv"
    table, rejects = _read_events("residences", path, "csv", config, registry,
                                  "missing events artifact ({exc}); run ingest first")
    if rejects.total:
        raise StageError("residences", f"{path}: events artifact is corrupt: {rejects.as_dict()}", 3)
    if (table.country < 0).any():
        raise StageError("residences", f"{path}: events artifact holds an unresolved point", 3)
    filled = residence.residence_matrix(table, config.calendar)
    residence.write_residence_matrix(table.users, filled, registry, config.out_dir / "residences.csv")
    return {"users": len(table.users)}


def stage_detect(config: PipelineConfig) -> dict:
    """Window-k migration detection over the residence artifact."""
    registry = _load_registry(config)
    path = config.out_dir / "residences.csv"
    users, filled = _read("detect", path, lambda: residence.read_residences(path, registry, config.months),
                          "missing residences artifact ({exc}); run residences first")
    migrations = residence.detect_all(users, filled, config.window_k, config.detection_mode)
    residence.write_migrations(migrations, registry, config.out_dir / "migrations.csv")
    return {"migrations": len(migrations)}


def stage_tensorize(config: PipelineConfig) -> dict:
    registry = _load_registry(config)
    path = config.out_dir / "migrations.csv"
    migrations = _read("tensorize", path, lambda: residence.read_migrations(path, registry, config.months),
                       "missing migrations artifact ({exc}); run detect first")
    t = tensor.build_tensor(migrations, registry, config.months)
    tensor.save_tensor(t, config.out_dir / "tensor.txt")
    ingestion.save_registry(registry, config.out_dir / "tensor.registry.txt")
    return {"nnz": t.nnz, "total": t.total}


def stage_fit(config: PipelineConfig) -> dict:
    path = config.out_dir / "tensor.txt"
    t = _read("fit", path, lambda: tensor.load_tensor(path),
              "missing tensor artifact ({exc}); run tensorize first")
    model_path = config.out_dir / "model.txt"
    if t.nnz == 0:
        model_path.unlink(missing_ok=True)
        summary = {"skipped": True, "reason": "empty tensor"}
        _write_json(config.out_dir / "fit_summary.json", summary)
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
    _write_json(config.out_dir / "fit_summary.json", summary)
    return summary


def stage_analyze(config: PipelineConfig) -> dict:
    registry = _load_registry(config)
    model_path = config.out_dir / "model.txt"
    reports_dir = config.out_dir / "reports"
    if not model_path.exists():
        path = config.out_dir / "tensor.txt"
        t = _read("analyze", path, lambda: tensor.load_tensor(path),
                  "missing model artifact ({exc}); run fit first")
        if t.nnz != 0:
            raise StageError("analyze", "missing model artifact; run fit first", 3)
        analysis.emit_reports([], config.calendar, reports_dir)
        return {"components_reported": 0, "top_ginis": []}
    model = _read("analyze", model_path, lambda: solver.load_model(model_path),
                  "cannot read model artifact: {exc}")
    N, M = len(registry), config.months
    if (len(model.O), len(model.D), len(model.T)) != (N, N, M):
        raise StageError("analyze", f"{model_path}: model of {len(model.O)} x {len(model.D)} countries x "
                         f"{len(model.T)} months does not match the config's {N} countries and {M} "
                         "months; run fit again", 3)
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
    _write_json(config.out_dir / "run_summary.json", summary)
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
