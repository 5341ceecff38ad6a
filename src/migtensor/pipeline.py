"""Stage orchestration: each stage reads and writes artifacts under the
configured output directory, so stages can run one-shot or one at a time
with byte-identical results.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import analysis, ingestion, residence, solver, tensor
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


def _load_registry(config: PipelineConfig) -> ingestion.CountryRegistry:
    try:
        return ingestion.load_registry(config.registry)
    except OSError as exc:
        raise StageError("ingest", f"cannot read registry: {exc}", 3)
    except ingestion.ConfigError as exc:
        raise StageError("ingest", str(exc), 2)


def stage_ingest(config: PipelineConfig) -> dict:
    """Parse the raw stream, resolve geo points, filter users, dump events."""
    registry = _load_registry(config)
    table = None
    if config.centroids is not None:
        try:
            table = ingestion.load_centroids(config.centroids, registry)
        except OSError as exc:
            raise StageError("ingest", f"cannot read centroid table: {exc}", 3)
        except ingestion.ConfigError as exc:
            raise StageError("ingest", str(exc), 2)
    try:
        with open(config.input, "r", encoding="utf-8") as fh:
            events, rejects = ingestion.parse_events(
                fh, config.format, interval=config.calendar.interval(), registry=registry)
    except OSError as exc:
        raise StageError("ingest", f"cannot read input: {exc}", 3)
    except ingestion.InputError as exc:
        raise StageError("ingest", str(exc), 3)
    try:
        events = ingestion.resolve_events(events, table)
    except ingestion.ConfigError as exc:
        raise StageError("ingest", str(exc), 2)
    kept, drops = ingestion.filter_users(events, config.filter_policy)

    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "events.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ingestion.serialize_events(kept, "csv", header=True))
    summary = {
        "events_parsed": len(events),
        "events_kept": len(kept),
        "rejects": rejects.as_dict(),
        "filter": drops.as_dict(),
    }
    _write_json(config.out_dir / "ingest_stats.json", summary)
    return summary


def _events_by_user(config) -> tuple[ingestion.CountryRegistry, list[list[ingestion.GeoEvent]]]:
    registry = _load_registry(config)
    path = config.out_dir / "events.csv"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            events, rejects = ingestion.parse_events(fh, "csv", registry=registry)
    except OSError as exc:
        raise StageError("residences", f"missing events artifact ({exc}); run ingest first", 3)
    if rejects.total:
        raise StageError("residences", f"events artifact is corrupt: {rejects.as_dict()}", 3)
    grouped: dict[str, list] = {}
    for ev in events:
        grouped.setdefault(ev.user_id, []).append(ev)
    return registry, [grouped[u] for u in sorted(grouped)]


def stage_residences(config: PipelineConfig) -> dict:
    """Monthly residence series for every user in the event artifact."""
    registry, per_user = _events_by_user(config)
    calendar = config.calendar

    def one(events):
        return residence.monthly_residence(events, calendar, registry)

    if config.threads > 1 and per_user:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            series = list(pool.map(one, per_user))
    else:
        series = [one(events) for events in per_user]
    residence.write_residences(series, registry, config.out_dir / "residences.csv")
    return {"users": len(series)}


def stage_detect(config: PipelineConfig) -> dict:
    """Window-k migration detection over the residence artifact."""
    registry = _load_registry(config)
    path = config.out_dir / "residences.csv"
    try:
        series = residence.read_residences(path, registry, config.months)
    except OSError as exc:
        raise StageError("detect", f"missing residences artifact ({exc}); run residences first", 3)
    except ingestion.InputError as exc:
        raise StageError("detect", str(exc), 3)
    events = residence.detect_all(series, config.window_k, config.detection_mode)
    residence.write_migrations(events, registry, config.out_dir / "migrations.csv")
    return {"migrations": len(events)}


def stage_tensorize(config: PipelineConfig) -> dict:
    registry = _load_registry(config)
    path = config.out_dir / "migrations.csv"
    try:
        events = residence.read_migrations(path, registry, config.months)
    except OSError as exc:
        raise StageError("tensorize", f"missing migrations artifact ({exc}); run detect first", 3)
    except ingestion.InputError as exc:
        raise StageError("tensorize", str(exc), 3)
    t = tensor.build_tensor(events, registry, config.months)
    tensor.save_tensor(t, config.out_dir / "tensor.txt")
    ingestion.save_registry(registry, config.out_dir / "tensor.registry.txt")
    return {"nnz": t.nnz, "total": t.total}


def stage_fit(config: PipelineConfig) -> dict:
    try:
        t = tensor.load_tensor(config.out_dir / "tensor.txt")
    except OSError as exc:
        raise StageError("fit", f"missing tensor artifact ({exc}); run tensorize first", 3)
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
        try:
            t = tensor.load_tensor(config.out_dir / "tensor.txt")
        except OSError as exc:
            raise StageError("analyze", f"missing model artifact ({exc}); run fit first", 3)
        if t.nnz != 0:
            raise StageError("analyze", "missing model artifact; run fit first", 3)
        analysis.emit_reports([], config.calendar, reports_dir)
        return {"components_reported": 0, "top_ginis": []}
    model = solver.load_model(model_path)
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
