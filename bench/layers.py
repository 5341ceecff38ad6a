"""Per-layer metrics from the spans of one traced run.

A traced run is a chain of stage commands, each its own process run
under ``tracer.py``. For each process we have its stage name, its ``wait4``
figures (wall, CPU, peak RSS) and its spans. Every per-layer metric of
``BENCHMARK.json`` is always produced; a layer function the program no
longer calls reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

STAGES = ("ingest", "residences", "detect", "tensorize", "fit", "analyze")

# every per-layer metric and its unit, as BENCHMARK.json lists them
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", "r",
          encoding="utf-8") as _fh:
    UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


@dataclass
class StageTrace:
    """One traced stage process."""

    stage: str
    proc: object  # workload.Proc
    spans: list  # span dicts in call order
    summary: dict  # the stage command's JSON summary


def _duration(span) -> float:
    return span["end"] - span["start"]


def _find(spans, name):
    """Index of the first span called ``name``, or None."""
    return next((i for i, s in enumerate(spans) if s["name"] == name), None)


def _times(spans, index):
    """(duration, self time) of a span: self time is what no child covers."""
    total = _duration(spans[index])
    return total, total - sum(_duration(s) for s in spans if s["parent"] == index)


def _restarts(fit_spans) -> list:
    """Objective sequence of each restart, read from the call order.

    A restart begins with a ``log_likelihood`` call that no ``mode_update``
    call precedes since the previous ``log_likelihood``.
    """
    restarts, updates = [], 0
    for span in fit_spans:
        if span["name"] == "solver.mode_update":
            updates += 1
        elif span["name"] == "solver.log_likelihood":
            if updates == 0 or not restarts:
                restarts.append([])
            restarts[-1].append(-span["detail"])
            updates = 0
    return restarts


def mode_update_bytes(nnz: int, rank: int, countries: int, months: int) -> int:
    """Bytes one ``mode_update`` reads and writes, computed, not measured.

    8-byte words as the update is written: the coordinate and count columns
    (4 nnz), two factor-row gathers, their product, the updated mode's
    gather, the scaled contribution and the scatter (6 nnz K), and the
    three factor matrices read and the updated one written ((3N + M) K).
    """
    return 8 * (4 * nnz + 6 * nnz * rank + (3 * countries + months) * rank)


def layer_metrics(traces: list, records: int, fit_config: dict, countries: int,
                  months: int) -> dict:
    """Every per-layer metric except ``trace.overhead_s``, from one chain."""
    m = dict.fromkeys(UNITS, 0.0)
    by_stage = defaultdict(lambda: defaultdict(float))
    startups, exits, config_loads, covered = [], [], [], 0.0
    for t in traces:
        span = _find(t.spans, f"pipeline.{t.stage}")
        if span is None:  # no stage function to wrap: count the whole process
            start, stage_s, self_s = t.proc.spawn, t.proc.wall_s, t.proc.wall_s
        else:
            start, (stage_s, self_s) = t.spans[span]["start"], _times(t.spans, span)
        startup = start - t.proc.spawn
        startups.append(startup)
        exits.append(t.proc.wall_s - startup - stage_s)
        covered += startup + stage_s
        m[f"pipeline.{t.stage}_s"] = stage_s
        m[f"pipeline.{t.stage}.self_s"] = self_s
        m[f"pipeline.{t.stage}.cpu_s"] = t.proc.cpu_s
        m[f"pipeline.{t.stage}.peak_rss_mb"] = t.proc.peak_rss_mb
        for s in t.spans:
            by_stage[t.stage][s["name"]] += _duration(s)
            if s["name"] == "config.load_config":
                config_loads.append(_duration(s))
    wall = sum(t.proc.wall_s for t in traces)
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    m["cli.exit_s"] = statistics.median(exits) if exits else 0.0
    m["config.load_s"] = statistics.median(config_loads) if config_loads else 0.0
    m["trace.accounted_ratio"] = covered / wall if wall else 0.0

    summaries = {t.stage: t.summary for t in traces}
    ingest, res, det = by_stage["ingest"], by_stage["residences"], by_stage["detect"]
    stats = summaries.get("ingest", {})
    parsed = stats.get("events_parsed", 0)
    m["pipeline.residences.reparse_s"] = res["ingestion.parse_events"]
    m["pipeline.detect.reread_s"] = det["residence.read_residences"]
    m["ingestion.parse_s"] = ingest["ingestion.parse_events"]
    m["ingestion.resolve_s"] = ingest["ingestion.resolve_events"]
    m["ingestion.filter_s"] = ingest["ingestion.filter_users"]
    m["ingestion.serialize_s"] = ingest["ingestion.serialize_events"]
    m["ingestion.records"] = records
    m["ingestion.rejected"] = sum(stats.get("rejects", {}).values())
    m["ingestion.kept_ratio"] = stats.get("events_kept", 0) / records if records else 0.0
    m["ingestion.parse_us_per_record"] = 1e6 * m["ingestion.parse_s"] / records if records else 0.0
    # every parsed record carries one location (a code or a point) to resolve
    m["ingestion.resolve_us_per_point"] = 1e6 * m["ingestion.resolve_s"] / parsed if parsed else 0.0

    users = summaries.get("residences", {}).get("users", 0)
    m["residence.users"] = users
    m["residence.monthly_s"] = res["residence.monthly_residence"]
    m["residence.write_s"] = res["residence.write_residences"]
    m["residence.detect_s"] = det["residence.detect_migrations"]
    m["residence.migrations"] = summaries.get("detect", {}).get("migrations", 0)
    if users:
        m["residence.monthly_us_per_user"] = 1e6 * m["residence.monthly_s"] / users
        m["residence.detect_us_per_user"] = 1e6 * m["residence.detect_s"] / users

    nnz = summaries.get("tensorize", {}).get("nnz", 0)
    m["tensor.nnz"] = nnz
    m["tensor.build_s"] = by_stage["tensorize"]["tensor.build_tensor"]
    m["tensor.save_s"] = by_stage["tensorize"]["tensor.save_tensor"]
    m["tensor.load_s"] = sum(by_stage[s]["tensor.load_tensor"] for s in STAGES)

    fit = next((t for t in traces if t.stage == "fit"), None)
    if fit is not None:
        solver = by_stage["fit"]
        fit_s = solver["solver.fit"]
        updates = [s for s in fit.spans if s["name"] == "solver.mode_update"]
        m["solver.fit_s"] = fit_s
        span = _find(fit.spans, "solver.fit")
        if span is not None:
            m["solver.fit.self_s"] = _times(fit.spans, span)[1]
        for mode in ("origin", "destination", "time"):
            m[f"solver.mode_update.{mode}_s"] = sum(
                _duration(s) for s in updates if s["detail"] == mode)
        if updates:
            m["solver.mode_update_ms"] = 1e3 * solver["solver.mode_update"] / len(updates)
        m["solver.log_likelihood_s"] = solver["solver.log_likelihood"]
        restarts = _restarts(fit.spans)
        sweeps = sum(len(objs) - 1 for objs in restarts)
        m["solver.sweeps"] = sweeps
        m["solver.sweep_ms"] = 1e3 * fit_s / sweeps if sweeps else 0.0
        m["solver.restarts"] = len(restarts)
        tol = fit_config["rel_tol"]
        finals = [objs[-1] for objs in restarts if objs]
        m["solver.restarts_converged"] = sum(
            1 for objs in restarts
            if len(objs) > 1 and abs(objs[-2] - objs[-1]) / max(abs(objs[-2]), 1.0) <= tol)
        if finals:
            best = min(finals)
            useful = sum(1 for f in finals if (f - best) / max(abs(best), 1.0) <= tol)
            m["solver.useful_restart_ratio"] = useful / len(finals)
        m["solver.mode_update.computed_bytes"] = mode_update_bytes(
            nnz, fit_config["rank"], countries, months)
    m["analysis.rank_s"] = by_stage["analyze"]["analysis.rank_components"]
    m["analysis.emit_s"] = by_stage["analyze"]["analysis.emit_reports"]
    return m
