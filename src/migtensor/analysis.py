"""Gini-based ranking of fitted components and report emission.

Components whose time factor concentrates its mass in few months (high
Gini coefficient) flag bursty migration patterns; per component the report
lists the heaviest origin and destination countries and the full monthly
profile for plotting.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .ingestion import CountryRegistry, write_json
from .residence import MonthCalendar
from .solver import FactorModel


class DegenerateComponentWarning(UserWarning):
    """An all-zero vector was scored; its Gini is defined as 0."""


def gini(values) -> float:
    """Gini coefficient of a non-negative vector, in [0, 1).

    Mean absolute difference over all ordered pairs divided by twice the
    mean, population (length-M divisor) variant. Computed from sorted
    consecutive gaps in O(M log M): each gap x_(g+1) - x_(g) is straddled
    by g * (M - g) pairs. 0 for a uniform vector, (M-1)/M for a one-hot
    vector; an all-zero vector scores 0 with a warning.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("gini needs a 1-d vector with at least one entry")
    if not np.isfinite(v).all() or (v < 0).any():
        raise ValueError("gini is defined for finite non-negative values only")
    if not v.any():
        warnings.warn("gini of an all-zero vector defaults to 0", DegenerateComponentWarning)
        return 0.0
    n = v.size
    if n == 1:
        return 0.0
    # everything derives from the sorted order, including the total, so the
    # result is exactly invariant under input permutations
    v = np.sort(v)
    gaps = np.diff(v)
    g = np.arange(1, n, dtype=float)
    return float((gaps * g * (n - g)).sum() / (n * v.sum()))


@dataclass
class ComponentReport:
    """One ranked component: weight, time unevenness and top countries."""

    component: int            # column index in the fitted model
    weight: float
    gini: float
    degenerate: bool
    top_origins: list[tuple[str, float]]
    top_destinations: list[tuple[str, float]]
    time_profile: list[float]


def _top_shares(column: np.ndarray, registry: CountryRegistry, n_top: int) -> list[tuple[str, float]]:
    # descending share, ties to the smaller country index
    order = np.lexsort((np.arange(column.size), -column))[:n_top]
    return [(registry.codes[i], float(column[i])) for i in order]


def rank_components(
    model: FactorModel, registry: CountryRegistry, top_k: int = 10, n_top: int = 5
) -> list[ComponentReport]:
    """Score each component's time column by Gini and rank descending.

    Ties break by component weight (descending) then column index. Returns
    at most ``top_k`` reports; shares come from the normalized model, so
    the ranking is invariant to the factorization's scale gauge.
    """
    if top_k < 1 or n_top < 1:
        raise ValueError("top_k and n_top must be positive")
    norm = model.normalized()
    ginis, degenerate = [], []
    for k in range(norm.K):
        column = norm.T[:, k]
        if column.sum() == 0:
            ginis.append(0.0)
            degenerate.append(True)
        else:
            ginis.append(gini(column))
            degenerate.append(False)
    order = sorted(range(norm.K), key=lambda k: (-ginis[k], -norm.weights[k], k))
    reports = []
    for k in order[: min(top_k, norm.K)]:
        reports.append(ComponentReport(
            component=k,
            weight=float(norm.weights[k]),
            gini=ginis[k],
            degenerate=degenerate[k],
            top_origins=_top_shares(norm.O[:, k], registry, n_top),
            top_destinations=_top_shares(norm.D[:, k], registry, n_top),
            time_profile=[float(x) for x in norm.T[:, k]],
        ))
    return reports


def emit_reports(reports: list[ComponentReport], calendar: MonthCalendar, out_dir) -> list[Path]:
    """Write summary.json plus per-component time/country plot CSVs.

    Output is byte-deterministic for fixed inputs; component CSVs it does not
    write are removed. Returns the written paths (the summary alone if none).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary_path = out_dir / "summary.json"
    write_json(summary_path, {"components": [
        dict(asdict(r), rank=rank) for rank, r in enumerate(reports, start=1)
    ]})
    written.append(summary_path)
    for rank, report in enumerate(reports, start=1):
        time_path = out_dir / f"component_{rank}_time.csv"
        with open(time_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("month_index,calendar_month,value\n")
            for m, value in enumerate(report.time_profile):
                fh.write(f"{m},{calendar.label(m)},{value!r}\n")
        written.append(time_path)
        country_path = out_dir / f"component_{rank}_countries.csv"
        with open(country_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("role,country,share\n")
            for code, share in report.top_origins:
                fh.write(f"origin,{code},{share!r}\n")
            for code, share in report.top_destinations:
                fh.write(f"destination,{code},{share!r}\n")
        written.append(country_path)
    for stale in set(out_dir.glob("component_*.csv")).difference(written):
        stale.unlink()
    return written
