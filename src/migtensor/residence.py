"""Monthly country-of-residence series and window-based migration detection.

A user's residence in a month is the country with the most events that
month; silent months inherit the most recently known residence (forward
fill). A migration at month m is a change of window residence between the
k months before m and the k months starting at m.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ingestion import ConfigError, CountryRegistry, GeoEvent, InputError


@dataclass(frozen=True)
class MonthCalendar:
    """Study interval: ``months`` consecutive months starting at the epoch."""

    epoch_year: int
    epoch_month: int
    months: int

    def __post_init__(self):
        if not (1 <= self.epoch_month <= 12):
            raise ConfigError(f"epoch month must be 1..12, got {self.epoch_month}")
        if self.months < 1:
            raise ConfigError("calendar must cover at least one month")

    def month_index(self, ts: datetime) -> int:
        """Offset of ts's calendar month from the epoch (may fall outside [0, M))."""
        return (ts.year - self.epoch_year) * 12 + (ts.month - self.epoch_month)

    def year_month(self, index: int) -> tuple[int, int]:
        total = self.epoch_year * 12 + (self.epoch_month - 1) + index
        return total // 12, total % 12 + 1

    def label(self, index: int) -> str:
        y, m = self.year_month(index)
        return f"{y:04d}-{m:02d}"

    def interval(self) -> tuple[datetime, datetime]:
        """Half-open UTC interval covered by the calendar."""
        start = datetime(self.epoch_year, self.epoch_month, 1, tzinfo=timezone.utc)
        ey, em = self.year_month(self.months)
        return start, datetime(ey, em, 1, tzinfo=timezone.utc)


@dataclass
class ResidenceSeries:
    """Per-user month-indexed residence: raw observations plus filled view.

    ``observed[m]`` is the residence inferred from month m's own events
    (None for silent months); ``filled`` forward-fills silence. Months
    before the first observation stay None in both views.
    """

    user_id: str
    observed: list[Optional[int]]
    filled: list[Optional[int]]


@dataclass(frozen=True)
class MigrationEvent:
    user_id: str
    month: int
    origin: int
    destination: int

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError("migration origin and destination must differ")


def monthly_residence(
    events: Iterable[GeoEvent], calendar: MonthCalendar, registry: CountryRegistry
) -> ResidenceSeries:
    """Build one user's residence series from their resolved events.

    Per-month ties break to the previous filled month's country when it is
    among the tied, else to the tied country with the latest event in that
    month.
    """
    events = sorted(events, key=lambda ev: ev.timestamp)
    users = {ev.user_id for ev in events}
    if len(users) > 1:
        raise ValueError(f"events span multiple users: {sorted(users)}")
    user_id = events[0].user_id if events else ""

    counts: list[Counter] = [Counter() for _ in range(calendar.months)]
    latest: list[dict[int, datetime]] = [{} for _ in range(calendar.months)]
    for ev in events:
        if ev.country is None:
            raise ValueError("monthly_residence requires country-resolved events")
        m = calendar.month_index(ev.timestamp)
        if not (0 <= m < calendar.months):
            raise ValueError(f"event at {ev.timestamp} outside the study interval")
        c = registry.index_of(ev.country)
        counts[m][c] += 1
        latest[m][c] = ev.timestamp

    observed: list[Optional[int]] = [None] * calendar.months
    filled: list[Optional[int]] = [None] * calendar.months
    previous: Optional[int] = None
    for m in range(calendar.months):
        if counts[m]:
            top = max(counts[m].values())
            tied = [c for c, n in counts[m].items() if n == top]
            if len(tied) == 1:
                choice = tied[0]
            elif previous in tied:
                choice = previous
            else:
                choice = max(tied, key=lambda c: latest[m][c])
            observed[m] = choice
            previous = choice
        filled[m] = previous
    return ResidenceSeries(user_id, observed, filled)


def _window_residence(filled: np.ndarray, k: int, mode: str) -> np.ndarray:
    """Residence of every k-month window of a ``(U, M)`` matrix, -1 if undefined.

    Column s holds the window [s, s+k). A ``strict`` window is defined when
    all k months are known and equal; a ``modal`` window takes the unique
    most frequent known country.
    """
    windows = sliding_window_view(filled, k, axis=1)  # (U, M-k+1, k)
    if mode == "strict":
        # an all-unknown window yields -1, undefined, by itself
        return np.where((windows == windows[..., :1]).all(axis=-1), windows[..., 0], -1)
    # how many cells of its window share each cell's country (0 for unknown)
    votes = np.zeros(windows.shape, dtype=np.int16)
    for i in range(k):
        votes += windows == windows[..., i:i + 1]
    votes *= windows >= 0
    top = votes.max(axis=-1)
    # a country polled c votes fills exactly c cells, so the top count is
    # unique iff exactly `top` cells poll it (never when top is 0: k cells do)
    unique = (votes == top[..., None]).sum(axis=-1) == top
    mode_cell = votes.argmax(axis=-1)[..., None]
    return np.where(unique, np.take_along_axis(windows, mode_cell, axis=-1)[..., 0], -1)


def detect_all(series_list: Sequence[ResidenceSeries], k: int, mode: str = "strict") -> list[MigrationEvent]:
    """Detect residence changes between the k-month windows around each month.

    For each month m with full windows on both sides, compares the window
    residence over [m-k, m-1] against [m, m+k-1] and emits an event when
    both are defined and differ. ``strict`` windows are defined only when
    all k months agree; ``modal`` windows take the most frequent country
    (ties undefined) and collapse runs of the same (origin, destination)
    within k months to the earliest detection. Events come in series
    order, then month order. Every series must span the same months.
    """
    if mode not in ("strict", "modal"):
        raise ConfigError(f"unknown detection mode {mode!r}")
    if not series_list:
        return []
    M = len(series_list[0].filled)
    if k < 1 or 2 * k > M:
        raise ConfigError(f"window k={k} out of range for {M} months (need 1 <= k <= M/2)")
    if any(len(s.filled) != M for s in series_list):
        raise ValueError("residence series span different numbers of months")
    filled = np.fromiter(
        (-1 if c is None else c for s in series_list for c in s.filled),
        dtype=np.int16, count=len(series_list) * M).reshape(-1, M)

    resident = _window_residence(filled, k, mode)
    before, after = resident[:, :M - 2 * k + 1], resident[:, k:]
    users, starts = np.nonzero((before >= 0) & (after >= 0) & (before != after))
    origins, destinations = before[users, starts], after[users, starts]
    months = starts + k
    if mode == "modal" and users.size:
        # a detection repeating the same user's same (origin, destination)
        # within k months of the previous one continues that run
        order = np.lexsort((months, destinations, origins, users))
        u, o, d, m = users[order], origins[order], destinations[order], months[order]
        repeat = (u[1:] == u[:-1]) & (o[1:] == o[:-1]) & (d[1:] == d[:-1]) & (m[1:] - m[:-1] <= k)
        keep = np.ones(users.size, dtype=bool)
        keep[order[1:][repeat]] = False
        users, months = users[keep], months[keep]
        origins, destinations = origins[keep], destinations[keep]
    return [MigrationEvent(series_list[u].user_id, m, o, d) for u, m, o, d in zip(
        users.tolist(), months.tolist(), origins.tolist(), destinations.tolist())]


def detect_migrations(series: ResidenceSeries, k: int, mode: str = "strict") -> list[MigrationEvent]:
    """:func:`detect_all` for one series."""
    return detect_all([series], k, mode)


RESIDENCE_HEADER = ["user_id", "month_index", "country"]
MIGRATION_HEADER = ["user_id", "month_index", "origin", "destination"]


def write_residences(series_list: Iterable[ResidenceSeries], registry: CountryRegistry, path) -> None:
    """Dump filled residence views as ``user_id,month_index,country`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESIDENCE_HEADER)
        for series in series_list:
            for m, c in enumerate(series.filled):
                if c is not None:
                    writer.writerow([series.user_id, m, registry.code(c)])


def _dump_reader(fh, path, header: list[str]):
    """CSV reader over a dump's data rows, after checking its header."""
    reader = csv.reader(fh)
    found = next(reader, None)
    if found != header:
        raise InputError(f"{path}: unexpected header {found!r}")
    return reader


def _row_error(path, line: int, parts: list[str], header: list[str], months: int,
               registry: CountryRegistry) -> InputError:
    """The first defect of a malformed dump row, naming its ``path:line``."""
    where = f"{path}:{line}"
    if len(parts) != len(header):
        return InputError(f"{where}: expected {len(header)} fields, got {len(parts)}")
    try:
        month = int(parts[1])
    except ValueError:
        return InputError(f"{where}: month index {parts[1]!r} is not an integer")
    if not 0 <= month < months:
        return InputError(f"{where}: month index {month} outside [0, {months})")
    for code in parts[2:]:
        if code not in registry:
            return InputError(f"{where}: unknown country {code!r}")
    return InputError(f"{where}: origin and destination are both {parts[2]!r}")


def read_residences(path, registry: CountryRegistry, months: int) -> list[ResidenceSeries]:
    """Rebuild filled residence views from a residence dump.

    The observed/filled distinction is not stored on disk; the loaded
    series carries the filled view in both slots, which is all migration
    detection needs. A malformed row raises :class:`InputError` naming
    its ``path:line``.
    """
    index = registry.index
    per_user: dict[str, list[Optional[int]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        reader = _dump_reader(fh, path, RESIDENCE_HEADER)
        for parts in reader:
            try:
                user_id, m, code = parts
                month, country = int(m), index[code]
            except (ValueError, KeyError):
                month = -1
            if not 0 <= month < months:
                raise _row_error(path, reader.line_num, parts, RESIDENCE_HEADER, months, registry)
            filled = per_user.get(user_id)
            if filled is None:
                filled = per_user[user_id] = [None] * months
            filled[month] = country
    return [ResidenceSeries(u, list(per_user[u]), per_user[u]) for u in sorted(per_user)]


def write_migrations(events: Iterable[MigrationEvent], registry: CountryRegistry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MIGRATION_HEADER)
        for ev in events:
            writer.writerow([ev.user_id, ev.month, registry.code(ev.origin), registry.code(ev.destination)])


def read_migrations(path, registry: CountryRegistry, months: int) -> list[MigrationEvent]:
    """Load a migration dump; a malformed row raises :class:`InputError`
    naming its ``path:line``."""
    index = registry.index
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = _dump_reader(fh, path, MIGRATION_HEADER)
        for parts in reader:
            try:
                user_id, m, o, d = parts
                month, origin, destination = int(m), index[o], index[d]
            except (ValueError, KeyError):
                month = -1
            if not 0 <= month < months or origin == destination:
                raise _row_error(path, reader.line_num, parts, MIGRATION_HEADER, months, registry)
            events.append(MigrationEvent(user_id, month, origin, destination))
    return events
