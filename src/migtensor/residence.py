"""Monthly country of residence and window-based migration detection.

A user's residence in a month is the country with the most events that
month; silent months inherit the most recently known residence (forward
fill). Residences are held as one ``(users, months)`` int16 matrix of
country indices, -1 where unknown. A migration at month m is a change of
window residence between the k months before m and the k months starting
at m.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .events import EventTable, InputError, csv_cells, join_rows, open_text, run_starts
from .ingestion import ConfigError, CountryRegistry


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
        # the interval's bounds are datetimes, which hold years 1 to 9999
        if self.epoch_year < 1 or self.year_month(self.months)[0] > 9999:
            raise ConfigError(f"calendar of {self.months} months from {self.label(0)} must start "
                              "in year 1 or later and end by November 9999")

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


@dataclass(frozen=True)
class MigrationEvent:
    user_id: str
    month: int
    origin: int
    destination: int

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError("migration origin and destination must differ")


def residence_matrix(table: EventTable, calendar: MonthCalendar) -> np.ndarray:
    """Filled monthly residence of every user of an event table.

    Returns a ``(len(table.users), calendar.months)`` int16 matrix of
    indices into ``table.codes``, -1 where unknown. A month with events
    takes its most frequent country; ties break to the previous filled
    month's country when it is among the tied, else to the tied country
    with the latest event in that month, and among equally late ones to
    the country seen first that month. A silent month inherits the month
    before it; months before a user's first event stay -1.
    """
    U, M, N = len(table.users), calendar.months, max(len(table.codes), 1)
    epoch = (calendar.epoch_year - 1970) * 12 + calendar.epoch_month - 1
    month = table.seconds.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64) - epoch
    if ((month < 0) | (month >= M)).any():
        raise ValueError("event outside the study interval")
    filled = np.full((U, M), -1, dtype=np.int16)
    if not len(table):
        return filled
    # rows in time order per user (equal seconds in table order), then
    # grouped by (user, month, country) with the stable sort keeping that order
    order = np.lexsort((table.seconds, table.user))
    key = (table.user[order].astype(np.int64) * M + month[order]) * N + table.country[order]
    by_key = np.argsort(key, kind="stable")
    starts = np.flatnonzero(run_starts(key[by_key]))
    ends = np.append(starts[1:], key.size) - 1
    group_key = key[by_key][starts]
    count = ends - starts + 1
    latest = table.seconds[order][by_key[ends]]
    first = by_key[starts]  # time-order position of the country's first event that month
    group_cell = group_key // N
    cell_of_group = np.cumsum(run_starts(group_cell)) - 1
    # one winner per (user, month) cell: most events, latest event, seen first
    ranked = np.lexsort((first, -latest, -count, group_cell))
    winner = ranked[run_starts(group_cell[ranked])]
    cells = group_cell[winner]
    tied = count == count[winner][cell_of_group]
    tie_cell = np.bincount(cell_of_group[tied], minlength=cells.size) > 1
    tied_keys = group_key[tied]
    tie_user, tie_month = np.divmod(cells[tie_cell], M)

    filled.reshape(-1)[cells] = group_key[winner] % N
    previous = np.full(U, -1, dtype=np.int16)
    for m in range(M):
        column = filled[:, m]
        users = tie_user[tie_month == m]
        if users.size:
            # a tie keeps the previous month's country when it is among the tied
            wanted = (users.astype(np.int64) * M + m) * N + previous[users]
            found = tied_keys[np.minimum(np.searchsorted(tied_keys, wanted), tied_keys.size - 1)]
            keeps = (previous[users] >= 0) & (found == wanted)
            column[users[keeps]] = previous[users[keeps]]
        np.copyto(column, previous, where=column < 0)
        previous = column
    return filled


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


def detect_all(users: Sequence[str], filled: np.ndarray, k: int,
               mode: str = "strict") -> list[MigrationEvent]:
    """Detect residence changes between the k-month windows around each month.

    ``filled`` is a ``(len(users), M)`` residence matrix, -1 where unknown,
    as :func:`residence_matrix` and :func:`read_residences` return it. For
    each month m with full windows on both sides, compares the window
    residence over [m-k, m-1] against [m, m+k-1] and emits an event when
    both are defined and differ. ``strict`` windows are defined only when
    all k months agree; ``modal`` windows take the most frequent country
    (ties undefined) and collapse runs of the same (origin, destination)
    within k months to the earliest detection. Events come in row order,
    then month order.
    """
    if mode not in ("strict", "modal"):
        raise ConfigError(f"unknown detection mode {mode!r}")
    M = filled.shape[1]
    if k < 1 or 2 * k > M:
        raise ConfigError(f"window k={k} out of range for {M} months (need 1 <= k <= M/2)")

    resident = _window_residence(filled, k, mode)
    before, after = resident[:, :M - 2 * k + 1], resident[:, k:]
    rows, starts = np.nonzero((before >= 0) & (after >= 0) & (before != after))
    origins, destinations = before[rows, starts], after[rows, starts]
    months = starts + k
    if mode == "modal" and rows.size:
        # a detection repeating the same user's same (origin, destination)
        # within k months of the previous one continues that run
        order = np.lexsort((months, destinations, origins, rows))
        u, o, d, m = rows[order], origins[order], destinations[order], months[order]
        repeat = (u[1:] == u[:-1]) & (o[1:] == o[:-1]) & (d[1:] == d[:-1]) & (m[1:] - m[:-1] <= k)
        keep = np.ones(rows.size, dtype=bool)
        keep[order[1:][repeat]] = False
        rows, months = rows[keep], months[keep]
        origins, destinations = origins[keep], destinations[keep]
    return [MigrationEvent(users[u], m, o, d) for u, m, o, d in zip(
        rows.tolist(), months.tolist(), origins.tolist(), destinations.tolist())]


RESIDENCE_HEADER = ["user_id", "month_index", "country"]
_WRITE_BLOCK_USERS = 256
MIGRATION_HEADER = ["user_id", "month_index", "origin", "destination"]


def write_residence_matrix(users: Sequence[str], filled: np.ndarray, registry: CountryRegistry,
                           path) -> None:
    """Dump a filled residence matrix as ``user_id,month_index,country``
    rows, one per known cell, by user then month."""
    heads, tails = csv_cells(users, registry.codes)
    months = np.array([str(m) for m in range(filled.shape[1])], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(RESIDENCE_HEADER) + "\n")
        # a block of users at a time, so the rows' Python objects stay few
        for start in range(0, len(users), _WRITE_BLOCK_USERS):
            block = filled[start:start + _WRITE_BLOCK_USERS]
            rows, month = np.nonzero(block >= 0)
            fh.write(join_rows(heads[rows + start], months[month], tails[block[rows, month]]))


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
        month = None
    if month is None or str(month) != parts[1]:
        return InputError(f"{where}: month index {parts[1]!r} is not a plain decimal integer")
    if not 0 <= month < months:
        return InputError(f"{where}: month index {month} outside [0, {months})")
    for code in parts[2:]:
        if code not in registry:
            return InputError(f"{where}: unknown country {code!r}")
    return InputError(f"{where}: origin and destination are both {parts[2]!r}")


def read_residences(path, registry: CountryRegistry, months: int) -> tuple[list[str], np.ndarray]:
    """Load a residence dump as the sorted user ids and their ``(users,
    months)`` int16 residence matrix, -1 where unknown.

    A malformed row raises :class:`InputError` naming its ``path:line``.
    """
    index = registry.index
    users: dict[str, int] = {}
    # the matrix in first-seen user order, one row of `months` int16 cells
    # per user, written through `view`
    cells = bytearray()
    view = memoryview(cells).cast("h")
    unknown = b"\xff\xff" * months  # -1 in every cell
    with open_text(path) as fh:
        reader = _dump_reader(fh, path, RESIDENCE_HEADER)
        for parts in reader:
            try:
                user_id, m, code = parts
                month, country = int(m), index[code]
            except (ValueError, KeyError):
                month = -1
            if not 0 <= month < months or str(month) != m:
                raise _row_error(path, reader.line_num, parts, RESIDENCE_HEADER, months, registry)
            row = users.get(user_id)
            if row is None:
                row = users[user_id] = len(users)
                view.release()  # a bytearray grows only while no view holds it
                cells += unknown
                view = memoryview(cells).cast("h")
            cell = row * months + month
            if view[cell] >= 0:
                raise InputError(f"{path}:{reader.line_num}: repeated month {month} for user {user_id!r}")
            view[cell] = country
    view.release()
    names = sorted(users)
    order = [users[u] for u in names]
    return names, np.frombuffer(cells, dtype=np.int16).reshape(len(users), months)[order]


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
    with open_text(path) as fh:
        reader = _dump_reader(fh, path, MIGRATION_HEADER)
        for parts in reader:
            try:
                user_id, m, o, d = parts
                month, origin, destination = int(m), index[o], index[d]
            except (ValueError, KeyError):
                month = -1
            if not 0 <= month < months or str(month) != m or origin == destination:
                raise _row_error(path, reader.line_num, parts, MIGRATION_HEADER, months, registry)
            events.append(MigrationEvent(user_id, month, origin, destination))
    return events
