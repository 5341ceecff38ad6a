"""Monthly country of residence and window-based migration detection.

A user's residence in a month is the country with the most events that
month; silent months inherit the most recently known residence (forward
fill). Residences are held as one ``(users, months)`` int16 matrix of
country indices, -1 where unknown. A migration at month m is a change of
window residence between the k months before m and the k months starting
at m; migrations are held as one ``(n, 4)`` int64 array of (user row,
month, origin, destination) rows.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .events import (_MAX_CODES, EventTable, csv_cells, dump_rows, join_rows, line_error, open_text,
                     run_starts)
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


def residence_matrix(table: EventTable, calendar: MonthCalendar) -> np.ndarray:
    """Filled monthly residence of every user of an event table.

    Returns a ``(len(table.users), calendar.months)`` int16 matrix of
    registry indices, -1 where unknown. A month with events takes its most
    frequent country; ties break to the previous filled month's country
    when it is among the tied, else to the tied country with the latest
    event in that month, and among equally late ones to the country seen
    first that month. A silent month inherits the month
    before it; months before a user's first event stay -1.
    """
    U, M, N, n = len(table.users), calendar.months, _MAX_CODES, len(table)
    filled = np.full((U, M), -1, dtype=np.int16)
    if not n:
        return filled
    epoch = (calendar.epoch_year - 1970) * 12 + calendar.epoch_month - 1
    # the first second of each month of the calendar and of the month after it
    bounds = np.arange(epoch, epoch + M + 1).astype("datetime64[M]").astype("datetime64[s]").astype(np.int64)
    month = np.searchsorted(bounds, table.seconds, side="right")
    month -= 1
    if month.min() < 0 or month.max() >= M:
        raise ValueError("event outside the study interval")
    # rows are sorted by (user, time), so each (user, month) cell is one run of rows
    cell_rows = np.flatnonzero(run_starts(table.user, month))
    cells = table.user[cell_rows].astype(np.int64) * M + month[cell_rows]
    del month
    country = table.country
    filled.reshape(-1)[cells] = country[cell_rows]  # right for every cell of one country
    is_mixed = np.minimum.reduceat(country, cell_rows) != np.maximum.reduceat(country, cell_rows)
    mixed = np.flatnonzero(is_mixed)
    # the rows of the cells of several countries, grouped by (cell, country)
    # in a stable sort that keeps each group's rows in time order; a group's
    # key is its cell's place in `mixed` times N plus its country
    sizes = np.diff(cell_rows, append=n)
    rows = np.flatnonzero(np.repeat(is_mixed, sizes))
    key = np.repeat(np.arange(mixed.size), sizes[mixed]) * N + country[rows]
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    starts = np.flatnonzero(run_starts(key))
    count = np.diff(starts, append=key.size)
    ends = starts + count - 1
    group_key = key[starts]
    latest = table.seconds[rows[by_key[ends]]]
    first = by_key[starts]  # the country's first event in the cell
    group_cell = group_key // N
    # one winner per cell: most events, latest event, seen first
    ranked = np.lexsort((first, -latest, -count, group_cell))
    winner = ranked[run_starts(group_cell[ranked])]
    filled.reshape(-1)[cells[mixed]] = group_key[winner] % N
    tied = count == count[winner][group_cell]
    tie_cell = np.flatnonzero(np.bincount(group_cell[tied], minlength=mixed.size) > 1)
    tied_keys = group_key[tied]
    tie_user, tie_month = np.divmod(cells[mixed[tie_cell]], M)

    previous = np.full(U, -1, dtype=np.int16)
    for m in range(M):
        column = filled[:, m]
        now = tie_month == m
        users = tie_user[now]
        if users.size:
            # a tie keeps the previous month's country when it is among the tied
            wanted = tie_cell[now] * N + previous[users]
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


def detect_all(filled: np.ndarray, k: int, mode: str = "strict") -> np.ndarray:
    """Detect residence changes between the k-month windows around each month.

    ``filled`` is a ``(users, M)`` residence matrix, -1 where unknown, as
    :func:`residence_matrix` returns it. For each month m with full
    windows on both sides, compares the window
    residence over [m-k, m-1] against [m, m+k-1] and emits an event when
    both are defined and differ. ``strict`` windows are defined only when
    all k months agree; ``modal`` windows take the most frequent country
    (ties undefined) and collapse runs of the same (origin, destination)
    within k months to the earliest detection. Returns ``(n, 4)`` int64
    rows of (row of ``filled``, month, origin, destination) by row, then month.
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
    return np.column_stack((rows, months, origins, destinations)).astype(np.int64, copy=False)


RESIDENCE_HEADER = ["user_id", "month_index", "country"]
_WRITE_BLOCK_USERS = 256
MIGRATION_HEADER = ["user_id", "month_index", "origin", "destination"]


def write_residence_matrix(users: Sequence[str], filled: np.ndarray, registry: CountryRegistry,
                           path) -> None:
    """Dump a filled residence matrix as ``user_id,month_index,country``
    rows, one per known cell, by user then month. The dump is for
    inspection: residences depend only on the events and the calendar, so
    the pipeline recomputes them and reads no dump back."""
    heads, tails = csv_cells(users, registry.codes)
    months = np.array([str(m) for m in range(filled.shape[1])], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(RESIDENCE_HEADER) + "\n")
        # a block of users at a time, so the rows' Python objects stay few
        for start in range(0, len(users), _WRITE_BLOCK_USERS):
            block = filled[start:start + _WRITE_BLOCK_USERS]
            rows, month = np.nonzero(block >= 0)
            fh.write(join_rows(heads[rows + start], months[month], tails[block[rows, month]]))


def _row_defect(parts: list[str], month_of: dict, registry: CountryRegistry) -> str:
    """The first defect of a migration dump row that did not load;
    ``month_of`` as in :func:`read_migrations`."""
    if len(parts) != len(MIGRATION_HEADER):
        return f"expected {len(MIGRATION_HEADER)} fields, got {len(parts)}"
    if not re.fullmatch("0|-?[1-9][0-9]*", parts[1]):
        return f"month index {parts[1]!r} is not a plain decimal integer"
    if parts[1] not in month_of:
        return f"month index {parts[1]} outside [0, {len(month_of)})"
    for code in parts[2:]:
        if code not in registry:
            return f"unknown country {code!r}"
    return f"origin and destination are both {parts[2]!r}"


def write_migrations(users: Sequence[str], moves: np.ndarray, registry: CountryRegistry,
                     path) -> None:
    """Dump migrations, their user rows indexing ``users``, as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MIGRATION_HEADER)
        writer.writerows([users[u], m, registry.codes[o], registry.codes[d]] for u, m, o, d in moves.tolist())


def read_migrations(path, registry: CountryRegistry, months: int) -> tuple[list[str], np.ndarray]:
    """Load a migration dump as its user ids, in first-seen order, and the
    ``(n, 4)`` int64 migrations over them; a malformed row (origin equal to
    destination too) raises :class:`InputError` naming its ``path:line``."""
    index = registry.index
    month_of = {str(m): m for m in range(months)}
    users: dict[str, int] = {}
    moves = []
    with open_text(path) as fh:
        for line, parts in dump_rows(fh, path, MIGRATION_HEADER):
            try:
                user_id, m, o, d = parts
                if o == d:
                    raise ValueError
                moves.append((users.setdefault(user_id, len(users)), month_of[m], index[o], index[d]))
            except (ValueError, KeyError):  # ValueError: a wrong field count, or o == d
                raise line_error(path, line, _row_defect(parts, month_of, registry)) from None
    return list(users), np.array(moves, dtype=np.int64).reshape(-1, 4)
