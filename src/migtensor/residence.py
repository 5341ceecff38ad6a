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
    # one key digit per country index, as in filter_table's pair key
    U, M, N = len(table.users), calendar.months, _MAX_CODES
    epoch = (calendar.epoch_year - 1970) * 12 + calendar.epoch_month - 1
    month = table.seconds.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64) - epoch
    if ((month < 0) | (month >= M)).any():
        raise ValueError("event outside the study interval")
    filled = np.full((U, M), -1, dtype=np.int16)
    if not len(table):
        return filled
    # rows grouped by (user, month, country), the stable sort keeping each
    # group's rows in time order
    key = (table.user.astype(np.int64) * M + month) * N + table.country
    by_key = np.argsort(key, kind="stable")
    starts = np.flatnonzero(run_starts(key[by_key]))
    ends = np.append(starts[1:], key.size) - 1
    group_key = key[by_key][starts]
    count = ends - starts + 1
    latest = table.seconds[by_key[ends]]
    first = by_key[starts]  # row of the country's first event that month
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


def detect_all(filled: np.ndarray, k: int, mode: str = "strict") -> np.ndarray:
    """Detect residence changes between the k-month windows around each month.

    ``filled`` is a ``(users, M)`` residence matrix, -1 where unknown,
    as :func:`residence_matrix` and :func:`read_residences` return it. For
    each month m with full windows on both sides, compares the window
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


def _row_defect(parts: list[str], header: list[str], month_of: dict, registry: CountryRegistry) -> str:
    """The first defect of a dump row that did not load; ``month_of`` as in the readers."""
    if len(parts) != len(header):
        return f"expected {len(header)} fields, got {len(parts)}"
    if not re.fullmatch("0|-?[1-9][0-9]*", parts[1]):
        return f"month index {parts[1]!r} is not a plain decimal integer"
    if parts[1] not in month_of:
        return f"month index {parts[1]} outside [0, {len(month_of)})"
    for code in parts[2:]:
        if code not in registry:
            return f"unknown country {code!r}"
    return f"origin and destination are both {parts[2]!r}"


def read_residences(path, registry: CountryRegistry, months: int) -> tuple[list[str], np.ndarray]:
    """Load a residence dump as the sorted user ids and their ``(users,
    months)`` int16 residence matrix, -1 where unknown.

    A malformed row raises :class:`InputError` naming its ``path:line``.
    """
    index = registry.index
    # the writer's spelling of each month index
    month_of = {str(m): m for m in range(months)}
    users: dict[str, int] = {}
    # the matrix in first-seen user order, one row of `months` int16 cells
    # per user, written through `view`
    cells = bytearray()
    view = memoryview(cells).cast("h")
    unknown = b"\xff\xff" * months  # -1 in every cell
    with open_text(path) as fh:
        for line, parts in dump_rows(fh, path, RESIDENCE_HEADER):
            try:
                user_id, m, code = parts
                month, country = month_of[m], index[code]
            except (ValueError, KeyError):
                raise line_error(path, line, _row_defect(parts, RESIDENCE_HEADER, month_of, registry)) from None
            row = users.get(user_id)
            if row is None:
                row = users[user_id] = len(users)
                view.release()  # a bytearray grows only while no view holds it
                cells += unknown
                view = memoryview(cells).cast("h")
            cell = row * months + month
            if view[cell] >= 0:
                raise line_error(path, line, f"repeated month {month} for user {user_id!r}")
            view[cell] = country
    view.release()
    names = sorted(users)
    order = [users[u] for u in names]
    return names, np.frombuffer(cells, dtype=np.int16).reshape(len(users), months)[order]


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
                raise line_error(path, line, _row_defect(parts, MIGRATION_HEADER, month_of, registry)) from None
    return list(users), np.array(moves, dtype=np.int64).reshape(-1, 4)
