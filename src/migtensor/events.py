"""The event table and the line formats event streams travel in.

An event stream is held as one columnar :class:`EventTable`: integer user,
second and country columns. :func:`read_events` parses line-delimited CSV
or JSONL records (a user id, an RFC 3339 UTC timestamp, and an ISO 3166-1
alpha-2 country code or a (lat, lon) pair) into a table, and
:func:`write_events` writes one back as CSV. Malformed records are never
dropped silently: every rejection is tallied per reason.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Iterable, Optional, TextIO

import numpy as np

if TYPE_CHECKING:
    from .ingestion import CountryRegistry

CSV_HEADER_COUNTRY = "user_id,timestamp,country"
CSV_HEADER_GEO = "user_id,timestamp,lat,lon"

# reject reasons
BAD_FIELD_COUNT = "bad_field_count"
BAD_JSON = "bad_json"
MISSING_FIELD = "missing_field"
BAD_TIMESTAMP = "bad_timestamp"
OUT_OF_INTERVAL = "out_of_interval"
BAD_COORDINATES = "bad_coordinates"
UNKNOWN_COUNTRY = "unknown_country"
BAD_LOCATION = "bad_location"


class InputError(ValueError):
    """Unusable input source (unknown format tag, unreadable file, ...)."""


@dataclass
class RejectStats:
    """Per-reason tally of records rejected during parsing."""

    counts: Counter = field(default_factory=Counter)

    def add(self, reason: str, n: int = 1) -> None:
        if n:
            self.counts[reason] += n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return dict(sorted(self.counts.items()))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


# the country column is int16
_MAX_CODES = np.iinfo(np.int16).max + 1


def _check_code_count(codes) -> None:
    if len(codes) > _MAX_CODES:
        raise InputError(f"more than {_MAX_CODES} distinct country codes")


def _epoch_seconds(ts: datetime) -> int:
    """Whole UTC seconds since 1970 (floored) of an aware datetime."""
    return (ts - _EPOCH) // _SECOND


@dataclass(frozen=True)
class EventTable:
    """Events as columns, one row per event.

    Row i is user ``users[user[i]]`` at ``seconds[i]`` (whole UTC seconds
    since 1970) in country ``codes[country[i]]``, or, where ``country[i]``
    is -1, at the point (``lat[i]``, ``lon[i]``); ``lat`` and ``lon`` are
    NaN on coded rows. ``users`` is sorted and names exactly the users that
    have rows, so user index order is user id order.
    """

    users: list[str]
    codes: list[str]
    user: np.ndarray  # int32
    seconds: np.ndarray  # int64
    country: np.ndarray  # int16
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.seconds)


# column dtypes of a parsed block: user, seconds, country, lat, lon
_COLUMNS = (np.int32, np.int64, np.int16, np.float64, np.float64)


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 UTC timestamp, truncating to second precision."""
    raw = raw.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp must carry a UTC offset")
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def _finish_event(user_id, raw_ts, country, lat, lon, bounds, registry, stats):
    """The per-record rules, for rows the columnar check does not take.

    Returns ``(seconds, country code or None, lat, lon)``, or None after
    tallying the first rule the record breaks. ``bounds`` is the study
    interval in epoch seconds, ``[start, end)``.
    """
    if not user_id or raw_ts is None:
        stats.add(MISSING_FIELD)
        return None
    if type(raw_ts) is not str:  # a JSON number, boolean, array or object
        stats.add(BAD_TIMESTAMP)
        return None
    try:
        seconds = _epoch_seconds(parse_timestamp(raw_ts))
    except (ValueError, OverflowError):  # OverflowError: an offset past year 1 or 9999
        stats.add(BAD_TIMESTAMP)
        return None
    if bounds is not None:
        start, end = bounds
        if not (start <= seconds < end):
            stats.add(OUT_OF_INTERVAL)
            return None
    if country is not None:
        country = country.strip().upper()
        if not country:
            stats.add(MISSING_FIELD)
            return None
        if registry is not None and country not in registry:
            stats.add(UNKNOWN_COUNTRY)
            return None
        return seconds, country, math.nan, math.nan
    try:
        lat, lon = float(lat), float(lon)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a huge JSON integer
        stats.add(BAD_COORDINATES)
        return None
    if not (math.isfinite(lat) and math.isfinite(lon)):
        stats.add(BAD_COORDINATES)
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        stats.add(BAD_COORDINATES)
        return None
    return seconds, None, lat, lon


# character positions of the digits and of the separators in the canonical
# timestamp form YYYY-MM-DDTHH:MM:SSZ
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_STAMP_SEPARATORS = [4, 7, 10, 13, 16, 19]
_STAMP_SEPARATOR_CODES = np.array([ord(c) for c in "--T::Z"], dtype=np.uint32)


def _canonical_seconds(stamps) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each ``YYYY-MM-DDTHH:MM:SSZ`` string that names a
    real second, and the mask of those strings.

    :func:`parse_timestamp` reads every masked string to the same second;
    anything else (another offset, fractional seconds, a day past the end
    of its month, a non-string) is left for it to judge.
    """
    text = [s if type(s) is str else "" for s in stamps]
    n = len(text)
    # the length comes from Python: numpy strings drop trailing NULs
    ok = np.fromiter(map(len, text), np.intp, n) == 20
    chars = np.array(text, dtype="U20").view(np.uint32).reshape(n, 20)
    ok &= (chars[:, _STAMP_SEPARATORS] == _STAMP_SEPARATOR_CODES).all(axis=1)
    digits = chars[:, _STAMP_DIGITS] - np.uint32(48)  # a non-digit wraps above 9
    ok &= (digits <= 9).all(axis=1)
    digits = np.where(ok[:, None], digits, 0).astype(np.int64)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (hour < 24) & (minute < 60) & (second < 60)
    first = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day = first.astype("datetime64[D]").astype(np.int64)
    ok &= (day >= 1) & (day <= (first + 1).astype("datetime64[D]").astype(np.int64) - first_day)
    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    return np.where(ok, seconds, 0), ok


def _coordinate(value) -> float:
    """``float(value)``, or NaN where that fails (rejected as bad coordinates)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _csv_fields(lines: list[str], stats: RejectStats) -> tuple:
    """``(user, timestamp, country, lat, lon)`` columns of a block's CSV data lines."""
    text = "".join(lines)
    # a block of plain three-field lines, each ended by one line break (the
    # stream's last may lack it), splits as one string, as csv splits it;
    # a NUL (which csv reads only from Python 3.11 on) or a line past csv's
    # field size limit is left to csv, and tallied where csv cannot read it
    if ('"' not in text and "\r" not in text and "\0" not in text
            and text.count("\n") == len(lines) - (not text.endswith("\n"))
            and all(map(str.endswith, lines[:-1], repeat("\n")))
            and all(map((2).__eq__, map(str.count, lines, repeat(","))))
            and max(map(len, lines)) <= csv.field_size_limit()):
        fields = text.replace("\n", ",").split(",")
        n = len(lines)
        return (list(map(str.strip, fields[0:3 * n:3])), fields[1:3 * n:3], fields[2:3 * n:3],
                (None,) * n, (None,) * n)
    rows = []
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        try:
            parts = next(csv.reader([line]))
        except csv.Error:  # a field past csv's size limit, or a NUL before Python 3.11
            stats.add(BAD_FIELD_COUNT)
            continue
        if len(parts) == 3:
            rows.append((parts[0].strip(), parts[1], parts[2], None, None))
        elif len(parts) == 4:
            rows.append((parts[0].strip(), parts[1], None, parts[2], parts[3]))
        else:
            stats.add(BAD_FIELD_COUNT)
    return _columns(rows)


def _columns(rows: list[tuple]) -> tuple:
    return tuple(zip(*rows)) or ((),) * 5


def _json_number(value):
    """A JSON number as is; a string, boolean or other JSON value as None,
    which is rejected as bad coordinates."""
    return value if type(value) in (int, float) else None


def _jsonl_fields(lines: list[str], stats: RejectStats) -> tuple:
    """``(user, timestamp, country, lat, lon)`` columns of a block's JSONL objects."""
    rows = []
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            stats.add(BAD_JSON)
            continue
        if not isinstance(obj, dict):
            stats.add(BAD_JSON)
            continue
        country, lat, lon = obj.get("country"), obj.get("lat"), obj.get("lon")
        has_code = country is not None
        has_point = lat is not None or lon is not None
        # exactly one location, and a code is a JSON string
        if has_code == has_point or (has_code and type(country) is not str):
            stats.add(BAD_LOCATION)
            continue
        if has_point and (lat is None or lon is None):
            stats.add(BAD_COORDINATES)
            continue
        rows.append((str(obj.get("user_id") or "").strip(), obj.get("timestamp"),
                     country, _json_number(lat), _json_number(lon)))
    return _columns(rows)


_FIELDS = {"csv": _csv_fields, "jsonl": _jsonl_fields}

# lines parsed per block: a block's Python row objects are freed before the
# next block is read, so peak memory does not grow with the stream
_PARSE_BLOCK = 8192


def _finish_block(columns, bounds, registry, codes: dict, users: dict, stats) -> tuple:
    """Columns of a block's accepted rows, in input order.

    A row with a canonical timestamp, a user and a known code (or a point)
    is judged by array checks; every other row by :func:`_finish_event`.
    Both apply the same rules in the same order, so tallies match.
    ``codes`` and ``users`` map codes and user ids to their indices and grow
    with new ones (codes only without a registry).
    """
    user, stamp, country, lat, lon = columns
    n = len(user)
    if not n:
        return tuple(np.empty(0, dtype) for dtype in _COLUMNS)
    seconds, columnar = _canonical_seconds(stamp)
    columnar &= np.fromiter(map(bool, user), bool, n)
    # -1 a point, -2 a code that only the per-record rules can judge
    code = np.fromiter(map({**codes, None: -1}.get, country, repeat(-2)), np.int32, n)
    columnar &= code != -2
    accepted = columnar.copy()
    if bounds is not None:
        inside = (bounds[0] <= seconds) & (seconds < bounds[1])
        stats.add(OUT_OF_INTERVAL, int(np.count_nonzero(accepted & ~inside)))
        accepted &= inside
    lat_col, lon_col = np.full(n, np.nan), np.full(n, np.nan)
    points = np.flatnonzero(accepted & (code == -1))
    lat_col[points] = [_coordinate(lat[i]) for i in points.tolist()]
    lon_col[points] = [_coordinate(lon[i]) for i in points.tolist()]
    # NaN and infinities fail the range test too
    bad = points[~((lat_col[points] >= -90.0) & (lat_col[points] <= 90.0)
                   & (lon_col[points] >= -180.0) & (lon_col[points] <= 180.0))]
    stats.add(BAD_COORDINATES, bad.size)
    accepted[bad] = False
    for i in np.flatnonzero(~columnar).tolist():
        event = _finish_event(user[i], stamp[i], country[i], lat[i], lon[i], bounds, registry, stats)
        if event is not None:
            accepted[i] = True
            seconds[i], name, lat_col[i], lon_col[i] = event
            code[i] = -1 if name is None else codes.setdefault(name, len(codes))
    _check_code_count(codes)
    keep = np.flatnonzero(accepted)
    kept_users = list(map(user.__getitem__, keep.tolist()))
    for u in dict.fromkeys(kept_users):
        users.setdefault(u, len(users))
    ids = np.fromiter(map(users.__getitem__, kept_users), np.int32, keep.size)
    return ids, seconds[keep], code[keep].astype(np.int16), lat_col[keep], lon_col[keep]


def _ceil_seconds(ts: datetime) -> int:
    return -((_EPOCH - ts) // _SECOND)


def read_events(
    stream: TextIO | Iterable[str],
    format: str,
    interval: Optional[tuple[datetime, datetime]] = None,
    registry: Optional[CountryRegistry] = None,
) -> tuple[EventTable, RejectStats]:
    """Parse a line-delimited event stream into an :class:`EventTable`.

    ``format`` is ``"csv"`` or ``"jsonl"``. When ``interval`` is given,
    records outside ``[start, end)`` are rejected; when ``registry`` is
    given, unknown country codes are rejected and the table's codes are the
    registry's. Rows come in input order. The stream is read in blocks of
    lines, so memory holds columns, not lines.
    """
    if format not in _FIELDS:
        raise InputError(f"unknown input format {format!r}")
    fields = _FIELDS[format]
    stats = RejectStats()
    # events hold whole seconds, so ts >= start and ts < end hold exactly
    # when they hold against the bounds rounded up to a whole second
    bounds = None if interval is None else (_ceil_seconds(interval[0]), _ceil_seconds(interval[1]))
    codes = {} if registry is None else dict(registry.index)
    users: dict[str, int] = {}
    lines = iter(stream)
    if format == "csv":
        first = next(lines, None)
        if first is not None and first.strip() not in (CSV_HEADER_COUNTRY, CSV_HEADER_GEO):
            lines = chain([first], lines)
    # typed empty columns first, so that an empty stream concatenates too
    blocks = [_finish_block(_columns([]), None, None, codes, users, stats)]
    while block := list(islice(lines, _PARSE_BLOCK)):
        blocks.append(_finish_block(fields(block, stats), bounds, registry, codes, users, stats))
    user, seconds, country, lat, lon = (np.concatenate(column) for column in zip(*blocks))
    # renumber users from first-seen to sorted order
    names = list(users)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    table = EventTable([names[i] for i in order], list(codes), rank[user], seconds, country, lat, lon)
    return table, stats


def _format_seconds(seconds: np.ndarray) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SSZ`` strings of epoch seconds."""
    return np.datetime_as_string(seconds.astype("datetime64[s]"), timezone="UTC").tolist()


def write_events(table: EventTable, fh: TextIO, header: bool = True) -> None:
    """Write the table as CSV rows in the line format :func:`read_events`
    reads: ``user_id,timestamp,country``, or ``lat,lon`` (their ``repr``)
    in place of the country on a point row."""
    writer = csv.writer(fh, lineterminator="\n")
    if header:
        writer.writerow(["user_id", "timestamp", "country"])
    codes = table.codes
    for start in range(0, len(table), _PARSE_BLOCK):
        rows = slice(start, start + _PARSE_BLOCK)
        writer.writerows(
            (user, stamp, codes[country]) if country >= 0 else (user, stamp, repr(lat), repr(lon))
            for user, stamp, country, lat, lon in zip(
                map(table.users.__getitem__, table.user[rows].tolist()),
                _format_seconds(table.seconds[rows]), table.country[rows].tolist(),
                table.lat[rows].tolist(), table.lon[rows].tolist()))


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows where a run of equal key tuples starts."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts
