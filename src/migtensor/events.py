"""The event table and the line formats event streams travel in.

An event stream is held as one columnar :class:`EventTable`: integer user,
second and country columns, rows sorted by (user, time), the country a
:class:`~migtensor.ingestion.CountryRegistry` index. :func:`read_events`
parses line-delimited CSV or JSONL records (a user id, an RFC 3339 UTC
timestamp, and an ISO 3166-1 alpha-2 country code or a (lat, lon) pair)
into a table, giving each point the country of its nearest centroid as it
goes, and :func:`write_events` writes one back as CSV. Every row of a
table has a country. Malformed records are never dropped silently: every
rejection is tallied per reason.

Every intermediate dump is read here too: one row per line under a checked
header, and any defect is an :class:`InputError` naming ``path:line``
(:func:`line_error`), which a fuzz test of the stage commands holds to.

Every rule judges one line alone, so :func:`read_events` deals a regular
file out in byte ranges, one per process that :mod:`migtensor.workers`
allows, and parses them at once; the table and tallies are those of one
share, whatever the count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, islice, repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TextIO

import numpy as np

from . import workers

if TYPE_CHECKING:
    from .ingestion import CentroidTable, CountryRegistry

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


class ConfigError(ValueError):
    """Invalid configuration (bad registry, empty centroid table, ...)."""


class InputError(ValueError):
    """Unusable input source (unknown format tag, unreadable file, ...)."""


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` to ``end`` of the file at ``path`` (to its end where
    ``end`` is None), read through a file description of their own."""

    def __init__(self, path, start: int, end: Optional[int]):
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = sys.maxsize if end is None else end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


@contextmanager
def open_text(path, start: int = 0, end: Optional[int] = None):
    """``path`` opened for reading as UTF-8 text, with universal newlines;
    from byte ``start`` to byte ``end`` where either is given. A byte that
    is not UTF-8 raises :class:`InputError` naming the path."""
    if (start, end) == (0, None):
        fh = open(path, "r", encoding="utf-8")
    else:
        fh = io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)), encoding="utf-8")
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def line_error(path, line: int, message: str) -> InputError:
    """The error for a defect at line ``line`` of the dump at ``path``."""
    return InputError(f"{path}:{line}: {message}")


def read_header(fh: TextIO, path, tag: str, n: int, kind: str) -> tuple[int, ...]:
    """The ``n`` integers of a dump's ``# <tag> <n ints>`` first line; any
    other first line is a malformed ``kind`` header."""
    fields = fh.readline().split()
    # 19 digits or more are past int64, and may be past int()'s digit limit
    if fields[:2] != ["#", tag] or len(fields) != n + 2 or not all(
            x.isascii() and x.isdecimal() and len(x) < 19 for x in fields[2:]):
        raise line_error(path, 1, f"malformed {kind} header")
    return tuple(map(int, fields[2:]))


def dump_rows(fh: TextIO, path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line, fields)`` of each data row of a CSV dump under a ``header``
    row. A row must fit its line: one that runs past it or that ``csv``
    cannot read is an error naming the line where it starts."""
    first = fh.readline().rstrip("\n")
    if first != ",".join(header):
        raise line_error(path, 1, f"unexpected header {first!r}")
    reader = csv.reader(fh)
    line = 1
    try:
        for line, fields in enumerate(reader, start=2):
            if reader.line_num != line - 1:
                raise line_error(path, line, "quoted field runs past the end of the line")
            yield line, fields
    except csv.Error as exc:  # a field past csv's size limit, or a NUL before Python 3.11
        raise line_error(path, line + 1, f"unreadable row ({exc})") from None


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


def _epoch_seconds(ts: datetime) -> int:
    """Whole UTC seconds since 1970 (floored) of an aware datetime."""
    return (ts - _EPOCH) // _SECOND


def _in_order(user: np.ndarray, seconds: np.ndarray) -> bool:
    """Whether the rows are sorted by (user, second)."""
    # comparisons, not np.diff: its int64 temporaries cost ~0.9 MB on 74k rows
    return not ((user[1:] < user[:-1]) | ((user[1:] == user[:-1]) & (seconds[1:] < seconds[:-1]))).any()


@dataclass(frozen=True)
class EventTable:
    """Events as columns, one row per event.

    Row i is user ``users[user[i]]`` at ``seconds[i]`` (whole UTC seconds
    since 1970) in the country of registry index ``country[i]``. ``users``
    is sorted and names exactly the users that have rows, so user index
    order is user id order. Rows are sorted by (user, second); any other
    order is a ``ValueError``.
    """

    users: list[str]
    user: np.ndarray  # int32
    seconds: np.ndarray  # int64
    country: np.ndarray  # int16

    def __post_init__(self):
        if not _in_order(self.user, self.seconds):
            raise ValueError("event table rows must be sorted by (user, time)")

    def __len__(self) -> int:
        return len(self.seconds)


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 UTC timestamp, truncating to second precision."""
    raw = raw.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp must carry a UTC offset")
    return ts.astimezone(timezone.utc).replace(microsecond=0)


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


def _coordinates(column, rows: list[int]) -> np.ndarray:
    """:func:`_coordinate` of ``column``'s value at each of ``rows``.

    numpy reads each value as ``float()`` does, so one pass takes the block
    unless a value fails; then each value is read alone."""
    try:
        return np.fromiter(map(column.__getitem__, rows), float, len(rows))
    except (TypeError, ValueError, OverflowError):
        return np.array([_coordinate(column[i]) for i in rows], dtype=float)


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


# json.loads without its wrapper layers: the decoder's own scanner, and the
# JSON whitespace (json.decoder.WHITESPACE's set) that JSONDecoder.decode
# skips before the value and allows after it; a BOM is not JSON whitespace,
# so a BOM-led line fails here as in loads
_scan_json = json.JSONDecoder().scan_once
_JSON_SPACE = " \t\n\r"
# the types of JSON numbers (a boolean is neither)
_NUMBERS = (int, float)


def _jsonl_fields(lines: list[str], stats: RejectStats) -> tuple:
    """``(user, timestamp, country, lat, lon)`` columns of a block's JSONL
    objects. A ``user_id`` is a JSON string (stripped), or the text of a JSON
    integer (not a boolean); any other value is "", rejected as a missing
    field. A coordinate that is not a JSON number is NaN, rejected as bad
    coordinates."""
    rows = []
    for line in lines:
        if not line.strip():
            continue
        try:
            obj, end = _scan_json(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        # StopIteration: no JSON value; ValueError: a JSONDecodeError or an
        # integer past Python's digit limit; RecursionError: nesting past the
        # recursion limit
        except (StopIteration, ValueError, RecursionError):
            stats.add(BAD_JSON)
            continue
        # no JSON value ends in whitespace, so the strip stops at its end
        if type(obj) is not dict or len(line.rstrip(_JSON_SPACE)) != end:
            stats.add(BAD_JSON)
            continue
        get = obj.get
        user, country, lat, lon = get("user_id"), get("country"), get("lat"), get("lon")
        # exactly one location, and a code is a JSON string
        if country is None:
            if lat is None or lon is None:
                stats.add(BAD_LOCATION if lat is lon else BAD_COORDINATES)
                continue
            lat = lat if type(lat) in _NUMBERS else math.nan
            lon = lon if type(lon) in _NUMBERS else math.nan
        elif type(country) is not str or lat is not None or lon is not None:
            stats.add(BAD_LOCATION)
            continue
        user = user.strip() if type(user) is str else str(user) if type(user) is int else ""
        rows.append((user, get("timestamp"), country, lat, lon))
    return _columns(rows)


_FIELDS = {"csv": _csv_fields, "jsonl": _jsonl_fields}

# lines parsed per block: a block's Python row objects are freed before the
# next block is read, so peak memory does not grow with the stream; 2048
# lines hold a quarter of 8192's row objects at once, which lowered the peak
# RSS of a 74k-event ingest by ~1.6 MB at the same parse time
_PARSE_BLOCK = 2048


def _finish_block(columns, bounds, registry, centroids, users: dict, stats) -> tuple:
    """Columns of a block's accepted rows, in input order, every row coded.

    Each rule tallies and drops the rows still accepted that break it, in
    this order: an empty user, a user holding a line break (which no dump
    row can carry) or no timestamp (a missing field); a
    timestamp that is not a string or does not parse; a second outside
    ``bounds``, the study interval in epoch seconds ``[start, end)``; an
    empty country code (a missing field); a code not in the registry; a
    point that is not finite or lies off the globe. Each point left takes
    the country of its nearest row of ``centroids``; a point without a
    centroid table is a :class:`ConfigError`. Countries are ``registry``
    indices. ``users`` maps user ids to their indices and grows, in row
    order, with the accepted rows' new ones.
    """
    user, stamp, country, lat, lon = columns
    n = len(user)
    accepted = np.ones(n, dtype=bool)

    def reject(reason, bad):
        bad &= accepted
        stats.add(reason, int(np.count_nonzero(bad)))
        accepted[bad] = False

    seconds, canonical = _canonical_seconds(stamp)
    missing = ~np.fromiter((bool(u) and "\n" not in u and "\r" not in u for u in user), bool, n)
    unparsed = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(~canonical).tolist():
        if stamp[i] is None:
            missing[i] = True
        elif type(stamp[i]) is not str:  # a JSON number, boolean, array or object
            unparsed[i] = True
        else:
            try:
                seconds[i] = _epoch_seconds(parse_timestamp(stamp[i]))
            except (ValueError, OverflowError):  # OverflowError: an offset past year 1 or 9999
                unparsed[i] = True
    reject(MISSING_FIELD, missing)
    reject(BAD_TIMESTAMP, unparsed)
    if bounds is not None:
        reject(OUT_OF_INTERVAL, (seconds < bounds[0]) | (seconds >= bounds[1]))
    # -1 a point, -2 a spelling that is not a code's key
    code = np.fromiter(map({**registry.index, None: -1}.get, country, repeat(-2)), np.int32, n)
    empty, unknown = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for i in np.flatnonzero(accepted & (code == -2)).tolist():
        name = country[i].strip().upper()
        if not name:
            empty[i] = True
        elif name in registry:
            code[i] = registry.index[name]
        else:
            unknown[i] = True
    reject(MISSING_FIELD, empty)
    reject(UNKNOWN_COUNTRY, unknown)
    points = np.flatnonzero(accepted & (code == -1))
    point_lat, point_lon = (_coordinates(column, points.tolist()) for column in (lat, lon))
    # NaN and infinities fail the range test too
    on_globe = (point_lat >= -90.0) & (point_lat <= 90.0) & (point_lon >= -180.0) & (point_lon <= 180.0)
    off_globe = np.zeros(n, dtype=bool)
    off_globe[points[~on_globe]] = True
    reject(BAD_COORDINATES, off_globe)
    if on_globe.any():
        if centroids is None:
            raise ConfigError("geo_point events present but no centroid table configured")
        code[points[on_globe]] = centroids.country[centroids.nearest(point_lat[on_globe],
                                                                     point_lon[on_globe])]
    keep = np.flatnonzero(accepted)
    kept_users = list(map(user.__getitem__, keep.tolist()))
    for u in dict.fromkeys(kept_users):
        users.setdefault(u, len(users))
    ids = np.fromiter(map(users.__getitem__, kept_users), np.int32, keep.size)
    return ids, seconds[keep], code[keep].astype(np.int16)


def _ceil_seconds(ts: datetime) -> int:
    return -((_EPOCH - ts) // _SECOND)


# bytes of input below which a share does not pay for its fork: on a 2-CPU
# machine, in process, two shares of 128 KiB of CSV or of JSONL parsed no
# faster than one of 256 KiB (a fork cost ~6 ms), two of 256 KiB 8-20% faster
MIN_SHARE_BYTES = 1 << 18


def _ranges(path, n: int) -> list[tuple[int, Optional[int]]]:
    """``(start, end)`` byte ranges of the file at ``path``, in file order:
    up to ``n`` shares of about equal size, each of at least
    :data:`MIN_SHARE_BYTES`. A range ends just after a line feed, which ends
    a line under every newline convention and lies between UTF-8
    characters; the last runs to the end of the file (``end`` None). A FIFO
    or any other file that is not regular is one range, not opened here."""
    info = os.stat(path)
    n = min(n, info.st_size // MIN_SHARE_BYTES) if stat.S_ISREG(info.st_mode) else 1
    cuts = [0]
    if n > 1:
        with open(path, "rb") as fh:
            for i in range(1, n):
                fh.seek(max(cuts[-1], info.st_size * i // n))
                fh.readline()  # to just after the next line feed
                if fh.tell() >= info.st_size:
                    break
                cuts.append(fh.tell())
    return list(zip(cuts, [*cuts[1:], None]))


def _parse(lines: Iterable[str], header: bool, format: str, registry: CountryRegistry,
           bounds: Optional[tuple[int, int]], centroids: Optional[CentroidTable]) -> tuple:
    """One share's parse of ``lines``: its user ids in first-seen order, its
    accepted rows' ``int32`` user (an index into those ids), ``int64``
    second and ``int16`` country columns in input order, and its reject
    ``Counter``. Only a share that starts the stream (``header``) may skip a
    CSV header line. The lines are read in blocks, so memory holds columns."""
    fields = _FIELDS[format]
    stats = RejectStats()
    users: dict[str, int] = {}
    lines = iter(lines)
    if header and format == "csv":
        first = next(lines, None)
        if first is not None and first.strip() not in (CSV_HEADER_COUNTRY, CSV_HEADER_GEO):
            lines = chain([first], lines)
    # typed empty columns first, so that an empty stream concatenates too
    blocks = [_finish_block(_columns([]), None, registry, None, users, stats)]
    while block := list(islice(lines, _PARSE_BLOCK)):
        # the columns go straight in, bound to no name, so they are freed with the call
        blocks.append(_finish_block(fields(block, stats), bounds, registry, centroids, users, stats))
        del block  # before the next block is read
    return (list(users), *(np.concatenate(column) for column in zip(*blocks)), stats.counts)


def _parse_range(path, start: int, end: Optional[int], *args) -> tuple:
    """:func:`_parse` of the lines of bytes ``start`` to ``end`` of the file
    at ``path``, read as :func:`open_text` reads."""
    with open_text(path, start, end) as fh:
        return _parse(fh, start == 0, *args)


def _joined(shares: list[tuple]) -> tuple[EventTable, RejectStats]:
    """The table and the tallies of consecutive shares' parses."""
    stats = RejectStats()
    users: dict[str, int] = {}
    columns = []
    for names, user, seconds, country, counts in shares:
        ids = np.array([users.setdefault(name, len(users)) for name in names], dtype=np.int32)
        columns.append((ids[user], seconds, country))
        stats.counts.update(counts)
    del shares
    user, seconds, country = (np.concatenate(column) for column in zip(*columns))
    del columns  # before the sort below copies the columns again
    # renumber users from first-seen to sorted order
    names = list(users)
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int32)
    rank[order] = np.arange(len(names), dtype=np.int32)
    user = rank[user]
    # rows mostly come in order (events.csv and synth's streams are written
    # so), and then the stable sort would be the identity
    if not _in_order(user, seconds):
        rows = np.lexsort((seconds, user))  # stable: equal (user, second) rows keep input order
        user, seconds, country = user[rows], seconds[rows], country[rows]
    return EventTable([names[i] for i in order], user, seconds, country), stats


def read_events(
    source: str | os.PathLike | Iterable[str],
    format: str,
    registry: CountryRegistry,
    interval: Optional[tuple[datetime, datetime]] = None,
    centroids: Optional[CentroidTable] = None,
) -> tuple[EventTable, RejectStats]:
    """Parse a line-delimited event stream into an :class:`EventTable`.

    ``source`` is the path of a file, read as UTF-8 text with universal
    newlines (:func:`open_text`), or an iterable of lines. ``format`` is
    ``"csv"`` or ``"jsonl"``. Country codes not in ``registry`` are
    rejected, and the table's countries are its indices. When ``interval``
    is given, records outside ``[start, end)`` are rejected. A (lat, lon)
    point takes the country of its nearest centroid in ``centroids``, which
    must be built over ``registry``; a point in a stream read without one
    is a :class:`ConfigError`. Rows come sorted by (user, time), equal times
    in input order.

    Every rule judges one line alone, so a stream can be parsed in shares:
    a regular file is dealt out in byte ranges (:func:`_ranges`), one per
    process that :func:`workers.count` allows, each parsed by
    :func:`workers.run` (share 0 here, each other one in a forked child).
    The shares' ids, columns and tallies are joined in input order, so the
    table and the tallies are those of one share, for any share count. A
    share's exception is raised here, the first share's where several fail;
    an iterable of lines is one share, parsed here.
    """
    if format not in _FIELDS:
        raise InputError(f"unknown input format {format!r}")
    if centroids is not None and centroids.registry != registry:
        raise ConfigError("centroid table built over another registry")
    # events hold whole seconds, so ts >= start and ts < end hold exactly
    # when they hold against the bounds rounded up to a whole second
    bounds = None if interval is None else (_ceil_seconds(interval[0]), _ceil_seconds(interval[1]))
    args = (format, registry, bounds, centroids)
    # the shares go straight in, bound to no name, so _joined frees them
    if isinstance(source, (str, os.PathLike)):
        return _joined(workers.run(_parse_range, [(source, start, end, *args)
                                                  for start, end in _ranges(source, workers.count())]))
    return _joined([_parse(source, True, *args)])


def _format_seconds(seconds: np.ndarray) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SSZ`` strings of epoch seconds."""
    return np.datetime_as_string(seconds.astype("datetime64[s]"), timezone="UTC").tolist()


def csv_cells(firsts: list[str], lasts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Object arrays of the text ``csv.writer`` writes for each of ``firsts``
    as the first field of a three-field row, with the comma after it, and
    for each of ``lasts`` as the last field, with the comma before it and
    the line end. Each value is quoted once; :func:`join_rows` gathers the
    lines from them by index."""
    # the writer's "file" returns what it is given, so each row comes back
    # as its line. A writer holds a 128 KiB record buffer while it lives:
    # one kept at module level, first used while ingest's heap was at its
    # peak, kept that heap from shrinking and raised a 74k-event run's peak
    # RSS by ~4 MB, so each call makes its own
    row = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n").writerow
    return (np.array([row((v, "", ""))[:-2] for v in firsts], dtype=object),
            np.array([row(("", "", v))[1:] for v in lasts], dtype=object))


def join_rows(heads: np.ndarray, middles, tails: np.ndarray) -> str:
    """The lines of three-field rows, from the cells of :func:`csv_cells`
    and middle fields that need no quoting."""
    cells = np.empty((len(heads), 3), dtype=object)
    cells[:, 0], cells[:, 1], cells[:, 2] = heads, middles, tails
    return "".join(cells.ravel().tolist())


def write_events(table: EventTable, codes: list[str], fh: TextIO) -> None:
    """Write the table as CSV in the format :func:`read_events` reads: the
    ``user_id,timestamp,country`` header, then one row per event, its
    country index spelled as in ``codes``, the registry's codes."""
    heads, tails = csv_cells(table.users, codes)
    fh.write(CSV_HEADER_COUNTRY + "\n")
    for start in range(0, len(table), _PARSE_BLOCK):
        rows = slice(start, start + _PARSE_BLOCK)
        fh.write(join_rows(heads[table.user[rows]], _format_seconds(table.seconds[rows]),
                           tails[table.country[rows]]))


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows where a run of equal key tuples starts."""
    starts = np.zeros(len(keys[0]), dtype=bool)
    starts[:1] = True
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    return starts
