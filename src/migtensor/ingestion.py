"""Event stream parsing, country resolution and user-level noise filtering.

Input streams are line-delimited CSV or JSONL records carrying a user id,
an RFC 3339 UTC timestamp and a location given either as an ISO 3166-1
alpha-2 country code or as a (lat, lon) pair. Malformed records are never
dropped silently: every rejection is tallied per reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Optional, TextIO

import numpy as np

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


@dataclass(frozen=True)
class GeoEvent:
    """One timestamped, located observation of a user.

    Exactly one of ``country`` / (``lat``, ``lon``) is set. Timestamps are
    timezone-aware UTC at second precision.
    """

    user_id: str
    timestamp: datetime
    country: Optional[str] = None
    lat: Optional[float] = None
    lon: Optional[float] = None

    def __post_init__(self):
        has_code = self.country is not None
        has_point = self.lat is not None and self.lon is not None
        if has_code == has_point:
            raise ValueError("exactly one of country / (lat, lon) must be set")

    @property
    def has_point(self) -> bool:
        return self.country is None


class CountryRegistry:
    """Ordered set of country codes; line order defines tensor indices."""

    def __init__(self, codes: Iterable[str]):
        self.codes = [c.strip().upper() for c in codes]
        if any(not c for c in self.codes):
            raise ConfigError("registry contains an empty country code")
        self.index = {c: i for i, c in enumerate(self.codes)}
        if len(self.index) != len(self.codes):
            dupes = [c for c, n in Counter(self.codes).items() if n > 1]
            raise ConfigError(f"duplicate country codes in registry: {dupes}")

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, code: str) -> bool:
        return code in self.index

    def index_of(self, code: str) -> int:
        return self.index[code]

    def code(self, i: int) -> str:
        return self.codes[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, CountryRegistry) and self.codes == other.codes


def load_registry(path) -> CountryRegistry:
    with open(path, "r", encoding="utf-8") as fh:
        codes = [line.strip() for line in fh if line.strip()]
    if not codes:
        raise ConfigError(f"registry file {path} is empty")
    return CountryRegistry(codes)


def save_registry(registry: CountryRegistry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for code in registry.codes:
            fh.write(code + "\n")


class CentroidTable:
    """Country centroid coordinates used by the nearest-centroid resolver.

    Rows are held in registry index order so that distance ties resolve to
    the smaller registry index.
    """

    def __init__(self, rows: Iterable[tuple[str, float, float]], registry: CountryRegistry):
        rows = list(rows)
        seen = set()
        for code, lat, lon in rows:
            if code not in registry:
                raise ConfigError(f"centroid for unregistered country {code!r}")
            if code in seen:
                raise ConfigError(f"duplicate centroid row for {code!r}")
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise ConfigError(f"centroid for {code!r} out of range: ({lat}, {lon})")
            seen.add(code)
        rows.sort(key=lambda r: registry.index_of(r[0]))
        self.codes = [r[0] for r in rows]
        self._lat_rad = np.radians(np.array([r[1] for r in rows], dtype=float))
        self._lon_rad = np.radians(np.array([r[2] for r in rows], dtype=float))

    def __len__(self) -> int:
        return len(self.codes)


def load_centroids(path, registry: CountryRegistry) -> CentroidTable:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, parts in enumerate(reader, start=1):
            if not parts:
                continue
            if lineno == 1 and [p.strip().lower() for p in parts] == ["country", "lat", "lon"]:
                continue
            if len(parts) != 3:
                raise ConfigError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                rows.append((parts[0].strip().upper(), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad coordinates") from exc
    return CentroidTable(rows, registry)


@dataclass(frozen=True)
class FilterPolicy:
    """Threshold heuristics for dropping noisy accounts and bots.

    A user failing any rule is dropped entirely. Set ``min_*`` thresholds
    to 0 and ``max_*`` thresholds very high to disable individual rules.
    """

    max_events_per_day: int = 100
    max_countries_per_day: int = 3
    min_events_total: int = 5
    min_active_months: int = 2

    def __post_init__(self):
        if self.max_events_per_day < 1 or self.max_countries_per_day < 1:
            raise ConfigError("max_* thresholds must be positive")
        if self.min_events_total < 0 or self.min_active_months < 0:
            raise ConfigError("min_* thresholds must be non-negative")


@dataclass
class RejectStats:
    """Per-reason tally of records rejected during parsing."""

    counts: Counter = field(default_factory=Counter)

    def add(self, reason: str) -> None:
        self.counts[reason] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return dict(sorted(self.counts.items()))


@dataclass
class DroppedUserStats:
    """Per-rule tally of users dropped by :func:`filter_users`.

    A user failing several rules is counted under each of them;
    ``users_dropped`` counts each dropped user once.
    """

    by_rule: Counter = field(default_factory=Counter)
    users_seen: int = 0
    users_dropped: int = 0
    events_dropped: int = 0

    def as_dict(self) -> dict:
        return {
            "by_rule": dict(sorted(self.by_rule.items())),
            "users_seen": self.users_seen,
            "users_dropped": self.users_dropped,
            "events_dropped": self.events_dropped,
        }


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 UTC timestamp, truncating to second precision."""
    raw = raw.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp must carry a UTC offset")
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def format_timestamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _finish_event(user_id, raw_ts, country, lat, lon, interval, registry, stats):
    """Shared validation tail for both input formats; None on rejection."""
    if not user_id or raw_ts is None:
        stats.add(MISSING_FIELD)
        return None
    try:
        ts = parse_timestamp(raw_ts)
    except ValueError:
        stats.add(BAD_TIMESTAMP)
        return None
    if interval is not None:
        start, end = interval
        if not (start <= ts < end):
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
        return GeoEvent(user_id, ts, country=country)
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
    return GeoEvent(user_id, ts, lat=lat, lon=lon)


def parse_events(
    stream: TextIO | Iterable[str],
    format: str,
    interval: Optional[tuple[datetime, datetime]] = None,
    registry: Optional[CountryRegistry] = None,
) -> tuple[list[GeoEvent], RejectStats]:
    """Parse a line-delimited event stream into GeoEvents.

    ``format`` is ``"csv"`` or ``"jsonl"``. When ``interval`` is given,
    records outside ``[start, end)`` are rejected; when ``registry`` is
    given, unknown country codes are rejected. Accepted events come back in
    input order.
    """
    if format == "csv":
        return _parse_csv(stream, interval, registry)
    if format == "jsonl":
        return _parse_jsonl(stream, interval, registry)
    raise InputError(f"unknown input format {format!r}")


def _parse_csv(stream, interval, registry):
    events: list[GeoEvent] = []
    stats = RejectStats()
    for lineno, line in enumerate(stream):
        line = line.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        if lineno == 0 and line.strip() in (CSV_HEADER_COUNTRY, CSV_HEADER_GEO):
            continue
        parts = next(csv.reader([line]))
        if len(parts) == 3:
            ev = _finish_event(parts[0].strip(), parts[1], parts[2], None, None,
                               interval, registry, stats)
        elif len(parts) == 4:
            ev = _finish_event(parts[0].strip(), parts[1], None, parts[2], parts[3],
                               interval, registry, stats)
        else:
            stats.add(BAD_FIELD_COUNT)
            continue
        if ev is not None:
            events.append(ev)
    return events, stats


def _json_number(value):
    """A JSON number as is; a string, boolean or other JSON value as None,
    which ``_finish_event`` rejects as bad coordinates."""
    return value if type(value) in (int, float) else None


def _parse_jsonl(stream, interval, registry):
    events: list[GeoEvent] = []
    stats = RejectStats()
    for line in stream:
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
        lat, lon = obj.get("lat"), obj.get("lon")
        has_code = obj.get("country") is not None
        has_point = lat is not None or lon is not None
        if has_code == has_point:
            stats.add(BAD_LOCATION)
            continue
        if has_point and (lat is None or lon is None):
            stats.add(BAD_COORDINATES)
            continue
        ev = _finish_event(
            str(obj.get("user_id") or "").strip(), obj.get("timestamp"),
            obj.get("country"), _json_number(lat), _json_number(lon),
            interval, registry, stats,
        )
        if ev is not None:
            events.append(ev)
    return events, stats


def serialize_events(events: Iterable[GeoEvent], format: str, header: bool = False) -> str:
    """Render events back to the line format accepted by :func:`parse_events`."""
    buf = io.StringIO()
    if format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(["user_id", "timestamp", "country"])
        for ev in events:
            if ev.has_point:
                writer.writerow([ev.user_id, format_timestamp(ev.timestamp),
                                 repr(ev.lat), repr(ev.lon)])
            else:
                writer.writerow([ev.user_id, format_timestamp(ev.timestamp), ev.country])
    elif format == "jsonl":
        for ev in events:
            obj = {"user_id": ev.user_id, "timestamp": format_timestamp(ev.timestamp)}
            if ev.has_point:
                obj["lat"], obj["lon"] = ev.lat, ev.lon
            else:
                obj["country"] = ev.country
            buf.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        raise InputError(f"unknown output format {format!r}")
    return buf.getvalue()


# points per block of the batched resolver: a block's (points x centroids)
# float64 temporaries stay a few hundred kB, so peak memory does not grow
# with the stream
_RESOLVE_BLOCK = 256


def _nearest_centroids(lat_deg: np.ndarray, lon_deg: np.ndarray, table: CentroidTable) -> np.ndarray:
    """Row index of the nearest centroid for each point, by great-circle distance.

    Ties break to the centroid with the smaller registry index (the table
    is stored in that order and argmin keeps the first minimum). The sphere
    radius cancels in the argmin, so only central angles are compared.
    """
    if len(table) == 0:
        raise ConfigError("centroid table is empty")
    nearest = np.empty(len(lat_deg), dtype=np.intp)
    cos_table_lat = np.cos(table._lat_rad)
    for start in range(0, len(lat_deg), _RESOLVE_BLOCK):
        stop = start + _RESOLVE_BLOCK
        lat = np.radians(lat_deg[start:stop])[:, None]
        lon = np.radians(lon_deg[start:stop])[:, None]
        # haversine central angle of every point in the block against every row
        dlat = table._lat_rad - lat
        dlon = table._lon_rad - lon
        h = np.sin(dlat / 2.0) ** 2 + np.cos(lat) * cos_table_lat * np.sin(dlon / 2.0) ** 2
        angle = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        nearest[start:stop] = angle.argmin(axis=1)
    return nearest


def resolve_country(point: tuple[float, float], table: CentroidTable) -> str:
    """Code of the centroid nearest to ``point`` (see :func:`_nearest_centroids`)."""
    index = _nearest_centroids(np.array([point[0]], dtype=float),
                               np.array([point[1]], dtype=float), table)[0]
    return table.codes[index]


def _point_codes(points: list[GeoEvent], table: Optional[CentroidTable]) -> list[str]:
    """Nearest-centroid country codes of point events, in order."""
    if not points:
        return []
    if table is None:
        raise ConfigError("geo_point events present but no centroid table configured")
    lat = np.fromiter((ev.lat for ev in points), dtype=float, count=len(points))
    lon = np.fromiter((ev.lon for ev in points), dtype=float, count=len(points))
    return [table.codes[row] for row in _nearest_centroids(lat, lon, table).tolist()]


def resolve_events(events: Iterable[GeoEvent], table: Optional[CentroidTable]) -> list[GeoEvent]:
    """Replace geo_point locations with nearest-centroid country codes.

    Events that already carry a code pass through unchanged. Encountering a
    point event without a table is a configuration error.
    """
    events = list(events)
    # the list of point events lives only for the call, so it is freed
    # before the output list is built
    codes = iter(_point_codes([ev for ev in events if ev.country is None], table))
    return [GeoEvent(ev.user_id, ev.timestamp, next(codes)) if ev.country is None else ev
            for ev in events]


# filter rule names
RULE_MAX_EVENTS_PER_DAY = "max_events_per_day"
RULE_MAX_COUNTRIES_PER_DAY = "max_countries_per_day"
RULE_MIN_EVENTS_TOTAL = "min_events_total"
RULE_MIN_ACTIVE_MONTHS = "min_active_months"


def _failed_rules(events: list[GeoEvent], policy: FilterPolicy) -> list[str]:
    per_day = Counter(ev.timestamp.date() for ev in events)
    countries_per_day = defaultdict(set)
    months = set()
    for ev in events:
        countries_per_day[ev.timestamp.date()].add(ev.country)
        months.add((ev.timestamp.year, ev.timestamp.month))
    failed = []
    if any(n > policy.max_events_per_day for n in per_day.values()):
        failed.append(RULE_MAX_EVENTS_PER_DAY)
    if any(len(s) > policy.max_countries_per_day for s in countries_per_day.values()):
        failed.append(RULE_MAX_COUNTRIES_PER_DAY)
    if len(events) < policy.min_events_total:
        failed.append(RULE_MIN_EVENTS_TOTAL)
    if len(months) < policy.min_active_months:
        failed.append(RULE_MIN_ACTIVE_MONTHS)
    return failed


def filter_users(
    events: Iterable[GeoEvent], policy: FilterPolicy
) -> tuple[list[GeoEvent], DroppedUserStats]:
    """Drop whole users that trip any policy rule.

    Events must be country-resolved. Output is sorted by
    (user_id, timestamp); all of a user's events are kept or none are.
    """
    events = sorted(events, key=lambda ev: (ev.user_id, ev.timestamp))
    if any(ev.has_point for ev in events):
        raise ValueError("filter_users requires country-resolved events")
    stats = DroppedUserStats()
    kept: list[GeoEvent] = []
    by_user: dict[str, list[GeoEvent]] = defaultdict(list)
    for ev in events:
        by_user[ev.user_id].append(ev)
    for user_id in sorted(by_user):
        user_events = by_user[user_id]
        stats.users_seen += 1
        failed = _failed_rules(user_events, policy)
        if failed:
            for rule in failed:
                stats.by_rule[rule] += 1
            stats.users_dropped += 1
            stats.events_dropped += len(user_events)
        else:
            kept.extend(user_events)
    return kept, stats
