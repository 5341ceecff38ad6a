"""Country resolution, the country registry and user-level noise filtering.

The event table and the stream formats it is read from and written to
live in :mod:`migtensor.events`; :func:`resolve_table` and
:func:`filter_table` work on that table.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

import numpy as np

from .events import EventTable, run_starts


class ConfigError(ValueError):
    """Invalid configuration (bad registry, empty centroid table, ...)."""


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
class DroppedUserStats:
    """Per-rule tally of users dropped by :func:`filter_table`.

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


def resolve_table(table: EventTable, centroids: Optional[CentroidTable]) -> EventTable:
    """Give every point row the code of its nearest centroid.

    Coded rows are unchanged. A point row without a centroid table is a
    configuration error.
    """
    points = np.flatnonzero(table.country < 0)
    if not points.size:
        return table
    if centroids is None:
        raise ConfigError("geo_point events present but no centroid table configured")
    nearest = _nearest_centroids(table.lat[points], table.lon[points], centroids)
    index = {code: i for i, code in enumerate(table.codes)}
    row_code = np.array([index.setdefault(code, len(index)) for code in centroids.codes], dtype=np.int16)
    country = table.country.copy()
    country[points] = row_code[nearest]
    return replace(table, codes=list(index), country=country)


# filter rule names
RULE_MAX_EVENTS_PER_DAY = "max_events_per_day"
RULE_MAX_COUNTRIES_PER_DAY = "max_countries_per_day"
RULE_MIN_EVENTS_TOTAL = "min_events_total"
RULE_MIN_ACTIVE_MONTHS = "min_active_months"


def filter_table(table: EventTable, policy: FilterPolicy) -> tuple[EventTable, DroppedUserStats]:
    """Drop whole users that trip any policy rule.

    Rows must be country-resolved. The kept rows come sorted by (user,
    time), rows of equal time in table order; all of a user's rows are kept
    or none are. Days and months are UTC calendar days and months.
    """
    if (table.country < 0).any():
        raise ValueError("filter_table requires country-resolved events")
    order = np.lexsort((table.seconds, table.user))
    user, seconds, country = table.user[order], table.seconds[order], table.country[order]
    n_users = len(table.users)
    # (user, day) runs: sorted by time, each user's days come in order
    day_starts = run_starts(user, seconds // 86400)
    day_of_row = np.cumsum(day_starts) - 1
    day_user = user[day_starts]
    per_day = np.bincount(day_of_row, minlength=day_user.size)
    by_country = np.lexsort((country, day_of_row))
    distinct = run_starts(day_of_row[by_country], country[by_country])
    countries_per_day = np.bincount(day_of_row[by_country][distinct], minlength=day_user.size)
    months = seconds.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64)
    active_months = np.bincount(user[run_starts(user, months)], minlength=n_users)
    total = np.bincount(user, minlength=n_users)
    failed = {
        RULE_MAX_EVENTS_PER_DAY: np.bincount(
            day_user[per_day > policy.max_events_per_day], minlength=n_users) > 0,
        RULE_MAX_COUNTRIES_PER_DAY: np.bincount(
            day_user[countries_per_day > policy.max_countries_per_day], minlength=n_users) > 0,
        RULE_MIN_EVENTS_TOTAL: total < policy.min_events_total,
        RULE_MIN_ACTIVE_MONTHS: active_months < policy.min_active_months,
    }
    dropped = np.zeros(n_users, dtype=bool)
    stats = DroppedUserStats(users_seen=n_users)
    for rule, users_failing in failed.items():
        dropped |= users_failing
        if users_failing.any():
            stats.by_rule[rule] = int(np.count_nonzero(users_failing))
    stats.users_dropped = int(np.count_nonzero(dropped))
    stats.events_dropped = int(total[dropped].sum())

    keep = ~dropped[user]
    new_index = (np.cumsum(~dropped) - 1).astype(np.int32)
    kept = EventTable(
        [u for u, gone in zip(table.users, dropped.tolist()) if not gone], table.codes,
        new_index[user[keep]], seconds[keep], country[keep],
        table.lat[order][keep], table.lon[order][keep])
    return kept, stats
