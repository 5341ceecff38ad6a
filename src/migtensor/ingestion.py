"""The country registry, the centroid table and user-level noise filtering.

The event table and the stream formats it is read from and written to
live in :mod:`migtensor.events`; :func:`~migtensor.events.read_events`
resolves points through a :class:`CentroidTable` as it parses, and
:func:`filter_table` works on the table it returns.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable

import numpy as np

from .events import _MAX_CODES, ConfigError, EventTable, open_text, run_starts


def require_int(name: str, value) -> None:
    """The one rule for integer settings: ``value`` must be an ``int`` as
    such, so a float such as ``2.0``, a string or a boolean is a
    :class:`ConfigError`, never truncated."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> None:
    """The one rule for real-valued settings: ``value`` must be an ``int``
    or a float (numpy's too), so a boolean or a string is a
    :class:`ConfigError`, never read as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")


class CountryRegistry:
    """Ordered set of country codes; line order defines tensor indices."""

    def __init__(self, codes: Iterable[str]):
        self.codes = [c.strip().upper() for c in codes]
        if any(not c for c in self.codes):
            raise ConfigError("registry contains an empty country code")
        for c in self.codes:
            if not c.isprintable():
                raise ConfigError(f"registry holds a country code that is not printable: {c!r}")
        if len(self.codes) > _MAX_CODES:
            raise ConfigError(f"registry holds {len(self.codes)} country codes, more than {_MAX_CODES}")
        self.index = {c: i for i, c in enumerate(self.codes)}
        if len(self.index) != len(self.codes):
            dupes = [c for c, n in Counter(self.codes).items() if n > 1]
            raise ConfigError(f"duplicate country codes in registry: {dupes}")

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, code: str) -> bool:
        return code in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, CountryRegistry) and self.codes == other.codes


def load_registry(path) -> CountryRegistry:
    with open_text(path) as fh:
        codes = [line.strip() for line in fh if line.strip()]
    if not codes:
        raise ConfigError(f"registry file {path} is empty")
    return CountryRegistry(codes)


def load_json_object(path, what: str) -> dict:
    """The JSON object held by the file at ``path``, a ``what`` (such as a
    config); a :class:`ConfigError` naming it where it cannot be read as one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return raw


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_registry(registry: CountryRegistry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for code in registry.codes:
            fh.write(code + "\n")


# points per block of the nearest-centroid search: a block's (points x
# centroids) float64 temporaries, its dots and its close calls' haversine
# terms, stay a few hundred kB, so peak memory does not grow with the stream
_RESOLVE_BLOCK = 256
# the dot gap below which the haversine judges a point (see CentroidTable.nearest)
_SCREEN_MARGIN = 1e-6


class CentroidTable:
    """Country centroid coordinates used by the nearest-centroid resolver.

    Rows are held in registry index order so that distance ties resolve to
    the smaller registry index; ``country`` holds each row's index into
    ``registry``.
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
        rows.sort(key=lambda r: registry.index[r[0]])
        self.registry = registry
        self.country = np.array([registry.index[r[0]] for r in rows], dtype=np.int16)
        self._lat_rad = np.radians(np.array([r[1] for r in rows], dtype=float))
        self._lon_rad = np.radians(np.array([r[2] for r in rows], dtype=float))
        # (3, rows) unit vectors of the centroids
        self._unit = _unit_vectors(self._lat_rad, self._lon_rad).T.copy()

    def __len__(self) -> int:
        return len(self.country)

    def nearest(self, lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
        """Row index of the nearest centroid for each point, by great-circle distance.

        The haversine central angle is the judge: each point takes the
        row of the smallest angle, and ties break to the centroid with the
        smaller registry index (rows are stored in that order and argmin
        keeps the first minimum). It is asked only about close calls. A
        screen first takes the dot product of the point's unit vector with
        every row's, the cosine of the angle, and the largest dot names the
        nearest row. A point whose runner-up dot lies within
        ``_SCREEN_MARGIN`` (1e-6) of its best is judged by the haversine
        against every row instead.

        The screen cannot pick a row the haversine would not. The computed
        dots are off by about 1e-15, and ``|d cos t / dt| <= 1``, so a dot
        gap above 1e-6 means the true angles differ by more than ~1e-6. The
        haversine angle is off by at most ~6e-8, and that only near an
        antipode (``2 * sqrt(dh)`` for an error ``dh`` ~ 1e-15 in its
        argument), so it orders those two angles the same way, and the row
        the screen names is the haversine's unique minimum. Every tie and
        near-tie goes to the haversine. The dots' last bits may vary with
        the BLAS build; the indices cannot.
        """
        if not len(self):
            raise ConfigError("centroid table is empty")
        nearest = np.empty(len(lat_deg), dtype=np.intp)
        points = _unit_vectors(np.radians(lat_deg), np.radians(lon_deg))
        for start in range(0, len(points), _RESOLVE_BLOCK):
            dots = points[start:start + _RESOLVE_BLOCK] @ self._unit
            rows = np.arange(len(dots))
            best = dots.argmax(axis=1)
            top = dots[rows, best]
            dots[rows, best] = -np.inf
            # (argmax, not max: it is several times faster along short rows)
            runner_up = dots[rows, dots.argmax(axis=1)]
            # a NaN gap goes to the judge too
            close = start + np.flatnonzero(~(top - runner_up > _SCREEN_MARGIN))
            nearest[start:start + len(dots)] = best
            if close.size:
                nearest[close] = self._haversine_nearest(lat_deg[close], lon_deg[close])
        return nearest

    def _haversine_nearest(self, lat_deg: np.ndarray, lon_deg: np.ndarray) -> np.ndarray:
        """Row index of the smallest haversine central angle for each
        point, the first such row on a tie."""
        lat = np.radians(lat_deg)[:, None]
        lon = np.radians(lon_deg)[:, None]
        dlat = self._lat_rad - lat
        dlon = self._lon_rad - lon
        h = np.sin(dlat / 2.0) ** 2 + np.cos(lat) * np.cos(self._lat_rad) * np.sin(dlon / 2.0) ** 2
        angle = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        return angle.argmin(axis=1)


def _unit_vectors(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """``(n, 3)`` unit vectors of points at latitudes and longitudes in radians."""
    cos_lat = np.cos(lat)
    return np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=1)


def load_centroids(path, registry: CountryRegistry) -> CentroidTable:
    rows = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        start = 1  # the line the next record starts on; a quoted field may span lines
        try:
            for record, parts in enumerate(reader):
                lineno, start = start, reader.line_num + 1
                if not parts:
                    continue
                if record == 0 and [p.strip().lower() for p in parts] == ["country", "lat", "lon"]:
                    continue
                if len(parts) != 3:
                    raise ConfigError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
                try:
                    rows.append((parts[0].strip().upper(), float(parts[1]), float(parts[2])))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad coordinates") from exc
        except csv.Error as exc:  # a field past csv's size limit, or a NUL before Python 3.11
            raise ConfigError(f"{path}:{start}: unreadable row ({exc})") from None
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
        for setting in fields(self):
            require_int(setting.name, getattr(self, setting.name))
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


# filter rule names
RULE_MAX_EVENTS_PER_DAY = "max_events_per_day"
RULE_MAX_COUNTRIES_PER_DAY = "max_countries_per_day"
RULE_MIN_EVENTS_TOTAL = "min_events_total"
RULE_MIN_ACTIVE_MONTHS = "min_active_months"


def filter_table(table: EventTable, policy: FilterPolicy) -> tuple[EventTable, DroppedUserStats]:
    """Drop whole users that trip any policy rule.

    The kept rows are a subsequence of the table's, so they stay sorted
    by (user, time); all of a user's rows are kept or none are. Days and
    months are UTC calendar days and months.
    """
    # each temporary as long as the table is freed or made in place as soon
    # as it can be, so few row-length arrays are alive beside the table's
    user, seconds, country = table.user, table.seconds, table.country
    n_users = len(table.users)
    # (user, day) runs: sorted by time, each user's days come in order
    day_starts = run_starts(user, seconds // 86400)
    day_of_row = np.cumsum(day_starts)
    day_of_row -= 1
    day_user = user[day_starts]
    per_day = np.bincount(day_of_row, minlength=day_user.size)
    # distinct (day, country) pairs, as one sorted key
    pairs = day_of_row * _MAX_CODES
    del day_of_row
    pairs += country
    pairs.sort()
    countries_per_day = np.bincount(pairs[run_starts(pairs)] // _MAX_CODES, minlength=day_user.size)
    del pairs
    months = seconds.view("datetime64[s]").astype("datetime64[M]").view(np.int64)
    active_months = np.bincount(user[run_starts(user, months)], minlength=n_users)
    del months
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
        [u for u, gone in zip(table.users, dropped.tolist()) if not gone],
        new_index[user[keep]], seconds[keep], country[keep])
    return kept, stats
