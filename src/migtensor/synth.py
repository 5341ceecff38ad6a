"""Synthetic event-stream generator with planted migration components.

Plants movers that establish residence in an origin country for several
months and then relocate to a destination at a month drawn from the
component's active set, on top of uniform background moves and stationary
filler users. The planted ground truth is written alongside the stream so
recovery can be scored. Every draw is numpy's ``default_rng(seed)``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .events import EventTable, write_events
from .ingestion import ConfigError, CountryRegistry, load_json_object, require_int, require_real, write_json
from .residence import MonthCalendar

# the largest rate a spec may give. A rate is rows or users drawn per
# month, so a stream drawn at a larger one could not be held in memory,
# and numpy's Poisson sampler fails only far above it (~9.2e18)
_MAX_RATE = 1e9


def _require_rate(name: str, value) -> None:
    require_real(name, value)
    # chained, so that NaN fails both bounds as it fails every comparison
    if not 0 <= value <= _MAX_RATE:
        raise ConfigError(f"{name} must be in [0, {_MAX_RATE:g}], got {value!r}")


@dataclass(frozen=True)
class PlantedComponent:
    origin: str
    destination: str
    active_months: tuple[int, ...]
    intensity: float  # expected movers per active month

    def __post_init__(self):
        for month in self.active_months:
            require_int("active month", month)
        if self.origin == self.destination:
            raise ConfigError("planted component needs distinct origin and destination")
        _require_rate("planted intensity", self.intensity)


@dataclass(frozen=True)
class SynthSpec:
    users: int
    components: tuple[PlantedComponent, ...]
    noise_rate: float  # expected background movers per month
    seed: int
    epoch_year: int
    epoch_month: int
    months: int
    tweets_per_month: float = 3.0
    dwell_months: int = 6  # months of residence emitted on each side of a move

    def __post_init__(self):
        for name in ("users", "seed", "epoch_year", "epoch_month", "months", "dwell_months"):
            require_int(name, getattr(self, name))
        if self.users < 0:
            raise ConfigError("user count must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        _require_rate("noise rate", self.noise_rate)
        _require_rate("tweets_per_month", self.tweets_per_month)
        if self.dwell_months < 1:
            raise ConfigError("dwell_months must be >= 1")
        self.calendar  # validates epoch and length
        for comp in self.components:
            bad = [m for m in comp.active_months if not 0 <= m < self.months]
            if bad:
                raise ConfigError(f"active months {bad} outside [0, {self.months})")

    @property
    def calendar(self) -> MonthCalendar:
        return MonthCalendar(self.epoch_year, self.epoch_month, self.months)


def load_synth_spec(path) -> SynthSpec:
    raw = load_json_object(path, "synth spec")
    try:
        components = tuple(
            PlantedComponent(c["origin"], c["destination"],
                             tuple(c["active_months"]),
                             c["intensity"])
            for c in raw.get("components", []))
        return SynthSpec(
            users=raw["users"],
            components=components,
            noise_rate=raw.get("noise_rate", 0.0),
            seed=raw["seed"],
            epoch_year=raw["epoch"]["year"],
            epoch_month=raw["epoch"]["month"],
            months=raw["months"],
            tweets_per_month=raw.get("tweets_per_month", 3.0),
            dwell_months=raw.get("dwell_months", 6),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad synth spec: {exc}") from exc


_EPOCH_DAY = date(1970, 1, 1).toordinal()


class _Draws:
    """numpy's ``default_rng(seed)``: ``poisson`` is the Generator's, and
    ``integers`` (a span below 2**32) replays its int64 path on the raw
    words: a word's low 32 bits, then its high 32 kept for the next draw
    (``poisson`` reads whole words), mapped by Lemire's multiply-and-reject;
    a span of 1 draws nothing."""

    def __init__(self, seed: int, calendar: MonthCalendar):
        rng = np.random.default_rng(seed)
        self.poisson = rng.poisson
        self._raw = rng.bit_generator.random_raw
        self._half = -1  # the kept high half, or -1
        # the first epoch second of each month and of the next
        self._starts = [(date(*calendar.year_month(m), 1).toordinal() - _EPOCH_DAY) * 86400
                        for m in range(calendar.months + 1)]
        self._days = [(b - a) // 86400 for a, b in zip(self._starts, self._starts[1:])]

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if span == 1:
            return low
        threshold = (0x100000000 - span) % span
        while True:
            half = self._half
            if half < 0:
                word = self._raw()
                self._half, m = word >> 32, (word & 0xFFFFFFFF) * span
            else:
                self._half, m = -1, half * span
            if m & 0xFFFFFFFF >= threshold:
                return low + (m >> 32)

    def instant(self, month: int) -> int:
        """A uniformly drawn epoch second of a calendar month."""
        # the day as integers(1, days + 1) draws it, less 1
        return self._starts[month] + self.integers(0, self._days[month]) * 86400 + self.integers(0, 86400)


def generate_synthetic(spec: SynthSpec, registry: CountryRegistry) -> tuple[EventTable, dict]:
    """Deterministically expand a spec into (event table, truth dict).

    The table's rows are sorted by user and time, its countries registry
    indices. The truth lists every planted move as (user, month, origin,
    destination), and the background noise moves apart from them.
    """
    for comp in spec.components:
        for code in (comp.origin, comp.destination):
            if code not in registry:
                raise ConfigError(f"planted country {code!r} not in registry")
    draw = _Draws(spec.seed, spec.calendar)
    user_ids = (f"u{i:06d}" for i in range(1, spec.users + 1))
    rows = []  # (user id, epoch second, country)
    planted, noise_moves = [], []

    def next_user():
        uid = next(user_ids, None)
        if uid is None:
            raise ConfigError(f"synthetic user pool of {spec.users} exhausted; raise `users`")
        return uid

    def tweets(uid, code, month, anchored):
        n = draw.poisson(spec.tweets_per_month)
        for _ in range(max(1, n) if anchored else n):
            rows.append((uid, draw.instant(month), code))

    def move(uid, month, origin, destination):
        # the first origin month and the move month get a tweet or more
        first = max(0, month - spec.dwell_months)
        for m in range(first, min(spec.months, month + spec.dwell_months)):
            tweets(uid, origin if m < month else destination, m, m in (first, month))

    for comp in spec.components:
        origin, destination = registry.index[comp.origin], registry.index[comp.destination]
        for month in sorted(set(comp.active_months)):
            for _ in range(draw.poisson(comp.intensity)):
                uid = next_user()
                move(uid, month, origin, destination)
                planted.append({"user_id": uid, "month": month,
                                "origin": comp.origin, "destination": comp.destination})

    if spec.noise_rate > 0:
        N = len(registry)
        if N < 2:
            raise ConfigError("background noise needs at least two registered countries")
        for month in range(1, spec.months):
            for _ in range(draw.poisson(spec.noise_rate)):
                uid = next_user()
                o = draw.integers(0, N)
                d = draw.integers(0, N - 1)
                if d >= o:
                    d += 1
                move(uid, month, o, d)
                noise_moves.append({"user_id": uid, "month": month,
                                    "origin": registry.codes[o], "destination": registry.codes[d]})

    # stationary filler users keep the pool size honest and exercise filtering
    for uid in user_ids:
        code = draw.integers(0, len(registry))
        start = draw.integers(0, spec.months)
        span = draw.integers(1, 7)
        for m in range(start, min(spec.months, start + span)):
            tweets(uid, code, m, m == start)

    users = sorted({uid for uid, _, _ in rows})
    rank = {u: i for i, u in enumerate(users)}
    user = np.array([rank[uid] for uid, _, _ in rows], np.int32)
    seconds = np.array([second for _, second, _ in rows], np.int64)
    country = np.array([code for _, _, code in rows], np.int16)
    order = np.lexsort((seconds, user))  # stable: equal (user, second) rows keep draw order
    table = EventTable(users, user[order], seconds[order], country[order])
    truth = {
        "planted": planted,
        "noise_moves": noise_moves,
        "components": [
            {"origin": c.origin, "destination": c.destination,
             "active_months": sorted(set(c.active_months)), "intensity": float(c.intensity)}
            for c in spec.components
        ],
    }
    return table, truth


def write_synthetic(spec: SynthSpec, registry: CountryRegistry,
                    events_path, truth_path=None) -> dict:
    """Generate and write the event stream CSV (and optionally the truth JSON)."""
    table, truth = generate_synthetic(spec, registry)
    for path in (events_path, truth_path):
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(events_path, "w", encoding="utf-8", newline="") as fh:
        write_events(table, registry.codes, fh)
    if truth_path is not None:
        write_json(truth_path, truth)
    return {"events": len(table), "planted_moves": len(truth["planted"]),
            "noise_moves": len(truth["noise_moves"])}
