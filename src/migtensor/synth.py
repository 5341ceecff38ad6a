"""Synthetic event-stream generator with planted migration components.

Plants movers that establish residence in an origin country for several
months and then relocate to a destination at a month drawn from the
component's active set, on top of uniform background moves and stationary
filler users. The planted ground truth is written alongside the stream so
recovery can be scored.
"""

from __future__ import annotations

from calendar import monthrange
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .events import EventTable, write_events
from .ingestion import ConfigError, CountryRegistry, load_json_object, require_int, write_json
from .residence import MonthCalendar


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
        if self.intensity < 0:
            raise ConfigError("planted intensity must be >= 0")


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
        if self.noise_rate < 0:
            raise ConfigError("noise rate must be >= 0")
        if self.dwell_months < 1:
            raise ConfigError("dwell_months must be >= 1")
        if self.tweets_per_month < 0:
            raise ConfigError("tweets_per_month must be >= 0")
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
                             float(c["intensity"]))
            for c in raw.get("components", []))
        return SynthSpec(
            users=raw["users"],
            components=components,
            noise_rate=float(raw.get("noise_rate", 0.0)),
            seed=raw["seed"],
            epoch_year=raw["epoch"]["year"],
            epoch_month=raw["epoch"]["month"],
            months=raw["months"],
            tweets_per_month=float(raw.get("tweets_per_month", 3.0)),
            dwell_months=raw.get("dwell_months", 6),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad synth spec: {exc}") from exc


_EPOCH_DAY = date(1970, 1, 1).toordinal()


def _instant(rng: np.random.Generator, calendar: MonthCalendar, month: int) -> int:
    """A uniformly drawn second of a calendar month, in UTC epoch seconds."""
    year, mo = calendar.year_month(month)
    day = int(rng.integers(1, monthrange(year, mo)[1] + 1))
    second = int(rng.integers(0, 86400))
    return (date(year, mo, day).toordinal() - _EPOCH_DAY) * 86400 + second


class _UserPool:
    def __init__(self, size: int):
        self.size = size
        self.used = 0

    def next(self) -> str:
        if self.used >= self.size:
            raise ConfigError(f"synthetic user pool of {self.size} exhausted; raise `users`")
        self.used += 1
        return f"u{self.used:06d}"


def _mover_events(rng, uid, move_month, origin, destination, spec) -> list[tuple[str, int, int]]:
    """Residence-establishing tweets around one move, as (user id, epoch
    second, registry index) rows.

    The first origin month and the move month always get at least one
    tweet so the move is anchored on both sides; other months draw plain
    Poisson counts and may stay silent (forward fill covers them).
    """
    calendar = spec.calendar
    first = max(0, move_month - spec.dwell_months)
    last = min(spec.months - 1, move_month + spec.dwell_months - 1)
    events = []
    for m in range(first, last + 1):
        code = origin if m < move_month else destination
        n = int(rng.poisson(spec.tweets_per_month))
        if m in (first, move_month):
            n = max(1, n)
        for _ in range(n):
            events.append((uid, _instant(rng, calendar, m), code))
    return events


def generate_synthetic(spec: SynthSpec, registry: CountryRegistry) -> tuple[EventTable, dict]:
    """Deterministically expand a spec into an event table plus ground truth.

    Returns (table, truth dict). The table's rows are sorted by user and
    time, and its codes are the registry's. The truth lists every planted
    move as (user, month, origin, destination); background noise moves are
    recorded separately and are not part of the planted ground truth.
    """
    for comp in spec.components:
        for code in (comp.origin, comp.destination):
            if code not in registry:
                raise ConfigError(f"planted country {code!r} not in registry")
    rng = np.random.default_rng(spec.seed)
    pool = _UserPool(spec.users)
    rows: list[tuple[str, int, int]] = []
    planted: list[dict] = []
    noise_moves: list[dict] = []

    for comp in spec.components:
        origin, destination = registry.index_of(comp.origin), registry.index_of(comp.destination)
        for month in sorted(set(comp.active_months)):
            for _ in range(int(rng.poisson(comp.intensity))):
                uid = pool.next()
                rows.extend(_mover_events(rng, uid, month, origin, destination, spec))
                planted.append({"user_id": uid, "month": month,
                                "origin": comp.origin, "destination": comp.destination})

    if spec.noise_rate > 0:
        N = len(registry)
        if N < 2:
            raise ConfigError("background noise needs at least two registered countries")
        for month in range(1, spec.months):
            for _ in range(int(rng.poisson(spec.noise_rate))):
                uid = pool.next()
                o = int(rng.integers(0, N))
                d = int(rng.integers(0, N - 1))
                if d >= o:
                    d += 1
                rows.extend(_mover_events(rng, uid, month, o, d, spec))
                noise_moves.append({"user_id": uid, "month": month,
                                    "origin": registry.code(o), "destination": registry.code(d)})

    # stationary filler users keep the pool size honest and exercise filtering
    while pool.used < pool.size:
        uid = pool.next()
        code = int(rng.integers(0, len(registry)))
        start = int(rng.integers(0, spec.months))
        span = int(rng.integers(1, 7))
        for m in range(start, min(spec.months, start + span)):
            n = int(rng.poisson(spec.tweets_per_month))
            if m == start:
                n = max(1, n)
            for _ in range(n):
                rows.append((uid, _instant(rng, spec.calendar, m), code))

    n = len(rows)
    users = sorted({uid for uid, _, _ in rows})
    rank = {u: i for i, u in enumerate(users)}
    user = np.fromiter((rank[uid] for uid, _, _ in rows), np.int32, n)
    seconds = np.fromiter((second for _, second, _ in rows), np.int64, n)
    country = np.fromiter((code for _, _, code in rows), np.int16, n)
    order = np.lexsort((seconds, user))  # stable: equal (user, second) rows keep draw order
    table = EventTable(users, registry.codes, user[order], seconds[order], country[order])
    truth = {
        "planted": planted,
        "noise_moves": noise_moves,
        "components": [
            {"origin": c.origin, "destination": c.destination,
             "active_months": sorted(set(c.active_months)), "intensity": c.intensity}
            for c in spec.components
        ],
    }
    return table, truth


def write_synthetic(spec: SynthSpec, registry: CountryRegistry,
                    events_path, truth_path=None) -> dict:
    """Generate and write the event stream CSV (and optionally the truth JSON)."""
    table, truth = generate_synthetic(spec, registry)
    Path(events_path).parent.mkdir(parents=True, exist_ok=True)
    with open(events_path, "w", encoding="utf-8", newline="") as fh:
        write_events(table, fh)
    if truth_path is not None:
        write_json(truth_path, truth)
    return {"events": len(table), "planted_moves": len(truth["planted"]),
            "noise_moves": len(truth["noise_moves"])}
