"""Shared fixtures and independent oracles used across the test modules."""

from __future__ import annotations

import csv
import io
import json
import math
import os
from calendar import monthrange
from collections import Counter, defaultdict
from datetime import date, datetime, timedelta, timezone
from typing import NamedTuple, Optional

# numpy single-threaded, as importing migtensor leaves it: set here since
# this module imports numpy first. OpenBLAS then starts no thread pool, the
# test process keeps one OS thread and ``fit`` shares its restarts among
# forked workers here as it does in a run (a process with threads never forks)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from migtensor import ingestion, solver
from migtensor.events import (
    BAD_COORDINATES,
    BAD_FIELD_COUNT,
    BAD_JSON,
    BAD_LOCATION,
    BAD_TIMESTAMP,
    CSV_HEADER_COUNTRY,
    CSV_HEADER_GEO,
    MISSING_FIELD,
    OUT_OF_INTERVAL,
    UNKNOWN_COUNTRY,
    EventTable,
    RejectStats,
    _format_seconds,
    parse_timestamp,
)
from migtensor.ingestion import ConfigError, CountryRegistry
from migtensor.residence import RESIDENCE_HEADER
from migtensor.solver import RATE_EPS, FactorModel, FitTrace
from migtensor.tensor import MigrationTensor

MODES = ("origin", "destination", "time")

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

# index order matters for tie-break tests: GB=0, FR=1, ES=2, US=3, KW=4, DE=5
CODES = ["GB", "FR", "ES", "US", "KW", "DE"]
# the registry tests read and build event tables over unless they name another
REGISTRY = CountryRegistry(CODES)


class Event(NamedTuple):
    """One event as the per-record oracles see it: a user at an aware UTC
    datetime, in a country or at a (lat, lon) point."""

    user_id: str
    timestamp: datetime
    country: Optional[str] = None
    lat: Optional[float] = None
    lon: Optional[float] = None

    @property
    def has_point(self) -> bool:
        return self.country is None


def table_of(events, registry=REGISTRY) -> EventTable:
    """The country-coded events as an :class:`EventTable` over ``registry``,
    rows sorted stably by (user, time), so rows of equal time keep the
    given order."""
    users = sorted({ev.user_id for ev in events})
    rank = {u: i for i, u in enumerate(users)}
    country = [registry.index[ev.country] for ev in events]
    user = np.array([rank[ev.user_id] for ev in events], dtype=np.int32)
    seconds = np.array([(ev.timestamp - EPOCH) // timedelta(seconds=1) for ev in events], dtype=np.int64)
    rows = np.lexsort((seconds, user))
    return EventTable(users, user[rows], seconds[rows], np.array(country, dtype=np.int16)[rows])


def by_user_time(events) -> list:
    """The events sorted stably by (user, time), as an event table holds them."""
    return sorted(events, key=lambda ev: (ev.user_id, ev.timestamp))


def events_of(table: EventTable, registry=REGISTRY) -> list:
    """One :class:`Event` per row of the table, in row order, its country
    an index into ``registry``."""
    return [Event(table.users[user], EPOCH + timedelta(seconds=seconds), country=registry.codes[country])
            for user, seconds, country in zip(
                table.user.tolist(), table.seconds.tolist(), table.country.tolist())]


def assert_same_read(got, expected):
    """Two ``read_events`` results hold the same table, dtypes and tallies."""
    (table, stats), (expected_table, expected_stats) = got, expected
    assert table.users == expected_table.users
    for column in ("user", "seconds", "country"):
        got_column, expected_column = getattr(table, column), getattr(expected_table, column)
        assert got_column.dtype == expected_column.dtype
        assert np.array_equal(got_column, expected_column)
    assert stats.counts == expected_stats.counts


def residence_rows(rows, months: int) -> np.ndarray:
    """A ``(len(rows), months)`` residence matrix from lists of country
    indices, None unknown."""
    return np.array([[-1 if c is None else c for c in row] for row in rows],
                    dtype=np.int16).reshape(len(rows), months)


@pytest.fixture
def registry():
    return CountryRegistry(CODES)


def open_fds() -> list:
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def assert_nothing_left(fds: list) -> None:
    """Only the descriptors ``fds`` are open, and no child is left unreaped."""
    assert open_fds() == fds  # both pipe ends of every child are closed
    with pytest.raises(ChildProcessError):  # and every child was reaped
        os.waitpid(-1, os.WNOHANG)


def forks(monkeypatch) -> list:
    """The children ``os.fork`` makes from here on, as a list of pids."""
    pids, real = [], os.fork

    def counted():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def gini_double_loop(values) -> float:
    """Literal all-ordered-pairs definition, the unit-test oracle."""
    v = [float(x) for x in values]
    n = len(v)
    total = sum(v)
    if total == 0:
        return 0.0
    acc = 0.0
    for a in v:
        for b in v:
            acc += abs(a - b)
    return acc / (2.0 * n * total)


def central_angle(lat1, lon1, lat2, lon2) -> float:
    """Great-circle angle via the spherical law of cosines (oracle formula)."""
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l1 - l2)
    return math.acos(min(1.0, max(-1.0, c)))


def make_tensor(dims, cells) -> MigrationTensor:
    """Tensor from a {(i, j, t): count} mapping."""
    coords = np.array(sorted(cells), dtype=np.int64).reshape(-1, 3)
    counts = np.array([cells[tuple(c)] for c in coords], dtype=np.int64)
    return MigrationTensor(dims, coords, counts)


def random_tensor(rng, dims, nnz) -> MigrationTensor:
    """Random off-diagonal tensor with at most ``nnz`` distinct cells."""
    N1, N2, M = dims
    cells = {}
    while len(cells) < nnz:
        i = int(rng.integers(0, N1))
        j = int(rng.integers(0, N2 - 1))
        if j >= i:
            j += 1
        t = int(rng.integers(0, M))
        cells[(i, j, t)] = int(rng.integers(1, 20))
        if len(cells) >= N1 * (N2 - 1) * M:
            break
    return make_tensor(dims, cells)


def dense(tensor) -> np.ndarray:
    """The tensor as an (N, N, M) int64 array, zero off its entries."""
    out = np.zeros(tensor.dims, dtype=np.int64)
    out[tuple(tensor.coords.T)] = tensor.counts
    return out


def dense_log_likelihood(tensor, model) -> float:
    """Poisson log-likelihood evaluated cell by cell over the dense array."""
    counts = dense(tensor)
    N1, N2, M = tensor.dims
    acc = 0.0
    for i in range(N1):
        for j in range(N2):
            if i == j:
                continue
            for t in range(M):
                rate = math.fsum(
                    model.weights[k] * model.O[i, k] * model.D[j, k] * model.T[t, k]
                    for k in range(model.K))
                count = counts[i, j, t]
                if count > 0:
                    if rate <= 0:
                        return float("-inf")
                    acc += count * math.log(rate)
                acc -= rate
    return acc


def reference_rates(model, coords) -> np.ndarray:
    """Reconstructed rates at the given cells with fancy-index row gathers:
    the plain formulation the solver's kernels must match bit for bit."""
    return (model.O[coords[:, 0]] * model.D[coords[:, 1]] * model.T[coords[:, 2]]) @ model.weights


def reference_log_likelihood(tensor, model) -> float:
    """Poisson log-likelihood up to the constant log(A!) term on top of
    ``reference_rates``: -inf where a cell with counts has rate zero."""
    full = model.weights @ (model.O.sum(0) * model.D.sum(0) * model.T.sum(0))
    diag = model.weights @ ((model.O * model.D).sum(0) * model.T.sum(0))
    mass = float(full - diag)
    if tensor.nnz == 0:
        return -mass
    rates = reference_rates(model, tensor.coords)
    if (rates <= 0).any():
        return float("-inf")
    return float(tensor.counts @ np.log(rates) - mass)


def reference_mode_update(tensor, model, mode, prior_shape=1.0, prior_rate=0.0) -> FactorModel:
    """One multiplicative update of factor matrix ``mode`` with fancy-index
    gathers and an ``np.add.at`` scatter: the plain formulation that
    ``solver._update`` must match bit for bit. The weights are absorbed into
    that matrix, updated, and renormalized back out of its columns; the
    other two matrices pass through."""
    a, b = prior_shape, prior_rate
    ii, jj, tt = tensor.coords[:, 0], tensor.coords[:, 1], tensor.coords[:, 2]
    W = {"origin": model.O, "destination": model.D, "time": model.T}[mode] * model.weights
    sum_T = model.T.sum(0)
    if mode == "origin":
        rows, contrib = ii, model.D[jj] * model.T[tt]
        rates = (W[ii] * contrib).sum(axis=1)
        denom = b + model.D.sum(0) * sum_T - model.D * sum_T
    elif mode == "destination":
        rows, contrib = jj, model.O[ii] * model.T[tt]
        rates = (W[jj] * contrib).sum(axis=1)
        denom = b + model.O.sum(0) * sum_T - model.O * sum_T
    else:
        rows, contrib = tt, model.O[ii] * model.D[jj]
        rates = (W[tt] * contrib).sum(axis=1)
        denom = b + np.broadcast_to(
            model.O.sum(0) * model.D.sum(0) - (model.O * model.D).sum(0), W.shape)
    num = np.zeros_like(W)
    if tensor.nnz:
        ratio = tensor.counts / np.maximum(rates, RATE_EPS)
        np.add.at(num, rows, contrib * ratio[:, None])
    W_new = ((a - 1.0) + W * num) / np.maximum(denom, RATE_EPS)
    lam_new = W_new.sum(0)
    mat_new = W_new / np.where(lam_new > 0, lam_new, 1.0)
    if mode == "origin":
        return FactorModel(mat_new, model.D, model.T, lam_new)
    if mode == "destination":
        return FactorModel(model.O, mat_new, model.T, lam_new)
    return FactorModel(model.O, model.D, mat_new, lam_new)


def _one_restart(tensor, model):
    """The model as ``fit``'s stacked (1, n, K) factors and (1, K) weights,
    with a NaN-filled (1, nnz, K) scratch pair: a kernel that reads scratch
    before writing it shows NaN."""
    scratch = tuple(np.full((1, tensor.nnz, model.K), np.nan) for _ in range(2))
    return [model.O[None], model.D[None], model.T[None]], model.weights[None], scratch


def kernel_mode_update(tensor, model, mode, prior_shape=1.0, prior_rate=0.0) -> FactorModel:
    """``solver._update`` of factor matrix ``mode``, as ``fit`` runs it, on a
    block of one restart: over the entries in that mode's sweep order."""
    m = MODES.index(mode)
    factors, lam, scratch = _one_restart(tensor, model)
    counts, index = solver._sweep_orders(tensor)[m]
    bins = solver._bins(index[m], tensor.dims[m], 1)
    factors[m], lam = solver._update(counts, index, factors, lam, m,
                                     prior_shape, prior_rate, scratch, bins)
    return FactorModel(*(mat[0] for mat in factors), lam[0])


def kernel_log_likelihood(tensor, model) -> float:
    """Minus ``solver._objectives``, the objective ``fit`` tracks, on a
    block of one restart. Its O[ii] * D[jj] is the one the time update
    ``solver._update`` leaves in scratch, whose result is dropped."""
    factors, lam, scratch = _one_restart(tensor, model)
    counts, index = solver._sweep_orders(tensor)[2]
    solver._update(counts, index, factors, lam, 2, 1.0, 0.0, scratch,
                   solver._bins(index[2], tensor.dims[2], 1))
    return -float(solver._objectives(counts, index, factors, lam, scratch)[0])


def reference_fit(tensor, config):
    """``solver.fit`` as one restart after another on the reference kernels.

    Returns the winner's normalized, sorted model and trace, then every
    restart's final model, not normalized, and trace.
    """
    def key(item):  # finite final objectives first, lowest first
        final = item[1].objectives[-1]
        return (not math.isfinite(final), final)

    rng = np.random.default_rng(config.seed)
    N1, N2, M = tensor.dims
    restarts = []
    for restart in range(config.restarts):
        model = FactorModel(rng.uniform(0.1, 1.1, size=(N1, config.rank)),
                            rng.uniform(0.1, 1.1, size=(N2, config.rank)),
                            rng.uniform(0.1, 1.1, size=(M, config.rank)),
                            np.ones(config.rank))
        trace = FitTrace(restart=restart)
        obj = -reference_log_likelihood(tensor, model)
        trace.objectives.append(obj)
        rel_change = float("inf")
        for _ in range(config.max_iters):
            if not math.isfinite(obj):
                break
            if rel_change <= config.rel_tol:
                trace.converged = True
                break
            for mode in MODES:
                model = reference_mode_update(tensor, model, mode, config.prior_shape,
                                              config.prior_rate)
            new_obj = -reference_log_likelihood(tensor, model)
            trace.objectives.append(new_obj)
            trace.n_sweeps += 1
            rel_change = abs(obj - new_obj) / max(abs(obj), 1.0)
            obj = new_obj
        else:
            trace.converged = rel_change <= config.rel_tol
        restarts.append((model, trace))
    # min keeps the first of equal keys: ties go to the earliest restart
    best_model, best_trace = min(restarts, key=key)
    return best_model.normalized().sorted_by_weight(), best_trace, restarts


def reference_resolve_country(point, table) -> str:
    """Nearest centroid of one point, haversine against every row in plain
    per-point numpy: the formulation the batched resolver must match."""
    if len(table) == 0:
        raise ConfigError("centroid table is empty")
    lat, lon = math.radians(point[0]), math.radians(point[1])
    dlat = table._lat_rad - lat
    dlon = table._lon_rad - lon
    h = np.sin(dlat / 2.0) ** 2 + math.cos(lat) * np.cos(table._lat_rad) * np.sin(dlon / 2.0) ** 2
    angle = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    return table.registry.codes[table.country[int(np.argmin(angle))]]


def reference_resolve_events(events, table) -> list:
    """The events with each point replaced by its nearest centroid's
    country, one point at a time through :func:`reference_resolve_country`."""
    return [Event(ev.user_id, ev.timestamp, country=reference_resolve_country((ev.lat, ev.lon), table))
            if ev.has_point else ev for ev in events]


def _window_residence_strict(filled, lo, hi):
    first = filled[lo]
    if first is None:
        return None
    for m in range(lo + 1, hi):
        if filled[m] != first:
            return None
    return first


def _window_residence_modal(filled, lo, hi):
    counts = Counter(c for c in filled[lo:hi] if c is not None)
    if not counts:
        return None
    top = max(counts.values())
    tied = [c for c, n in counts.items() if n == top]
    return tied[0] if len(tied) == 1 else None


def reference_detect_migrations(user_id, filled, k, mode="strict") -> list:
    """Window-k detection for one user's filled residence list (None
    unknown) as a per-month loop with a run collapse: the formulation the
    batched detector must match. Returns ``(user_id, month, origin,
    destination)`` tuples in month order."""
    M = len(filled)
    if k < 1 or 2 * k > M:
        raise ConfigError(f"window k={k} out of range for {M} months")
    if mode not in ("strict", "modal"):
        raise ConfigError(f"unknown detection mode {mode!r}")
    window = _window_residence_strict if mode == "strict" else _window_residence_modal
    events = []
    for m in range(k, M - k + 1):
        before = window(filled, m - k, m)
        after = window(filled, m, m + k)
        if before is not None and after is not None and before != after:
            events.append((user_id, m, before, after))
    if mode == "modal":
        collapsed = []
        last_seen = {}
        for ev in events:
            _, month, origin, destination = ev
            in_run = (origin, destination) in last_seen and month - last_seen[origin, destination] <= k
            last_seen[origin, destination] = month
            if not in_run:
                collapsed.append(ev)
        events = collapsed
    return events


def _reference_finish_event(user_id, raw_ts, country, lat, lon, interval, registry, stats):
    """The per-record validation tail both input formats share; None on rejection."""
    if not user_id or "\n" in user_id or "\r" in user_id or raw_ts is None:
        stats.add(MISSING_FIELD)
        return None
    if not isinstance(raw_ts, str):
        stats.add(BAD_TIMESTAMP)
        return None
    try:
        ts = parse_timestamp(raw_ts)
    except (ValueError, OverflowError):
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
        return Event(user_id, ts, country=country)
    try:
        lat, lon = float(lat), float(lon)
    except (TypeError, ValueError, OverflowError):
        stats.add(BAD_COORDINATES)
        return None
    if not (math.isfinite(lat) and math.isfinite(lon)):
        stats.add(BAD_COORDINATES)
        return None
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        stats.add(BAD_COORDINATES)
        return None
    return Event(user_id, ts, lat=lat, lon=lon)


def reference_parse_events(lines, format, interval=None, registry=None):
    """``read_events`` one record at a time, as a list of :class:`Event`:
    each CSV line through its own ``csv.reader``, each JSONL line through
    ``json.loads``, every record through the per-record rules. The columnar
    parser must match it, events and reject tallies alike. The events come
    as ``read_events`` orders its rows: sorted stably by (user, time)."""
    events, stats = [], RejectStats()
    if format == "csv":
        for lineno, line in enumerate(lines):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if lineno == 0 and line.strip() in (CSV_HEADER_COUNTRY, CSV_HEADER_GEO):
                continue
            try:
                parts = next(csv.reader([line]))
            except csv.Error:
                stats.add(BAD_FIELD_COUNT)
                continue
            if len(parts) == 3:
                ev = _reference_finish_event(parts[0].strip(), parts[1], parts[2], None, None,
                                             interval, registry, stats)
            elif len(parts) == 4:
                ev = _reference_finish_event(parts[0].strip(), parts[1], None, parts[2], parts[3],
                                             interval, registry, stats)
            else:
                stats.add(BAD_FIELD_COUNT)
                continue
            if ev is not None:
                events.append(ev)
        return by_user_time(events), stats
    for line in lines:
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        # a JSONDecodeError, an integer past Python's digit limit, or nesting
        # past the recursion limit
        except (ValueError, RecursionError):
            stats.add(BAD_JSON)
            continue
        if not isinstance(obj, dict):
            stats.add(BAD_JSON)
            continue
        lat, lon = obj.get("lat"), obj.get("lon")
        has_code = obj.get("country") is not None
        has_point = lat is not None or lon is not None
        if has_code == has_point or (has_code and not isinstance(obj["country"], str)):
            stats.add(BAD_LOCATION)
            continue
        if has_point and (lat is None or lon is None):
            stats.add(BAD_COORDINATES)
            continue
        number = lambda v: v if type(v) in (int, float) else None  # noqa: E731
        user_id = obj.get("user_id")
        user_id = (user_id.strip() if isinstance(user_id, str)
                   else str(user_id) if isinstance(user_id, int) and not isinstance(user_id, bool)
                   else "")
        ev = _reference_finish_event(user_id, obj.get("timestamp"),
                                     obj.get("country"), number(lat), number(lon),
                                     interval, registry, stats)
        if ev is not None:
            events.append(ev)
    return by_user_time(events), stats


def reference_write_events(table: EventTable, codes, fh) -> None:
    """``write_events`` through ``csv.writer``, one row per event."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["user_id", "timestamp", "country"])
    writer.writerows(zip(map(table.users.__getitem__, table.user.tolist()),
                         _format_seconds(table.seconds),
                         map(codes.__getitem__, table.country.tolist())))


def reference_write_residence_matrix(users, filled, registry, path) -> None:
    """``write_residence_matrix`` through ``csv.writer``, one row per known cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESIDENCE_HEADER)
        rows, months = np.nonzero(filled >= 0)
        writer.writerows(zip(map(users.__getitem__, rows.tolist()), months.tolist(),
                             map(registry.codes.__getitem__, filled[rows, months].tolist())))


def reference_serialize_events(events, format, header=False) -> str:
    """Events written one at a time, timestamps through ``strftime``: CSV
    as ``write_events`` writes it, or JSONL objects."""
    stamp = lambda ev: ev.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ")  # noqa: E731
    buf = io.StringIO()
    if format == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(["user_id", "timestamp", "country"])
        for ev in events:
            if ev.has_point:
                writer.writerow([ev.user_id, stamp(ev), repr(ev.lat), repr(ev.lon)])
            else:
                writer.writerow([ev.user_id, stamp(ev), ev.country])
        return buf.getvalue()
    for ev in events:
        obj = {"user_id": ev.user_id, "timestamp": stamp(ev)}
        if ev.has_point:
            obj["lat"], obj["lon"] = ev.lat, ev.lon
        else:
            obj["country"] = ev.country
        buf.write(json.dumps(obj, sort_keys=True) + "\n")
    return buf.getvalue()


def _reference_failed_rules(events, policy) -> list:
    per_day = Counter(ev.timestamp.date() for ev in events)
    countries_per_day = defaultdict(set)
    months = set()
    for ev in events:
        countries_per_day[ev.timestamp.date()].add(ev.country)
        months.add((ev.timestamp.year, ev.timestamp.month))
    failed = []
    if any(n > policy.max_events_per_day for n in per_day.values()):
        failed.append(ingestion.RULE_MAX_EVENTS_PER_DAY)
    if any(len(s) > policy.max_countries_per_day for s in countries_per_day.values()):
        failed.append(ingestion.RULE_MAX_COUNTRIES_PER_DAY)
    if len(events) < policy.min_events_total:
        failed.append(ingestion.RULE_MIN_EVENTS_TOTAL)
    if len(months) < policy.min_active_months:
        failed.append(ingestion.RULE_MIN_ACTIVE_MONTHS)
    return failed


def reference_filter_users(events, policy):
    """``filter_table`` on a list of :class:`Event` as a per-user loop over
    ``datetime.date()`` and (year, month) sets; the kept events come sorted
    by (user, time)."""
    events = sorted(events, key=lambda ev: (ev.user_id, ev.timestamp))
    stats = ingestion.DroppedUserStats()
    kept = []
    by_user = defaultdict(list)
    for ev in events:
        by_user[ev.user_id].append(ev)
    for user_id in sorted(by_user):
        user_events = by_user[user_id]
        stats.users_seen += 1
        failed = _reference_failed_rules(user_events, policy)
        if failed:
            for rule in failed:
                stats.by_rule[rule] += 1
            stats.users_dropped += 1
            stats.events_dropped += len(user_events)
        else:
            kept.extend(user_events)
    return kept, stats


def reference_monthly_residence(events, calendar, registry) -> list:
    """One user's filled residence list (None unknown) as a per-month
    ``Counter`` loop: the majority, then the previous month's country, then
    the latest event, then the country seen first that month (``max`` keeps
    the first maximum)."""
    events = sorted(events, key=lambda ev: ev.timestamp)
    counts = [Counter() for _ in range(calendar.months)]
    latest = [{} for _ in range(calendar.months)]
    for ev in events:
        m = (ev.timestamp.year - calendar.epoch_year) * 12 + ev.timestamp.month - calendar.epoch_month
        c = registry.index[ev.country]
        counts[m][c] += 1
        latest[m][c] = ev.timestamp
    filled = [None] * calendar.months
    previous = None
    for m in range(calendar.months):
        if counts[m]:
            top = max(counts[m].values())
            tied = [c for c, n in counts[m].items() if n == top]
            if len(tied) == 1:
                choice = tied[0]
            elif previous in tied:
                choice = previous
            else:
                choice = max(tied, key=lambda c: latest[m][c])
            previous = choice
        filled[m] = previous
    return filled


def reference_generate_synthetic(spec, registry) -> tuple:
    """``synth.generate_synthetic`` as scalar ``Generator`` calls: every
    bounded integer from ``rng.integers`` and every instant from
    ``monthrange`` and ``date``. Returns the same (table, truth)."""
    rng = np.random.default_rng(spec.seed)
    calendar = spec.calendar
    rows, planted, noise_moves = [], [], []
    used = 0

    def next_user():
        nonlocal used
        if used >= spec.users:
            raise ConfigError(f"synthetic user pool of {spec.users} exhausted; raise `users`")
        used += 1
        return f"u{used:06d}"

    def instant(month):
        year, mo = calendar.year_month(month)
        day = int(rng.integers(1, monthrange(year, mo)[1] + 1))
        second = int(rng.integers(0, 86400))
        return (date(year, mo, day) - date(1970, 1, 1)).days * 86400 + second

    def tweets(uid, code, month, anchored):
        n = int(rng.poisson(spec.tweets_per_month))
        for _ in range(max(1, n) if anchored else n):
            rows.append((uid, instant(month), code))

    def mover(uid, move_month, origin, destination):
        first = max(0, move_month - spec.dwell_months)
        for m in range(first, min(spec.months - 1, move_month + spec.dwell_months - 1) + 1):
            tweets(uid, origin if m < move_month else destination, m, m in (first, move_month))

    for comp in spec.components:
        for code in (comp.origin, comp.destination):
            if code not in registry:
                raise ConfigError(f"planted country {code!r} not in registry")
    for comp in spec.components:
        for month in sorted(set(comp.active_months)):
            for _ in range(int(rng.poisson(comp.intensity))):
                uid = next_user()
                mover(uid, month, registry.index[comp.origin], registry.index[comp.destination])
                planted.append({"user_id": uid, "month": month,
                                "origin": comp.origin, "destination": comp.destination})
    if spec.noise_rate > 0:
        N = len(registry)
        if N < 2:
            raise ConfigError("background noise needs at least two registered countries")
        for month in range(1, spec.months):
            for _ in range(int(rng.poisson(spec.noise_rate))):
                uid = next_user()
                o = int(rng.integers(0, N))
                d = int(rng.integers(0, N - 1))
                d += d >= o
                mover(uid, month, o, d)
                noise_moves.append({"user_id": uid, "month": month,
                                    "origin": registry.codes[o], "destination": registry.codes[d]})
    while used < spec.users:
        uid = next_user()
        code = int(rng.integers(0, len(registry)))
        start = int(rng.integers(0, spec.months))
        span = int(rng.integers(1, 7))
        for m in range(start, min(spec.months, start + span)):
            tweets(uid, code, m, m == start)

    users = sorted({uid for uid, _, _ in rows})
    rank = {u: i for i, u in enumerate(users)}
    ordered = sorted(rows, key=lambda row: (rank[row[0]], row[1]))  # stable, as the lexsort
    table = EventTable(users, np.array([rank[uid] for uid, _, _ in ordered], np.int32),
                       np.array([second for _, second, _ in ordered], np.int64),
                       np.array([code for _, _, code in ordered], np.int16))
    truth = {"planted": planted, "noise_moves": noise_moves,
             "components": [{"origin": c.origin, "destination": c.destination,
                             "active_months": sorted(set(c.active_months)), "intensity": c.intensity}
                            for c in spec.components]}
    return table, truth
