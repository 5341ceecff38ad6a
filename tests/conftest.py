"""Shared fixtures and independent oracles used across the test modules."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from migtensor.ingestion import ConfigError, CountryRegistry
from migtensor.residence import MigrationEvent
from migtensor.solver import RATE_EPS, FactorModel
from migtensor.tensor import MigrationTensor


@pytest.fixture
def registry():
    # index order matters for tie-break tests: GB=0, FR=1, ES=2, US=3, KW=4, DE=5
    return CountryRegistry(["GB", "FR", "ES", "US", "KW", "DE"])


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


def dense_log_likelihood(tensor, model) -> float:
    """Poisson log-likelihood evaluated cell by cell over the dense array."""
    dense = tensor.to_dense()
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
                count = dense[i, j, t]
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
    """``solver.log_likelihood`` on top of ``reference_rates``."""
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
    """``solver.mode_update`` with fancy-index gathers and an ``np.add.at``
    scatter: the plain formulation its kernel must match bit for bit."""
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
    return table.codes[int(np.argmin(angle))]


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


def reference_detect_migrations(series, k, mode="strict") -> list:
    """Window-k detection for one series as a per-month loop with a
    per-user run collapse: the formulation the batched detector must match."""
    M = len(series.filled)
    if k < 1 or 2 * k > M:
        raise ConfigError(f"window k={k} out of range for {M} months")
    if mode not in ("strict", "modal"):
        raise ConfigError(f"unknown detection mode {mode!r}")
    window = _window_residence_strict if mode == "strict" else _window_residence_modal
    events = []
    for m in range(k, M - k + 1):
        before = window(series.filled, m - k, m)
        after = window(series.filled, m, m + k)
        if before is not None and after is not None and before != after:
            events.append(MigrationEvent(series.user_id, m, before, after))
    if mode == "modal":
        collapsed = []
        last_seen = {}
        for ev in events:
            key = (ev.origin, ev.destination)
            in_run = key in last_seen and ev.month - last_seen[key] <= k
            last_seen[key] = ev.month
            if not in_run:
                collapsed.append(ev)
        events = collapsed
    return events
