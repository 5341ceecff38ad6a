"""Shared fixtures and independent oracles used across the test modules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from migtensor.ingestion import CountryRegistry
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
