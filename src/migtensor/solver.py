"""Sparse non-negative Poisson CP decomposition of the migration tensor.

The count tensor is approximated by a rank-K sum of outer products with
origin factors O (N x K), destination factors D (N x K) and time factors
T (M x K); component weights lam carry the mass so that factor columns can
stay normalized to unit sum. Fitting maximizes the Poisson likelihood of
the observed counts (optionally with a Gamma prior on factor entries) via
multiplicative updates, alternating over the three modes. Diagonal cells
(origin == destination) are structural zeros: they are excluded from both
the data term and the reconstructed-mass term, so the model is never
penalized for mass it cannot place there.

With prior_shape a=1 and prior_rate b=0 the updates are exact
maximum-likelihood steps and the negative log-likelihood is non-increasing
sweep over sweep; a>1 / b>0 adds Gamma(a, b) MAP smoothing.

``fit`` sweeps a block of restarts together: their factors are stacked
as (R, N, K), (R, N, K) and (R, M, K) arrays plus (R, K) weights, and
every gather, product and row sum runs on two (R, nnz, K) C-order scratch
buffers that ``fit`` allocates once. Restarts share a block while
R * nnz * K fits ``BLOCK_ELEMENTS``; a tensor whose nnz * K alone exceeds
it runs one restart per block, on scratch of one restart's size. A
restart leaves the block, at one point of the loop, once it converges,
turns non-finite or runs out of sweeps. Each objective, the first too, is
O[ii] * D[jj] times T's rows dotted with the weights; the product is
gathered before the first and left in scratch by the time update before
each later one. ``FactorModel`` is built and validated once, for the
winning restart, not on every update.

Every result has the bits of the plain per-restart formulation
(fancy-index row gathers, ``.sum`` row sums, ``np.add.at`` scatter).
Gathers are ``np.take`` copies, and a stacked ``matmul`` gives each
restart the bits of its own ``prod @ weights``. The update's row sums are
whole-column adds in the order numpy sums a contiguous axis (given at
``_pairwise_sum``), so each rate is the same adds as its own ``.sum``.
Its numerator is scattered with one ``np.bincount`` per factor column,
each over a contiguous slab, into the bins r * n + row: like
``np.add.at`` it adds each nonzero's term into its cell in nnz order,
starting from 0.0. The likelihood's ``counts @ log(rates)`` stays one dot
per restart. Scratch is reused rather than allocated per call because
fresh nnz x K temporaries page-fault again on first touch.

The tensor's entries are sorted by origin, and ``np.bincount`` over
sorted rows stalls: each add into a bin waits for the add before it into
the same bin. So the origin and destination updates sweep the nonzeros
dealt out by their own rows (``_sweep_orders``, built once per fit):
every row's first entry, then every row's second, and so on, so that
neighbouring adds go to different bins. A row keeps its entries in entry
order, so each bin adds the same terms in the same order and the bits do
not change. The time update and the objective keep the tensor's order:
the time update leaves the O[ii] * D[jj] that the objective reads, and
the objective's dot sums in entry order.

Restarts are independent: ``fit`` draws every start first, then deals
whole blocks out in contiguous shares, one per worker process
(``workers.count``, at most one per block), each forked before it
allocates any scratch. There is a worker per CPU in the process's
affinity mask where a fork is safe: on Linux, from a process with a
single OS thread. numpy's OpenBLAS keeps that only with
``OPENBLAS_NUM_THREADS=1``, which importing :mod:`migtensor` sets where
it is unset; elsewhere every block runs in this process. A block is
never split, so each process sweeps its restarts in the blocks one
process would.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .events import line_error, open_text, read_header
from .ingestion import require_int
from .tensor import MigrationTensor

# floor applied to reconstructed rates inside update ratios; factor entries
# themselves are never floored, so zeros stay absorbing
RATE_EPS = 1e-12

# elements in each of fit's two scratch buffers: a block of R restarts
# sweeps together while R * nnz * K fits, and a tensor with nnz * K above
# it runs one restart per block on an (nnz, K) scratch pair
BLOCK_ELEMENTS = 1 << 16


@dataclass
class FactorModel:
    """Rank-K non-negative CP factors plus component weights.

    In normalized form each column of O, D and T sums to 1 and
    ``weights[k]`` carries component k's total mass.
    """

    O: np.ndarray
    D: np.ndarray
    T: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.O = np.asarray(self.O, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        self.T = np.asarray(self.T, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        K = self.K
        if self.O.ndim != 2 or self.D.ndim != 2 or self.T.ndim != 2:
            raise ValueError("factor matrices must be 2-d")
        if self.D.shape[1] != K or self.T.shape[1] != K or self.weights.shape != (K,):
            raise ValueError("factor matrices and weights disagree on rank")
        if self.O.shape[0] != self.D.shape[0]:
            raise ValueError("origin and destination factors must share N")
        for arr in (self.O, self.D, self.T, self.weights):
            if not np.isfinite(arr).all() or (arr < 0).any():
                raise ValueError("factor entries must be finite and non-negative")

    @property
    def K(self) -> int:
        return self.O.shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.O.shape[0], self.D.shape[0], self.T.shape[0])

    def copy(self) -> "FactorModel":
        return FactorModel(self.O.copy(), self.D.copy(), self.T.copy(), self.weights.copy())

    def normalized(self) -> "FactorModel":
        """Canonical gauge: unit-sum columns, mass moved into the weights."""
        out = self.copy()
        lam = out.weights
        for mat in (out.O, out.D, out.T):
            s = mat.sum(axis=0)
            scale = np.where(s > 0, s, 1.0)
            mat /= scale
            lam = lam * s
        out.weights = lam
        return out

    def sorted_by_weight(self) -> "FactorModel":
        order = np.argsort(-self.weights, kind="stable")
        return FactorModel(self.O[:, order], self.D[:, order], self.T[:, order], self.weights[order])


@dataclass(frozen=True)
class FitConfig:
    rank: int = 15
    max_iters: int = 500
    rel_tol: float = 1e-6
    seed: int = 0
    prior_shape: float = 1.0
    prior_rate: float = 0.0
    restarts: int = 10

    def __post_init__(self):
        for name in ("rank", "max_iters", "restarts", "seed"):
            require_int(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        # chained, so that NaN fails both bounds as it fails every comparison
        if not (1 <= self.prior_shape < math.inf and 0 <= self.prior_rate < math.inf):
            raise ValueError("need finite prior_shape >= 1 and prior_rate >= 0")


@dataclass
class FitTrace:
    """Objective history of one fit run (negative log-likelihood).

    ``objectives[0]`` is the initial model's objective; each further entry
    follows one full sweep over the three modes.
    """

    objectives: list[float] = field(default_factory=list)
    n_sweeps: int = 0
    converged: bool = False
    restart: int = 0


def _draw_factors(dims: tuple[int, int, int], rank: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    N1, N2, M = dims
    O = rng.uniform(0.1, 1.1, size=(N1, rank))
    D = rng.uniform(0.1, 1.1, size=(N2, rank))
    T = rng.uniform(0.1, 1.1, size=(M, rank))
    return O, D, T


def _gather(mat: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[r] = mat[r][idx]`` for every restart r, written in place.

    Every index is in range (tensor entries are checked on construction and
    the model's dims match the tensor's), so mode "clip" never clips; unlike
    the default "raise" it writes into ``out`` without a temporary copy.
    """
    return np.take(mat, idx, axis=1, out=out, mode="clip")


def _dealt(rows: np.ndarray) -> np.ndarray:
    """The entries in the order that deals ``rows`` out in turn: every row's
    first entry, then every row's second, and so on, rows ascending within
    a turn. Each row keeps its own entries in entry order, and no row comes
    twice in a row while two or more rows have entries left."""
    by_row = np.argsort(rows, kind="stable")
    sizes = np.bincount(rows)
    turn = np.empty_like(rows)
    turn[by_row] = np.arange(len(rows)) - (np.cumsum(sizes) - sizes)[rows[by_row]]
    return np.lexsort((rows, turn))


def _sweep_orders(tensor: MigrationTensor) -> list[tuple[np.ndarray, tuple]]:
    """Each mode update's counts and (origin, destination, month) index
    columns, each contiguous: the origin and destination updates see the
    entries in the ``_dealt`` order of their own rows, the time update and
    the objective in the tensor's own."""
    index = tuple(np.ascontiguousarray(col) for col in tensor.coords.T)
    orders = []
    for rows in index[:2]:
        perm = _dealt(rows)
        orders.append((tensor.counts[perm], tuple(col[perm] for col in index)))
    return orders + [(tensor.counts, index)]


def _bins(rows: np.ndarray, n: int, R: int) -> np.ndarray:
    """Scatter index of a block of R restarts: row i of restart r is bin r*n + i.

    A block's first R' restarts use the first R' * nnz entries.
    """
    return rows if R == 1 else (np.arange(R)[:, None] * n + rows).reshape(-1)


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``mat[r] @ vec[r]`` for every restart r, as one stacked ``matmul``."""
    return np.matmul(mat, vec[..., None])[..., 0]


def _mass(factors, lam: np.ndarray) -> np.ndarray:
    """Total reconstructed rate over admissible cells (diagonal excluded)."""
    O, D, T = factors
    sum_T = T.sum(1)
    full = _matvec(lam[:, None], O.sum(1) * D.sum(1) * sum_T)
    diag = _matvec(lam[:, None], (O * D).sum(1) * sum_T)
    return (full - diag)[:, 0]


def _log_likelihoods(counts: np.ndarray, rates: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Each restart's Poisson log-likelihood from its row of ``rates``.

    One ``counts @ log(rates[r])`` dot per restart: a single product over
    all rows would sum in another order. -inf for a restart that gives
    rate zero to a cell with observed counts.
    """
    out = -mass
    if len(counts):
        zero = (rates <= 0).any(axis=1)
        for r, row in enumerate(rates):
            out[r] = float("-inf") if zero[r] else counts @ np.log(row) - mass[r]
    return out


def _objectives(counts: np.ndarray, index, factors, lam: np.ndarray, scratch) -> np.ndarray:
    """Each restart's negative log-likelihood, from the O[ii] * D[jj] in
    ``scratch[0]``: its rates cost one gather of T's rows and a multiply."""
    contrib, tmp = scratch
    prod = np.multiply(contrib, _gather(factors[2], index[2], tmp), out=tmp)
    return -_log_likelihoods(counts, _matvec(prod, lam), _mass(factors, lam))


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=0)`` of non-negative slabs with the bits numpy gives a
    contiguous axis, added in place into ``x[0]``, which it returns.

    That is numpy's pairwise order: fewer than 8 slabs left to right; 8 to
    128 in 8 accumulators seeded from slabs 0-7, each later full block of 8
    added to them, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7)), then the last ``n % 8`` slabs in order; more than 128 split at
    half rounded down to a multiple of 8, each half summed so and the two
    added. numpy starts from 0.0, which changes only a sum of -0.0s, so
    the slabs must hold no negative zero.
    """
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise_sum(x[:half])
        out += _pairwise_sum(x[half:])
        return out
    if n < 8:
        for k in range(1, n):
            x[0] += x[k]
        return x[0]
    end = n - n % 8
    for k in range(8, end):
        x[k % 8] += x[k]
    for step in (1, 2, 4):
        for k in range(0, 8, 2 * step):
            x[k] += x[k + step]
    for k in range(end, n):
        x[0] += x[k]
    return x[0]


def _update(counts: np.ndarray, index, factors, lam: np.ndarray, mode: int,
            a: float, b: float, scratch, bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One multiplicative update of factor matrix ``mode`` in every restart.

    Returns the new (R, n, K) matrix and (R, K) weights. On return
    ``scratch[0]`` holds the product of the other two modes' rows.
    """
    O, D, T = factors
    ii, jj, tt = index
    contrib, work = scratch
    W = factors[mode] * lam[:, None]
    sum_T = T.sum(1)[:, None]

    # contrib is the product of the other two modes' rows: D[jj] * T[tt] etc.
    if mode == 0:
        rows, (P, p), (Q, q) = ii, (D, jj), (T, tt)
        denom = b + D.sum(1)[:, None] * sum_T - D * sum_T
    elif mode == 1:
        rows, (P, p), (Q, q) = jj, (O, ii), (T, tt)
        denom = b + O.sum(1)[:, None] * sum_T - O * sum_T
    else:
        rows, (P, p), (Q, q) = tt, (O, ii), (D, jj)
        denom = b + (O.sum(1) * D.sum(1) - (O * D).sum(1))[:, None]
    np.multiply(_gather(P, p, contrib), _gather(Q, q, work), out=contrib)
    prod = np.multiply(_gather(W, rows, work), contrib, out=work)
    rates = _pairwise_sum(prod.transpose(2, 0, 1))

    num = np.zeros_like(W)
    if len(counts):
        R, n, K = W.shape
        ratio = counts / np.maximum(rates, RATE_EPS)
        # component-major, so that each bincount reads one contiguous slab
        terms = np.multiply(contrib.transpose(2, 0, 1), ratio, out=work.reshape(K, R, -1))
        for k in range(K):
            num[..., k] = np.bincount(bins, weights=terms[k].reshape(-1),
                                      minlength=R * n).reshape(R, n)

    W_new = ((a - 1.0) + W * num) / np.maximum(denom, RATE_EPS)
    lam_new = W_new.sum(1)
    scale = np.where(lam_new > 0, lam_new, 1.0)
    return W_new / scale[:, None], lam_new


def _restart_key(trace: FitTrace) -> tuple[bool, float]:
    """Sort key of a restart: finite final objectives first, lowest first."""
    final = trace.objectives[-1]
    return (not math.isfinite(final), final)


def _fit_block(tensor: MigrationTensor, orders, starts: list, first: int,
               config: FitConfig, scratch) -> list[tuple[tuple, FitTrace]]:
    """Sweep a block of restarts together: each one's (O, D, T, weights) and trace.

    ``orders`` holds each mode update's counts and index columns
    (``_sweep_orders``), ``starts`` the block's (O, D, T) draws, ``first``
    the number of its first restart and ``scratch`` two flat buffers of at
    least len(starts) * nnz * K elements. Restart r reads and writes slab r of
    every stacked array only, so dropping a finished restart from the
    active set changes no other restart's bits.
    """
    R, nnz, K = len(starts), tensor.nnz, config.rank
    a, b = config.prior_shape, config.prior_rate
    counts, index = orders[2]
    factors = [np.stack(mats) for mats in zip(*starts)]
    lam = np.ones((R, K))
    bins = [_bins(orders[m][1][m], n, R) for m, n in enumerate(tensor.dims)]
    active = [FitTrace(restart=first + r) for r in range(R)]  # one per slab
    done = []

    def views(n):
        return ([buf[:n * nnz * K].reshape(n, nnz, K) for buf in scratch],
                [col[:n * nnz] for col in bins])

    block_scratch, block_bins = views(R)
    contrib, tmp = block_scratch
    # every later O[ii] * D[jj] is the one the time update leaves in scratch[0]
    np.multiply(_gather(factors[0], index[0], contrib), _gather(factors[1], index[1], tmp), out=contrib)
    for sweep in range(config.max_iters + 1):
        objs = _objectives(counts, index, factors, lam, block_scratch).tolist()
        keep = []
        for pos, (trace, obj) in enumerate(zip(active, objs)):
            prev = trace.objectives[-1] if sweep else math.inf
            rel = abs(prev - obj) / max(abs(prev), 1.0) if sweep else math.inf
            trace.objectives.append(obj)
            trace.n_sweeps = sweep
            if math.isfinite(obj) and rel > config.rel_tol and sweep < config.max_iters:
                keep.append(pos)
            else:
                trace.converged = math.isfinite(obj) and rel <= config.rel_tol
                done.append((tuple(mat[pos] for mat in (*factors, lam)), trace))
        if not keep:
            break
        if len(keep) < len(active):
            factors, lam = [mat[keep] for mat in factors], lam[keep]
            active = [active[pos] for pos in keep]
            block_scratch, block_bins = views(len(keep))
        for m in range(3):
            factors[m], lam = _update(*orders[m], factors, lam, m, a, b,
                                      block_scratch, block_bins[m])
    return sorted(done, key=lambda item: item[1].restart)


def _per_block(restarts: int, size: int) -> int:
    """Restarts in a block: as many as fit ``BLOCK_ELEMENTS`` at ``size`` =
    nnz * K elements each, at least one."""
    return max(1, min(restarts, BLOCK_ELEMENTS // max(size, 1)))


def _fit_share(tensor: MigrationTensor, orders, starts: list, first: int,
               config: FitConfig) -> list[tuple[tuple, FitTrace]]:
    """``_fit_block`` over restarts ``first``, ``first + 1``, ... drawn as
    ``starts``, in blocks of ``_per_block`` restarts, on one scratch pair
    allocated here."""
    size = tensor.nnz * config.rank
    per_block = _per_block(len(starts), size)
    scratch = (np.empty(per_block * size), np.empty(per_block * size))
    out = []
    for lo in range(0, len(starts), per_block):
        out += _fit_block(tensor, orders, starts[lo:lo + per_block], first + lo, config, scratch)
    return out


def _fit_shares(tensor: MigrationTensor, starts: list, config: FitConfig,
                n: int) -> list[tuple[tuple, FitTrace]]:
    """Every restart's result and trace, in restart order. The blocks are
    cut into at most ``n`` contiguous shares, each run in its own process."""
    orders = _sweep_orders(tensor)
    per_block = _per_block(len(starts), tensor.nnz * config.rank)
    blocks = -(-len(starts) // per_block)
    n = min(n, blocks)
    cuts = [min(len(starts), per_block * (blocks * w // n)) for w in range(n + 1)]
    shares = [(tensor, orders, starts[lo:hi], lo, config) for lo, hi in zip(cuts, cuts[1:])]
    return [item for share in workers.run(_fit_share, shares) for item in share]


def fit(tensor: MigrationTensor, config: FitConfig) -> tuple[FactorModel, FitTrace]:
    """Fit the decomposition with seeded multi-restart alternating updates.

    Each restart draws a fresh random start from one seeded stream, then
    sweeps origin -> destination -> time until the relative objective
    change drops to rel_tol or max_iters is hit. A restart whose objective
    turns non-finite stops there, unconverged. The restart with the best
    final objective wins, any finite one before every non-finite one (ties
    to the earliest restart); its model comes back normalized with
    components sorted by descending weight. The blocks of restarts run in
    up to ``workers.count()`` processes, with the same bits in each.
    """
    N, _, M = tensor.dims
    if config.rank > min(N, M):
        warnings.warn(
            f"rank {config.rank} exceeds min tensor dim {min(N, M)}; "
            "the decomposition is overcomplete", RuntimeWarning)
    rng = np.random.default_rng(config.seed)
    starts = [_draw_factors(tensor.dims, config.rank, rng) for _ in range(config.restarts)]
    results = _fit_shares(tensor, starts, config, workers.count())
    # min keeps the first of equal keys: ties go to the earliest restart
    best, best_trace = min(results, key=lambda item: _restart_key(item[1]))
    # sweeps are gauge-covariant, so the raw draws needed no normalizing;
    # the winner is validated and canonicalized exactly once, here
    return FactorModel(*best).normalized().sorted_by_weight(), best_trace


def save_model(model: FactorModel, path) -> None:
    """Write ``# cp N N M K`` then weights, O, D, T as CSV blocks.

    Floats use 17 significant digits, enough to round-trip exactly.
    """
    N1, N2, M = model.dims
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(f"# cp {N1} {N2} {M} {model.K}\n")
    writer.writerow([f"{x:.17g}" for x in model.weights])
    for mat in (model.O, model.D, model.T):
        for row in mat:
            writer.writerow([f"{x:.17g}" for x in row])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def load_model(path) -> FactorModel:
    """Read a model written by :func:`save_model`.

    A malformed header or row raises :class:`InputError` naming its
    ``path:line``; so does a number in any form but the ``%.17g`` one
    ``save_model`` writes, such as ``1_0``, ``+5`` or ``5.0``.
    """
    rows = []
    with open_text(path) as fh:
        N1, N2, M, K = read_header(fh, path, "cp", 4, "model")
        # save_model's %.17g floats are never quoted, so a row splits on commas
        for line, text in enumerate(fh, start=2):
            text = text.rstrip("\n")
            parts = text.split(",")
            if len(parts) != K:
                raise line_error(path, line, f"expected {K} fields, got {len(parts)}")
            try:
                row = [float(x) for x in parts]
            except ValueError:
                raise line_error(path, line, f"row {text!r} is not {K} numbers") from None
            if [f"{x:.17g}" for x in row] != parts:
                raise line_error(path, line, f"row {text!r} is not in save_model's %.17g form")
            if not all(math.isfinite(x) and x >= 0 for x in row):
                raise line_error(path, line, "factor entries must be finite and non-negative")
            rows.append(row)
    expected = 1 + N1 + N2 + M
    if len(rows) != expected:
        # the first row past the expected ones, or the first missing one
        raise line_error(path, min(len(rows), expected) + 2,
                         f"expected {expected} data rows, found {len(rows)}")
    data = np.array(rows)
    try:
        return FactorModel(data[1:1 + N1], data[1 + N1:1 + N1 + N2], data[1 + N1 + N2:], data[0])
    except ValueError as exc:  # every row is sound, so the header is not
        raise line_error(path, 1, str(exc)) from exc
