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

The kernels produce the same bits as the plain formulation (fancy-index
row gathers, ``np.add.at`` scatter); only their per-call overhead is tuned.
Row gathers are ``np.take`` copies. The scatter of the update's numerator
is one ``np.bincount`` per factor column: like ``np.add.at`` it adds each
nonzero's term into its output cell one at a time in nnz order, starting
from 0.0, so every cell sums the same terms in the same order. Gathers and
elementwise products write into two nnz x K scratch arrays that ``fit``
allocates once and passes to every kernel call. That changes no value, but
fresh nnz x K temporaries on every call are returned to the operating
system by the C allocator between calls and page-fault again on first
touch, which costs more than the arithmetic on them.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .events import InputError
from .tensor import MigrationTensor

# floor applied to reconstructed rates inside update ratios; factor entries
# themselves are never floored, so zeros stay absorbing
RATE_EPS = 1e-12

MODES = ("origin", "destination", "time")


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
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.prior_shape < 1 or self.prior_rate < 0:
            raise ValueError("need prior_shape >= 1 and prior_rate >= 0")


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


def _draw_factors(dims: tuple[int, int, int], rank: int, rng: np.random.Generator) -> FactorModel:
    N1, N2, M = dims
    O = rng.uniform(0.1, 1.1, size=(N1, rank))
    D = rng.uniform(0.1, 1.1, size=(N2, rank))
    T = rng.uniform(0.1, 1.1, size=(M, rank))
    return FactorModel(O, D, T, np.ones(rank))


def init_factors(dims: tuple[int, int, int], config: FitConfig) -> FactorModel:
    """Seeded random start: entries i.i.d. uniform on (0.1, 1.1), weights 1."""
    return _draw_factors(dims, config.rank, np.random.default_rng(config.seed))


def reconstruct_entry(model: FactorModel, i: int, j: int, t: int) -> float:
    """Reconstructed rate at one cell: sum_k lam_k * O_ik * D_jk * T_tk."""
    return float((model.O[i] * model.D[j] * model.T[t]) @ model.weights)


def _new_scratch(nnz: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    return np.empty((nnz, rank)), np.empty((nnz, rank))


def _scratch(tensor: MigrationTensor, model: FactorModel, scratch) -> tuple[np.ndarray, np.ndarray]:
    if scratch is None:
        return _new_scratch(tensor.nnz, model.K)
    # C order keeps the row sums' summation order, and so their bits
    if any(buf.shape != (tensor.nnz, model.K) or buf.dtype != np.float64
           or not buf.flags.c_contiguous for buf in scratch):
        raise ValueError("scratch arrays must be C-contiguous float64 of shape "
                         f"{(tensor.nnz, model.K)}")
    return scratch


def _gather(mat: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:] = mat[idx]``, written in place.

    Every index is in range (tensor entries are checked on construction and
    the model's dims match the tensor's), so mode "clip" never clips; unlike
    the default "raise" it writes into ``out`` without a temporary copy.
    """
    return np.take(mat, idx, axis=0, out=out, mode="clip")


def _index_columns(tensor: MigrationTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origin, destination and month index of every entry, each contiguous."""
    return tuple(np.ascontiguousarray(col) for col in tensor.coords.T)


def _rates(model: FactorModel, tensor: MigrationTensor, scratch) -> np.ndarray:
    ii, jj, tt = _index_columns(tensor)
    prod, tmp = scratch
    _gather(model.O, ii, prod)
    prod *= _gather(model.D, jj, tmp)
    prod *= _gather(model.T, tt, tmp)
    return prod @ model.weights


def _reconstructed_mass(model: FactorModel) -> float:
    """Total reconstructed rate over admissible cells (diagonal excluded)."""
    full = model.weights @ (model.O.sum(0) * model.D.sum(0) * model.T.sum(0))
    diag = model.weights @ ((model.O * model.D).sum(0) * model.T.sum(0))
    return float(full - diag)


def log_likelihood(tensor: MigrationTensor, model: FactorModel, *, scratch=None) -> float:
    """Poisson log-likelihood up to the constant log(A!) term.

    Returns -inf (rather than raising) when the model assigns rate zero to
    a cell with observed counts. ``scratch``, two float64 arrays of shape
    (nnz, K), is overwritten; without it the call allocates its own.
    """
    if model.dims != tensor.dims:
        raise ValueError(f"model dims {model.dims} != tensor dims {tensor.dims}")
    mass = _reconstructed_mass(model)
    if tensor.nnz == 0:
        return -mass
    rates = _rates(model, tensor, _scratch(tensor, model, scratch))
    if (rates <= 0).any():
        return float("-inf")
    return float(tensor.counts @ np.log(rates) - mass)


def _unnormalized(model: FactorModel, mode: str) -> np.ndarray:
    """The given mode's factor matrix with the weights absorbed into it."""
    if mode == "origin":
        return model.O * model.weights
    if mode == "destination":
        return model.D * model.weights
    if mode == "time":
        return model.T * model.weights
    raise ValueError(f"unknown mode {mode!r}")


def mode_update(tensor: MigrationTensor, model: FactorModel, mode: str,
                prior_shape: float = 1.0, prior_rate: float = 0.0, *, scratch=None) -> FactorModel:
    """One multiplicative update of a single factor matrix.

    Absorbs the weights into the updated mode, applies the Poisson
    multiplicative rule over the nonzero entries (cost O(nnz * K)), then
    renormalizes that matrix's columns back into (factors, weights). The
    other two matrices pass through untouched. Denominators subtract the
    structurally-absent diagonal's contribution.

    The numerator ``sum over nonzeros of contrib * count / rate`` is
    scattered into its rows with one ``np.bincount`` per column, which
    adds the terms of each cell in nnz order exactly as ``np.add.at``
    would, so the result is bit-identical to that formulation.
    ``scratch``, two float64 arrays of shape (nnz, K), is overwritten;
    without it the call allocates its own.
    """
    if model.dims != tensor.dims:
        raise ValueError(f"model dims {model.dims} != tensor dims {tensor.dims}")
    a, b = prior_shape, prior_rate
    ii, jj, tt = _index_columns(tensor)
    contrib, work = _scratch(tensor, model, scratch)
    W = _unnormalized(model, mode)
    sum_T = model.T.sum(0)

    # contrib is the product of the other two modes' rows: D[jj] * T[tt] etc.
    if mode == "origin":
        rows, (P, p), (Q, q) = ii, (model.D, jj), (model.T, tt)
        denom = b + model.D.sum(0) * sum_T - model.D * sum_T
    elif mode == "destination":
        rows, (P, p), (Q, q) = jj, (model.O, ii), (model.T, tt)
        denom = b + model.O.sum(0) * sum_T - model.O * sum_T
    else:
        rows, (P, p), (Q, q) = tt, (model.O, ii), (model.D, jj)
        denom = b + np.broadcast_to(
            model.O.sum(0) * model.D.sum(0) - (model.O * model.D).sum(0), W.shape)
    np.multiply(_gather(P, p, contrib), _gather(Q, q, work), out=contrib)
    rates = np.multiply(_gather(W, rows, work), contrib, out=work).sum(axis=1)

    num = np.zeros_like(W)
    if tensor.nnz:
        ratio = tensor.counts / np.maximum(rates, RATE_EPS)
        for k in range(model.K):
            num[:, k] = np.bincount(rows, weights=contrib[:, k] * ratio, minlength=len(num))

    W_new = ((a - 1.0) + W * num) / np.maximum(denom, RATE_EPS)

    lam_new = W_new.sum(0)
    scale = np.where(lam_new > 0, lam_new, 1.0)
    mat_new = W_new / scale
    if mode == "origin":
        return FactorModel(mat_new, model.D, model.T, lam_new)
    if mode == "destination":
        return FactorModel(model.O, mat_new, model.T, lam_new)
    return FactorModel(model.O, model.D, mat_new, lam_new)


def _restart_key(trace: FitTrace) -> tuple[bool, float]:
    """Sort key of a restart: finite final objectives first, lowest first."""
    final = trace.objectives[-1]
    return (not math.isfinite(final), final)


def fit(tensor: MigrationTensor, config: FitConfig) -> tuple[FactorModel, FitTrace]:
    """Fit the decomposition with seeded multi-restart alternating updates.

    Each restart draws a fresh random start from one seeded stream, then
    sweeps origin -> destination -> time until the relative objective
    change drops to rel_tol or max_iters is hit. A restart whose objective
    turns non-finite stops there, unconverged. The restart with the best
    final objective wins, any finite one before every non-finite one (ties
    to the earliest restart); its model comes back normalized with
    components sorted by descending weight.
    """
    N, _, M = tensor.dims
    if config.rank > min(N, M):
        warnings.warn(
            f"rank {config.rank} exceeds min tensor dim {min(N, M)}; "
            "the decomposition is overcomplete", RuntimeWarning)
    rng = np.random.default_rng(config.seed)
    scratch = _new_scratch(tensor.nnz, config.rank)
    best_model: FactorModel | None = None
    best_trace: FitTrace | None = None
    for restart in range(config.restarts):
        # sweeps are gauge-covariant, so the raw draw needs no normalizing
        # here; the winner is canonicalized exactly once on return
        model = _draw_factors(tensor.dims, config.rank, rng)
        trace = FitTrace(restart=restart)
        obj = -log_likelihood(tensor, model, scratch=scratch)
        trace.objectives.append(obj)
        rel_change = float("inf")
        for _ in range(config.max_iters):
            if not math.isfinite(obj):
                break
            if rel_change <= config.rel_tol:
                trace.converged = True
                break
            for mode in MODES:
                model = mode_update(tensor, model, mode, config.prior_shape,
                                    config.prior_rate, scratch=scratch)
            new_obj = -log_likelihood(tensor, model, scratch=scratch)
            trace.objectives.append(new_obj)
            trace.n_sweeps += 1
            rel_change = abs(obj - new_obj) / max(abs(obj), 1.0)
            obj = new_obj
        else:
            trace.converged = rel_change <= config.rel_tol
        if best_trace is None or _restart_key(trace) < _restart_key(best_trace):
            best_model, best_trace = model, trace
    return best_model.normalized().sorted_by_weight(), best_trace


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
    ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        try:
            if header[:2] != ["#", "cp"] or len(header) != 6:
                raise ValueError
            N1, N2, M, K = (int(x) for x in header[2:])
        except ValueError:
            raise InputError(f"{path}:1: malformed model header") from None
        rows = list(csv.reader(fh))
    expected = 1 + N1 + N2 + M
    if len(rows) != expected:
        raise InputError(f"{path}: expected {expected} data rows, found {len(rows)}")
    try:
        data = [np.array([float(x) for x in row]) for row in rows]
        weights = data[0]
        O = np.vstack(data[1:1 + N1])
        D = np.vstack(data[1 + N1:1 + N1 + N2])
        T = np.vstack(data[1 + N1 + N2:])
        model = FactorModel(O, D, T, weights)
        if model.K != K:
            raise ValueError(f"header rank {K} != row width {model.K}")
    except ValueError as exc:
        raise _model_error(path, rows, K, exc) from exc
    return model


def _model_error(path, rows: list[list[str]], K: int, exc: ValueError) -> InputError:
    """The first defect of a model file whose rows did not load."""
    for line, row in enumerate(rows, start=2):
        where = f"{path}:{line}"
        if len(row) != K:
            return InputError(f"{where}: expected {K} fields, got {len(row)}")
        try:
            values = [float(x) for x in row]
        except ValueError:
            return InputError(f"{where}: row {','.join(row)!r} is not {K} numbers")
        if not all(math.isfinite(x) and x >= 0 for x in values):
            return InputError(f"{where}: factor entries must be finite and non-negative")
    return InputError(f"{path}:1: {exc}")  # every row is sound, so the header is not
