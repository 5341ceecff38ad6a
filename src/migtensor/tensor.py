"""Sparse origin x destination x month migration count tensor.

Counts are stored as a coordinate list sorted by (origin, destination,
month). The diagonal (origin == destination) is structurally excluded: a
migration has distinct endpoints, so those cells exist neither in storage
nor in the model's likelihood.
"""

from __future__ import annotations

import io
import re
from typing import Iterable

import numpy as np

from .events import InputError, open_text
from .ingestion import CountryRegistry
from .residence import MigrationEvent


class MigrationTensor:
    """Immutable sparse 3-way count tensor of shape (N, N, M)."""

    def __init__(self, dims: tuple[int, int, int], coords: np.ndarray, counts: np.ndarray):
        N1, N2, M = dims
        if N1 != N2:
            raise ValueError(f"origin/destination dims must match, got {dims}")
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if coords.shape[0] != counts.shape[0]:
            raise ValueError("coords and counts length mismatch")
        if coords.size:
            if coords.min() < 0 or (coords.max(axis=0) >= np.array(dims)).any():
                raise ValueError("tensor entry index out of range")
            if (coords[:, 0] == coords[:, 1]).any():
                raise ValueError("diagonal entries (origin == destination) are not allowed")
            if (counts <= 0).any():
                raise ValueError("tensor counts must be positive")
        order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
        coords = coords[order]
        counts = counts[order]
        if coords.shape[0] > 1 and (np.diff(coords, axis=0) == 0).all(axis=1).any():
            raise ValueError("duplicate coordinates in tensor entries")
        self.dims = (int(N1), int(N2), int(M))
        self.coords = coords
        self.counts = counts
        self.coords.setflags(write=False)
        self.counts.setflags(write=False)

    @property
    def nnz(self) -> int:
        return int(self.counts.shape[0])

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MigrationTensor)
            and self.dims == other.dims
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.counts, other.counts)
        )


def build_tensor(events: Iterable[MigrationEvent], registry: CountryRegistry, months: int) -> MigrationTensor:
    """Aggregate migration events into the sparse count tensor.

    Each event contributes one count to its (origin, destination, month)
    cell; the result is independent of event order.
    """
    N = len(registry)
    triples = np.array([(ev.origin, ev.destination, ev.month) for ev in events],
                       dtype=np.int64).reshape(-1, 3)
    if triples.size:
        if triples.min() < 0 or triples[:, :2].max() >= N or triples[:, 2].max() >= months:
            raise ValueError("migration event index out of range for tensor dims")
        coords, counts = np.unique(triples, axis=0, return_counts=True)
    else:
        coords = np.zeros((0, 3), dtype=np.int64)
        counts = np.zeros(0, dtype=np.int64)
    return MigrationTensor((N, N, months), coords, counts)


def save_tensor(tensor: MigrationTensor, path) -> None:
    """Write ``# dims N N M`` then sorted ``i j t c`` integer lines."""
    N1, N2, M = tensor.dims
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# dims {N1} {N2} {M}\n")
        for (i, j, t), c in zip(tensor.coords, tensor.counts):
            fh.write(f"{i} {j} {t} {c}\n")


def load_tensor(path) -> MigrationTensor:
    """Read a tensor written by :func:`save_tensor`.

    A malformed header or entry raises :class:`InputError` naming its
    ``path:line``.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    try:
        if header[:2] != ["#", "dims"] or len(header) != 5:
            raise ValueError
        dims = tuple(int(x) for x in header[2:])
    except ValueError:
        raise InputError(f"{path}:1: malformed tensor header") from None
    try:
        # np.loadtxt parses in C, without a Python object per entry
        data = (np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
                if body.strip() else np.zeros((0, 4), dtype=np.int64))
        if data.shape[1] != 4:
            raise ValueError(f"entries have {data.shape[1]} fields")
        return MigrationTensor(dims, data[:, :3], data[:, 3])
    except ValueError as exc:
        raise _entry_error(path, dims, body, exc) from exc


# an entry field np.loadtxt reads as an int64, given that it fits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _entry_error(path, dims: tuple[int, int, int], body: str, exc: ValueError) -> InputError:
    """The first defect of a tensor file whose entries did not load."""
    seen = set()
    for line, text in enumerate(body.split("\n"), start=2):
        parts = text.split()
        if not parts:
            continue
        where = f"{path}:{line}"
        if len(parts) != 4:
            return InputError(f"{where}: expected 4 fields, got {len(parts)}")
        if not all(_INTEGER.fullmatch(x) for x in parts):
            return InputError(f"{where}: entry {text.strip()!r} is not four integers")
        i, j, t, c = (int(x) for x in parts)
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= t < dims[2]):
            return InputError(f"{where}: entry ({i}, {j}, {t}) out of range for dims {dims}")
        if i == j:
            return InputError(f"{where}: diagonal entry (origin == destination == {i})")
        if not 0 < c < 2**63:
            return InputError(f"{where}: count {c} is not a positive 64-bit integer")
        if (i, j, t) in seen:
            return InputError(f"{where}: duplicate entry ({i}, {j}, {t})")
        seen.add((i, j, t))
    return InputError(f"{path}:1: {exc}")  # every entry is sound, so the dims are not
