"""Sparse origin x destination x month migration count tensor.

Counts are stored as a coordinate list sorted by (origin, destination,
month). The diagonal (origin == destination) is structurally excluded: a
migration has distinct endpoints, so those cells exist neither in storage
nor in the model's likelihood. :func:`build_tensor` counts the ``(n, 4)``
migration rows that detection returns.
"""

from __future__ import annotations

import io
import re

import numpy as np

from .events import InputError, line_error, open_text, read_header
from .ingestion import CountryRegistry


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


def build_tensor(moves: np.ndarray, registry: CountryRegistry, months: int) -> MigrationTensor:
    """Aggregate migrations, ``(n, 4)`` rows of (user row, month, origin,
    destination), into the sparse count tensor.

    Each row contributes one count to its (origin, destination, month)
    cell; the result is independent of row order.
    """
    N = len(registry)
    if not moves.size:
        return MigrationTensor((N, N, months), np.zeros((0, 3)), np.zeros(0))
    coords, counts = np.unique(moves[:, [2, 3, 1]], axis=0, return_counts=True)
    return MigrationTensor((N, N, months), coords, counts)


def save_tensor(tensor: MigrationTensor, path) -> None:
    """Write ``# dims N N M`` then sorted ``i j t c`` integer lines."""
    N1, N2, M = tensor.dims
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack((tensor.coords, tensor.counts)), fmt="%d",
                   header=f"dims {N1} {N2} {M}", comments="# ")


def load_tensor(path) -> MigrationTensor:
    """Read a tensor written by :func:`save_tensor`.

    A malformed header or entry raises :class:`InputError` naming its
    ``path:line``.
    """
    with open_text(path) as fh:
        dims = read_header(fh, path, "dims", 3, "tensor")
        body = fh.read()
    try:
        # np.loadtxt parses in C, without a Python object per entry
        data = (np.loadtxt(io.StringIO(body), dtype=np.int64, comments=None, ndmin=2)
                if body.strip() else np.zeros((0, 4), dtype=np.int64))
        if data.shape[1] != 4:
            raise ValueError(f"entries have {data.shape[1]} fields")
        return MigrationTensor(dims, data[:, :3], data[:, 3])
    except ValueError as exc:
        raise _entry_error(path, dims, body, exc) from exc


# an entry field np.loadtxt may read as an int64: at most 19 digits, which
# also keeps int() short of its digit limit
_INTEGER = re.compile(r"[+-]?[0-9]{1,19}")


def _entry_error(path, dims: tuple[int, int, int], body: str, exc: ValueError) -> InputError:
    """The first defect of a tensor file whose entries did not load."""
    seen = set()
    for line, text in enumerate(body.split("\n"), start=2):
        parts = text.split()
        if not parts:
            continue
        if len(parts) != 4:
            return line_error(path, line, f"expected 4 fields, got {len(parts)}")
        if not all(_INTEGER.fullmatch(x) for x in parts):
            return line_error(path, line, f"entry {text.strip()!r} is not four integers")
        i, j, t, c = (int(x) for x in parts)
        if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= t < dims[2]):
            return line_error(path, line, f"entry ({i}, {j}, {t}) out of range for dims {dims}")
        if i == j:
            return line_error(path, line, f"diagonal entry (origin == destination == {i})")
        if not 0 < c < 2**63:
            return line_error(path, line, f"count {c} is not a positive 64-bit integer")
        if (i, j, t) in seen:
            return line_error(path, line, f"duplicate entry ({i}, {j}, {t})")
        seen.add((i, j, t))
    return line_error(path, 1, str(exc))  # every entry is sound, so the dims are not
