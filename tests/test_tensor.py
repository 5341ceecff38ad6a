"""Sparse count tensor construction and file format tests."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from migtensor.events import InputError
from migtensor.tensor import (
    MigrationTensor,
    build_tensor,
    load_tensor,
    save_tensor,
)

from conftest import dense, make_tensor, random_tensor


def random_moves(rng, N, M, n_moves):
    """``(n_moves, 4)`` migration rows (user row, month, origin, destination)."""
    moves = []
    for e in range(n_moves):
        i = int(rng.integers(0, N))
        j = int(rng.integers(0, N - 1))
        if j >= i:
            j += 1
        moves.append((e, int(rng.integers(0, M)), i, j))
    return np.array(moves, dtype=np.int64)


class TestBuildTensor:
    def test_same_triple_aggregates(self, registry):
        fr, es = registry.index["FR"], registry.index["ES"]
        moves = np.array([[0, 2, fr, es], [1, 2, fr, es]], dtype=np.int64)
        t = build_tensor(moves, registry, 5)
        assert t.dims == (6, 6, 5)
        assert t.coords.tolist() == [[fr, es, 2]]
        assert t.counts.tolist() == [2]
        assert t.total == 2

    def test_empty_event_list(self, registry):
        t = build_tensor(np.empty((0, 4), dtype=np.int64), registry, 7)
        assert t.dims == (6, 6, 7)
        assert t.nnz == 0 and t.total == 0
        assert dense(t).sum() == 0

    def test_counts_match_hash_map_tally(self, registry):
        rng = np.random.default_rng(3)
        moves = random_moves(rng, len(registry), 12, 1000)
        t = build_tensor(moves, registry, 12)
        tally = Counter((o, d, m) for _, m, o, d in moves.tolist())
        got = {tuple(c): int(n) for c, n in zip(t.coords.tolist(), t.counts)}
        assert got == dict(tally)
        assert t.total == 1000

    def test_permutation_invariant(self, registry):
        rng = np.random.default_rng(5)
        moves = random_moves(rng, len(registry), 10, 300)
        shuffled = rng.permutation(moves)
        assert build_tensor(moves, registry, 10) == build_tensor(shuffled, registry, 10)

    def test_sorted_storage(self, registry):
        rng = np.random.default_rng(8)
        t = build_tensor(random_moves(rng, len(registry), 9, 400), registry, 9)
        as_tuples = [tuple(c) for c in t.coords.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_month_out_of_range_fatal(self, registry):
        with pytest.raises(ValueError):
            build_tensor(np.array([[0, 5, 0, 1]], dtype=np.int64), registry, 5)


class TestMigrationTensorInvariants:
    def test_diagonal_rejected(self):
        with pytest.raises(ValueError):
            MigrationTensor((3, 3, 2), [[1, 1, 0]], [4])

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            MigrationTensor((3, 3, 2), [[0, 1, 0]], [0])
        with pytest.raises(ValueError):
            MigrationTensor((3, 3, 2), [[0, 1, 0]], [-2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MigrationTensor((3, 3, 2), [[0, 3, 0]], [1])
        with pytest.raises(ValueError):
            MigrationTensor((3, 3, 2), [[0, 1, 2]], [1])

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError):
            MigrationTensor((3, 3, 2), [[0, 1, 0], [0, 1, 0]], [1, 1])

    def test_rectangular_origin_destination_rejected(self):
        with pytest.raises(ValueError):
            MigrationTensor((3, 4, 2), np.zeros((0, 3)), [])

    def test_entries_are_read_only(self):
        t = make_tensor((3, 3, 2), {(0, 1, 0): 4})
        with pytest.raises(ValueError):
            t.coords[0, 0] = 2

    def test_unsorted_input_is_sorted(self):
        t = MigrationTensor((3, 3, 2), [[2, 0, 1], [0, 1, 0]], [5, 7])
        assert t.coords.tolist() == [[0, 1, 0], [2, 0, 1]]
        assert t.counts.tolist() == [7, 5]


class TestTensorFile:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(23)
        t = random_tensor(rng, (9, 9, 7), 150)
        path = tmp_path / "tensor.txt"
        save_tensor(t, path)
        assert load_tensor(path) == t

    def test_file_layout(self, tmp_path):
        t = make_tensor((3, 3, 4), {(0, 1, 2): 1, (2, 0, 3): 9})
        path = tmp_path / "tensor.txt"
        save_tensor(t, path)
        assert path.read_text() == "# dims 3 3 4\n0 1 2 1\n2 0 3 9\n"

    def test_empty_round_trip(self, tmp_path):
        t = make_tensor((4, 4, 2), {})
        path = tmp_path / "tensor.txt"
        save_tensor(t, path)
        loaded = load_tensor(path)
        assert loaded == t and loaded.nnz == 0

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "tensor.txt"
        path.write_text("# wrong 3 3 4\n")
        with pytest.raises(InputError):
            load_tensor(path)

    @pytest.mark.parametrize("header, message", [
        ("# dims 3 3 x", "malformed tensor header"),
        ("# dims 3 4 4", "origin/destination dims must match, got (3, 4, 4)"),
    ])
    def test_bad_dims_name_line_1(self, tmp_path, header, message):
        path = tmp_path / "tensor.txt"
        path.write_text(header + "\n0 1 2 1\n")
        with pytest.raises(InputError) as err:
            load_tensor(path)
        assert str(err.value) == f"{path}:1: {message}"

    @pytest.mark.parametrize("row, message", [
        ("0 1 x 1", "entry '0 1 x 1' is not four integers"),
        ("0 1 2.5 1", "entry '0 1 2.5 1' is not four integers"),
        ("0 1 2 1_0", "entry '0 1 2 1_0' is not four integers"),
        ("2 0 3 1 # note", "expected 4 fields, got 6"),
        ("0 1 2", "expected 4 fields, got 3"),
        ("0 1 4 1", "entry (0, 1, 4) out of range for dims (3, 3, 4)"),
        ("-1 1 2 1", "entry (-1, 1, 2) out of range for dims (3, 3, 4)"),
        ("1 1 2 1", "diagonal entry (origin == destination == 1)"),
        ("0 1 2 5", "duplicate entry (0, 1, 2)"),
        ("2 0 3 0", "count 0 is not a positive 64-bit integer"),
        ("2 0 3 -4", "count -4 is not a positive 64-bit integer"),
        ("2 0 3 9223372036854775808", "count 9223372036854775808 is not a positive 64-bit integer"),
    ])
    def test_malformed_entry_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "tensor.txt"
        path.write_text("# dims 3 3 4\n0 1 2 1\n" + row + "\n2 1 0 1\n")
        with pytest.raises(InputError) as err:
            load_tensor(path)
        assert str(err.value) == f"{path}:3: {message}"

    def test_uniformly_short_rows_are_not_regrouped(self, tmp_path):
        # four 3-field rows hold 12 integers, which would reshape to 3 entries
        path = tmp_path / "tensor.txt"
        path.write_text("# dims 3 3 4\n0 1 2\n1 0 2\n0 2 1\n2 0 1\n")
        with pytest.raises(InputError) as err:
            load_tensor(path)
        assert str(err.value) == f"{path}:2: expected 4 fields, got 3"
