"""Poisson CP solver tests: updates, likelihood, fitting and model files."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from migtensor import solver
from migtensor.solver import (
    MODES,
    FactorModel,
    FitConfig,
    fit,
    init_factors,
    load_model,
    log_likelihood,
    mode_update,
    reconstruct_entry,
    save_model,
)

from conftest import (
    dense_log_likelihood,
    make_tensor,
    random_tensor,
    reference_log_likelihood,
    reference_mode_update,
)


def random_model(rng, dims, K):
    N1, N2, M = dims
    return FactorModel(rng.uniform(0.2, 2.0, (N1, K)),
                       rng.uniform(0.2, 2.0, (N2, K)),
                       rng.uniform(0.2, 2.0, (M, K)),
                       rng.uniform(0.5, 3.0, K))


def absorbed(model, mode):
    mat = {"origin": model.O, "destination": model.D, "time": model.T}[mode]
    return mat * model.weights


def integer_model_and_dense_tensor(rng, dims, K):
    """Model with integer factors whose off-diagonal reconstruction is a
    dense positive-integer tensor (every admissible cell in nnz)."""
    N1, N2, M = dims
    model = FactorModel(rng.integers(1, 4, (N1, K)).astype(float),
                        rng.integers(1, 4, (N2, K)).astype(float),
                        rng.integers(1, 4, (M, K)).astype(float),
                        np.ones(K))
    cells = {}
    for i in range(N1):
        for j in range(N2):
            if i == j:
                continue
            for t in range(M):
                cells[(i, j, t)] = int(round(reconstruct_entry(model, i, j, t)))
    return model, make_tensor(dims, cells)


class TestInitFactors:
    def test_same_seed_identical(self):
        cfg = FitConfig(rank=3, seed=42)
        a = init_factors((5, 5, 7), cfg)
        b = init_factors((5, 5, 7), cfg)
        assert (a.O == b.O).all() and (a.D == b.D).all() and (a.T == b.T).all()
        assert (a.weights == b.weights).all()

    def test_adjacent_seeds_differ(self):
        a = init_factors((5, 5, 7), FitConfig(rank=3, seed=0))
        b = init_factors((5, 5, 7), FitConfig(rank=3, seed=1))
        assert (a.O != b.O).any()

    def test_shapes(self):
        m = init_factors((3, 3, 4), FitConfig(rank=2))
        assert m.O.shape == (3, 2) and m.D.shape == (3, 2) and m.T.shape == (4, 2)
        assert m.weights.tolist() == [1.0, 1.0]

    def test_entries_in_open_interval(self):
        m = init_factors((10, 10, 10), FitConfig(rank=4, seed=9))
        for mat in (m.O, m.D, m.T):
            assert (mat > 0.1).all() and (mat < 1.1).all()


class TestReconstructEntry:
    def test_rank_one_closed_form(self):
        model = FactorModel(np.full((2, 1), 0.5), np.full((2, 1), 0.5),
                            np.full((3, 1), 0.5), np.array([2.0]))
        assert reconstruct_entry(model, 0, 1, 2) == pytest.approx(0.25, abs=1e-15)

    def test_zero_origin_row_annihilates(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, (4, 4, 5), 3)
        model.O[2] = 0.0
        for j in (0, 1, 3):
            for t in range(5):
                assert reconstruct_entry(model, 2, j, t) == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, (6, 6, 8), 3)
        for _ in range(10):
            i, j, t = rng.integers(0, 6), rng.integers(0, 6), rng.integers(0, 8)
            expected = math.fsum(
                model.weights[k] * model.O[i, k] * model.D[j, k] * model.T[t, k]
                for k in range(3))
            assert reconstruct_entry(model, i, j, t) == pytest.approx(expected, rel=1e-12)


class TestLogLikelihood:
    def test_unit_cell_closed_form(self):
        # one admissible cell carries rate 1 and count 1, total mass 1
        model = FactorModel(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                            np.array([[1.0]]), np.array([1.0]))
        tensor = make_tensor((2, 2, 1), {(0, 1, 0): 1})
        assert log_likelihood(tensor, model) == pytest.approx(-1.0, abs=1e-15)

    def test_empty_tensor_is_negative_mass(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, (5, 5, 6), 2)
        tensor = make_tensor((5, 5, 6), {})
        mass = math.fsum(
            reconstruct_entry(model, i, j, t)
            for i in range(5) for j in range(5) if i != j for t in range(6))
        assert log_likelihood(tensor, model) == pytest.approx(-mass, rel=1e-12)

    def test_zero_rate_at_positive_count_is_neg_inf(self):
        model = FactorModel(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]]),
                            np.ones((3, 1)), np.array([1.0]))
        tensor = make_tensor((2, 2, 3), {(0, 1, 1): 2})
        assert log_likelihood(tensor, model) == float("-inf")

    def test_matches_dense_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            tensor = random_tensor(rng, (5, 5, 4), 30)
            model = random_model(rng, (5, 5, 4), 3)
            assert log_likelihood(tensor, model) == pytest.approx(
                dense_log_likelihood(tensor, model), rel=1e-9)

    def test_shape_mismatch_fatal(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, (4, 4, 5), 2)
        with pytest.raises(ValueError):
            log_likelihood(make_tensor((5, 5, 5), {}), model)


class TestModeUpdate:
    def test_exact_reconstruction_is_fixed_point(self):
        rng = np.random.default_rng(11)
        model, tensor = integer_model_and_dense_tensor(rng, (4, 4, 3), 2)
        for mode in MODES:
            updated = mode_update(tensor, model, mode)
            np.testing.assert_allclose(absorbed(updated, mode), absorbed(model, mode),
                                       rtol=1e-12, atol=1e-12)

    def test_other_modes_pass_through_untouched(self):
        rng = np.random.default_rng(12)
        tensor = random_tensor(rng, (4, 4, 3), 20)
        model = random_model(rng, (4, 4, 3), 2)
        updated = mode_update(tensor, model, "origin")
        assert (updated.D == model.D).all() and (updated.T == model.T).all()

    def test_zero_column_is_absorbing(self):
        rng = np.random.default_rng(13)
        tensor = random_tensor(rng, (4, 4, 3), 15)
        model = random_model(rng, (4, 4, 3), 3)
        model.O[:, 1] = 0.0
        for mode in MODES:
            model = mode_update(tensor, model, mode)
        assert (absorbed(model, "origin")[:, 1] == 0.0).all()

    def test_objective_never_decreases_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            tensor = random_tensor(rng, (4, 4, 5), 25)
            model = random_model(rng, (4, 4, 5), 3)
            before = log_likelihood(tensor, model)
            for mode in MODES:
                model = mode_update(tensor, model, mode)
                after = log_likelihood(tensor, model)
                assert after >= before - 1e-9
                before = after

    def test_gamma_prior_pulls_toward_prior_mode(self):
        # strong prior with b >> data scale shrinks the factor mass
        rng = np.random.default_rng(15)
        tensor = random_tensor(rng, (4, 4, 3), 10)
        model = random_model(rng, (4, 4, 3), 2)
        plain = mode_update(tensor, model, "origin")
        shrunk = mode_update(tensor, model, "origin", prior_shape=1.0, prior_rate=50.0)
        assert shrunk.weights.sum() < plain.weights.sum()

    def test_non_negativity_preserved(self):
        rng = np.random.default_rng(16)
        tensor = random_tensor(rng, (5, 5, 4), 30)
        model = random_model(rng, (5, 5, 4), 3)
        for sweep in range(5):
            for mode in MODES:
                model = mode_update(tensor, model, mode, prior_shape=1.2, prior_rate=0.5)
        for arr in (model.O, model.D, model.T, model.weights):
            assert (arr >= 0).all()

    def test_unknown_mode(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError):
            mode_update(make_tensor((3, 3, 2), {}), random_model(rng, (3, 3, 2), 1), "depth")


@st.composite
def kernel_problems(draw):
    """A small tensor (possibly empty, usually with countries and months
    that have no entries), a non-negative model and a (shape, rate) prior."""
    N = draw(st.integers(2, 6))
    M = draw(st.integers(1, 5))
    K = draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), st.integers(0, M - 1))
    cells = draw(st.dictionaries(cell.filter(lambda c: c[0] != c[1]),
                                 st.integers(1, 50), max_size=30))
    entries = st.floats(0.0, 4.0)
    model = FactorModel(draw(arrays(np.float64, (N, K), elements=entries)),
                        draw(arrays(np.float64, (N, K), elements=entries)),
                        draw(arrays(np.float64, (M, K), elements=entries)),
                        draw(arrays(np.float64, K, elements=entries)))
    prior = draw(st.one_of(st.just((1.0, 0.0)),
                           st.tuples(st.floats(1.0, 3.0), st.floats(0.0, 2.0))))
    return make_tensor((N, N, M), cells), model, prior


def _ones_model(dims, K):
    N1, N2, M = dims
    return FactorModel(np.ones((N1, K)), np.ones((N2, K)), np.ones((M, K)), np.ones(K))


# nnz == 0 at rank 1, and country 3 and months 0 and 2 without entries
EMPTY_RANK_ONE = (make_tensor((3, 3, 2), {}), _ones_model((3, 3, 2), 1), (1.0, 0.0))
SPARSE_GAMMA = (make_tensor((4, 4, 3), {(0, 1, 1): 4, (2, 0, 1): 1, (1, 2, 1): 7}),
                _ones_model((4, 4, 3), 2), (1.5, 0.3))


def assert_same_bits(got: FactorModel, expected: FactorModel):
    for x, y in zip((got.O, got.D, got.T, got.weights),
                    (expected.O, expected.D, expected.T, expected.weights)):
        assert x.shape == y.shape
        assert np.array_equal(x, y)
        assert x.tobytes() == y.tobytes()


def nan_scratch(nnz, K):
    """Scratch arrays full of NaN: a kernel must overwrite what it reads."""
    return np.full((nnz, K), np.nan), np.full((nnz, K), np.nan)


class TestKernelsMatchReference:
    """The tuned kernels return exactly the bits of the plain formulation."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_problems(), st.sampled_from(MODES))
    @example(EMPTY_RANK_ONE, "origin")
    @example(SPARSE_GAMMA, "destination")
    @example(SPARSE_GAMMA, "time")
    def test_mode_update(self, problem, mode):
        tensor, model, (a, b) = problem
        expected = reference_mode_update(tensor, model, mode, a, b)
        assert_same_bits(mode_update(tensor, model, mode, a, b), expected)
        scratch = nan_scratch(tensor.nnz, model.K)
        assert_same_bits(mode_update(tensor, model, mode, a, b, scratch=scratch), expected)

    @settings(max_examples=150, deadline=None)
    @given(kernel_problems())
    @example(EMPTY_RANK_ONE)
    @example(SPARSE_GAMMA)
    def test_log_likelihood(self, problem):
        tensor, model, _ = problem
        expected = reference_log_likelihood(tensor, model)
        assert log_likelihood(tensor, model) == expected
        scratch = nan_scratch(tensor.nnz, model.K)
        assert log_likelihood(tensor, model, scratch=scratch) == expected

    def test_sweeps_of_a_fit_match_reference(self):
        rng = np.random.default_rng(31)
        tensor = random_tensor(rng, (7, 7, 6), 80)
        model = expected = init_factors(tensor.dims, FitConfig(rank=3, seed=2))
        scratch = nan_scratch(tensor.nnz, model.K)
        for _ in range(5):
            for mode in MODES:
                model = mode_update(tensor, model, mode, 1.0, 0.1, scratch=scratch)
                expected = reference_mode_update(tensor, expected, mode, 1.0, 0.1)
                assert_same_bits(model, expected)

    def test_scratch_of_wrong_shape_rejected(self):
        rng = np.random.default_rng(32)
        tensor = random_tensor(rng, (4, 4, 3), 10)
        model = random_model(rng, tensor.dims, 2)
        with pytest.raises(ValueError, match="scratch"):
            mode_update(tensor, model, "origin", scratch=nan_scratch(tensor.nnz, 3))
        with pytest.raises(ValueError, match="scratch"):
            log_likelihood(tensor, model, scratch=nan_scratch(tensor.nnz + 1, 2))
        fortran = tuple(np.asfortranarray(buf) for buf in nan_scratch(tensor.nnz, 2))
        with pytest.raises(ValueError, match="scratch"):
            mode_update(tensor, model, "time", scratch=fortran)


class TestFit:
    def test_recovers_noiseless_rank_one(self):
        rng = np.random.default_rng(21)
        planted, tensor = integer_model_and_dense_tensor(rng, (5, 5, 4), 1)
        cfg = FitConfig(rank=1, max_iters=500, rel_tol=1e-12, seed=0, restarts=3)
        model, trace = fit(tensor, cfg)
        for (i, j, t), c in zip(tensor.coords.tolist(), tensor.counts):
            rate = reconstruct_entry(model, i, j, t)
            assert abs(rate - c) <= 0.01 * c

    def test_infinite_rel_tol_returns_normalized_init(self):
        rng = np.random.default_rng(22)
        tensor = random_tensor(rng, (5, 5, 6), 20)
        cfg = FitConfig(rank=3, rel_tol=float("inf"), seed=5, restarts=1)
        model, trace = fit(tensor, cfg)
        assert trace.n_sweeps == 0
        assert trace.converged
        assert len(trace.objectives) == 1
        expected = init_factors((5, 5, 6), cfg).normalized().sorted_by_weight()
        assert (model.O == expected.O).all()
        assert (model.D == expected.D).all()
        assert (model.T == expected.T).all()
        assert (model.weights == expected.weights).all()

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(23)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        cfg = FitConfig(rank=2, max_iters=60, seed=3, restarts=4)
        model_a, trace_a = fit(tensor, cfg)
        model_b, trace_b = fit(tensor, cfg)
        assert trace_a.objectives == trace_b.objectives
        assert trace_a.restart == trace_b.restart
        assert (model_a.O == model_b.O).all()
        assert (model_a.weights == model_b.weights).all()

    def test_output_is_normalized_and_sorted(self):
        rng = np.random.default_rng(24)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        model, _ = fit(tensor, FitConfig(rank=3, max_iters=40, restarts=2))
        for mat in (model.O, model.D, model.T):
            sums = mat.sum(axis=0)
            np.testing.assert_allclose(sums[model.weights > 0], 1.0, rtol=1e-9)
        assert (np.diff(model.weights) <= 1e-15).all()

    def test_objectives_non_increasing(self):
        rng = np.random.default_rng(25)
        tensor = random_tensor(rng, (7, 7, 6), 60)
        _, trace = fit(tensor, FitConfig(rank=4, max_iters=80, restarts=1, seed=1))
        diffs = np.diff(trace.objectives)
        assert (diffs <= 1e-9).all()

    def test_overcomplete_rank_warns(self):
        rng = np.random.default_rng(26)
        tensor = random_tensor(rng, (3, 3, 3), 6)
        with pytest.warns(RuntimeWarning):
            fit(tensor, FitConfig(rank=5, max_iters=5, restarts=1))

    def test_best_restart_wins(self):
        rng = np.random.default_rng(27)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        cfg = FitConfig(rank=2, max_iters=30, seed=9, restarts=5)
        _, trace = fit(tensor, cfg)
        assert 0 <= trace.restart < 5

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_restart_stops_and_loses(self, monkeypatch, bad):
        rng = np.random.default_rng(28)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        real = solver.log_likelihood
        calls = []

        def spoiled(tensor, model, **kwargs):
            calls.append(model)
            # restart 0: initial objective, then a non-finite one after sweep 2
            return bad if len(calls) == 3 else real(tensor, model, **kwargs)

        monkeypatch.setattr(solver, "log_likelihood", spoiled)
        cfg = FitConfig(rank=2, max_iters=30, rel_tol=1e-12, seed=9, restarts=2)
        _, trace = fit(tensor, cfg)
        assert trace.restart == 1
        assert math.isfinite(trace.objectives[-1])
        # restart 0 made 3 calls (start + 2 sweeps); restart 1 ran its 30 sweeps
        assert len(calls) == 3 + 1 + 30

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_objective_ends_restart_unconverged(self, monkeypatch, bad):
        rng = np.random.default_rng(29)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        real = solver.log_likelihood
        calls = []

        def spoiled(tensor, model, **kwargs):
            calls.append(model)
            return bad if len(calls) == 2 else real(tensor, model, **kwargs)

        monkeypatch.setattr(solver, "log_likelihood", spoiled)
        _, trace = fit(tensor, FitConfig(rank=2, max_iters=50, seed=4, restarts=1))
        assert trace.n_sweeps == 1
        assert not trace.converged
        assert len(trace.objectives) == 2 and not math.isfinite(trace.objectives[-1])
        assert len(calls) == 2

    def test_all_restarts_non_finite_earliest_wins(self, monkeypatch):
        rng = np.random.default_rng(30)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        monkeypatch.setattr(solver, "log_likelihood", lambda *args, **kwargs: float("nan"))
        _, trace = fit(tensor, FitConfig(rank=2, max_iters=50, seed=4, restarts=3))
        assert trace.restart == 0
        assert trace.n_sweeps == 0
        assert not trace.converged


class TestGauge:
    def test_scale_indifference(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, (5, 5, 4), 3)
        scaled = model.copy()
        scaled.O[:, 1] *= 10.0
        scaled.weights[1] /= 10.0
        for _ in range(20):
            i, j, t = rng.integers(0, 5), rng.integers(0, 5), rng.integers(0, 4)
            assert reconstruct_entry(scaled, i, j, t) == pytest.approx(
                reconstruct_entry(model, i, j, t), rel=1e-12)

    def test_normalized_preserves_reconstruction(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, (5, 5, 4), 3)
        norm = model.normalized()
        for mat in (norm.O, norm.D, norm.T):
            np.testing.assert_allclose(mat.sum(axis=0), 1.0, rtol=1e-12)
        for _ in range(10):
            i, j, t = rng.integers(0, 5), rng.integers(0, 5), rng.integers(0, 4)
            assert reconstruct_entry(norm, i, j, t) == pytest.approx(
                reconstruct_entry(model, i, j, t), rel=1e-12)


class TestModelValidationAndConfig:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            FactorModel(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]), np.array([1.0]))

    def test_rank_disagreement_rejected(self):
        with pytest.raises(ValueError):
            FactorModel(np.ones((3, 2)), np.ones((3, 3)),
                        np.ones((4, 2)), np.ones(2))

    def test_config_validation(self):
        for kwargs in ({"rank": 0}, {"max_iters": 0}, {"restarts": 0},
                       {"rel_tol": 0.0}, {"prior_shape": 0.5}, {"prior_rate": -1.0}):
            with pytest.raises(ValueError):
                FitConfig(**kwargs)


class TestModelFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        model = random_model(rng, (6, 6, 7), 4)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.O == model.O).all()
        assert (loaded.D == model.D).all()
        assert (loaded.T == model.T).all()
        assert (loaded.weights == model.weights).all()

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(42)
        model = random_model(rng, (4, 4, 3), 2)
        save_model(model, tmp_path / "a.txt")
        save_model(model, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_header_layout(self, tmp_path):
        model = FactorModel(np.ones((2, 1)), np.ones((2, 1)),
                            np.ones((3, 1)), np.array([2.0]))
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# cp 2 2 3 1"
        assert len(lines) == 1 + 1 + 2 + 2 + 3

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("# cp 2 2 3 1\n1.0\n")
        from migtensor.events import InputError
        with pytest.raises(InputError):
            load_model(path)

    # (line replaced, its new text, line the error names, message); the
    # rank-3 header disagrees with every rank-2 row, so the first row is named
    @pytest.mark.parametrize("line, text, bad_line, message", [
        (1, "# cp 2 2 3 x", 1, "malformed model header"),
        (3, "x,0.5", 3, "row 'x,0.5' is not 2 numbers"),
        (3, "0.5", 3, "expected 2 fields, got 1"),
        (3, "0.5,0.5,0.5", 3, "expected 2 fields, got 3"),
        (2, "1.0", 2, "expected 2 fields, got 1"),
        (3, "-0.5,0.5", 3, "factor entries must be finite and non-negative"),
        (9, "0.5,nan", 9, "factor entries must be finite and non-negative"),
        (5, "inf,0.5", 5, "factor entries must be finite and non-negative"),
        (1, "# cp 2 2 3 3", 2, "expected 3 fields, got 2"),
    ])
    def test_malformed_line_names_path_and_line(self, tmp_path, line, text, bad_line, message):
        from migtensor.events import InputError
        model = FactorModel(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2)), np.ones(2))
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError) as err:
            load_model(path)
        assert str(err.value) == f"{path}:{bad_line}: {message}"
