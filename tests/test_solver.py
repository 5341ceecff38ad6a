"""Poisson CP solver tests: updates, likelihood, fitting and model files."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from migtensor import solver, workers
from migtensor.solver import FactorModel, FitConfig, fit, load_model, save_model

from conftest import (
    MODES,
    assert_nothing_left,
    dense_log_likelihood,
    forks,
    kernel_log_likelihood,
    kernel_mode_update,
    make_tensor,
    open_fds,
    random_tensor,
    reference_fit,
    reference_log_likelihood,
    reference_mode_update,
    reference_rates,
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


def rate_at(model, i, j, t) -> float:
    """Reconstructed rate at one cell: sum_k lam_k * O_ik * D_jk * T_tk."""
    return float(reference_rates(model, np.array([[i, j, t]]))[0])


def random_start(dims, rank, seed):
    """``fit``'s random start for one restart, from a fresh seeded stream."""
    return solver._draw_factors(dims, rank, np.random.default_rng(seed))


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
                cells[(i, j, t)] = int(round(rate_at(model, i, j, t)))
    return model, make_tensor(dims, cells)


class TestDrawFactors:
    def test_same_seed_identical(self):
        a = random_start((5, 5, 7), 3, 42)
        b = random_start((5, 5, 7), 3, 42)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_adjacent_seeds_differ(self):
        a = random_start((5, 5, 7), 3, 0)
        b = random_start((5, 5, 7), 3, 1)
        assert (a[0] != b[0]).any()

    def test_shapes(self):
        O, D, T = random_start((3, 3, 4), 2, 0)
        assert O.shape == (3, 2) and D.shape == (3, 2) and T.shape == (4, 2)

    def test_entries_in_open_interval(self):
        for mat in random_start((10, 10, 10), 4, 9):
            assert (mat > 0.1).all() and (mat < 1.1).all()


class TestReferenceRates:
    def test_rank_one_closed_form(self):
        model = FactorModel(np.full((2, 1), 0.5), np.full((2, 1), 0.5),
                            np.full((3, 1), 0.5), np.array([2.0]))
        assert rate_at(model, 0, 1, 2) == pytest.approx(0.25, abs=1e-15)

    def test_zero_origin_row_annihilates(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, (4, 4, 5), 3)
        model.O[2] = 0.0
        for j in (0, 1, 3):
            for t in range(5):
                assert rate_at(model, 2, j, t) == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, (6, 6, 8), 3)
        for _ in range(10):
            i, j, t = rng.integers(0, 6), rng.integers(0, 6), rng.integers(0, 8)
            expected = math.fsum(
                model.weights[k] * model.O[i, k] * model.D[j, k] * model.T[t, k]
                for k in range(3))
            assert rate_at(model, i, j, t) == pytest.approx(expected, rel=1e-12)


class TestLogLikelihood:
    def test_unit_cell_closed_form(self):
        # one admissible cell carries rate 1 and count 1, total mass 1
        model = FactorModel(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                            np.array([[1.0]]), np.array([1.0]))
        tensor = make_tensor((2, 2, 1), {(0, 1, 0): 1})
        assert kernel_log_likelihood(tensor, model) == pytest.approx(-1.0, abs=1e-15)

    def test_empty_tensor_is_negative_mass(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, (5, 5, 6), 2)
        tensor = make_tensor((5, 5, 6), {})
        mass = math.fsum(
            rate_at(model, i, j, t)
            for i in range(5) for j in range(5) if i != j for t in range(6))
        assert kernel_log_likelihood(tensor, model) == pytest.approx(-mass, rel=1e-12)

    def test_zero_rate_at_positive_count_is_neg_inf(self):
        model = FactorModel(np.array([[0.0], [1.0]]), np.array([[1.0], [1.0]]),
                            np.ones((3, 1)), np.array([1.0]))
        tensor = make_tensor((2, 2, 3), {(0, 1, 1): 2})
        assert kernel_log_likelihood(tensor, model) == float("-inf")

    def test_matches_dense_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            tensor = random_tensor(rng, (5, 5, 4), 30)
            model = random_model(rng, (5, 5, 4), 3)
            assert kernel_log_likelihood(tensor, model) == pytest.approx(
                dense_log_likelihood(tensor, model), rel=1e-9)


class TestModeUpdate:
    def test_exact_reconstruction_is_fixed_point(self):
        rng = np.random.default_rng(11)
        model, tensor = integer_model_and_dense_tensor(rng, (4, 4, 3), 2)
        for mode in MODES:
            updated = kernel_mode_update(tensor, model, mode)
            np.testing.assert_allclose(absorbed(updated, mode), absorbed(model, mode),
                                       rtol=1e-12, atol=1e-12)

    def test_other_modes_pass_through_untouched(self):
        rng = np.random.default_rng(12)
        tensor = random_tensor(rng, (4, 4, 3), 20)
        model = random_model(rng, (4, 4, 3), 2)
        updated = kernel_mode_update(tensor, model, "origin")
        assert (updated.D == model.D).all() and (updated.T == model.T).all()

    def test_zero_column_is_absorbing(self):
        rng = np.random.default_rng(13)
        tensor = random_tensor(rng, (4, 4, 3), 15)
        model = random_model(rng, (4, 4, 3), 3)
        model.O[:, 1] = 0.0
        for mode in MODES:
            model = kernel_mode_update(tensor, model, mode)
        assert (absorbed(model, "origin")[:, 1] == 0.0).all()

    def test_objective_never_decreases_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            tensor = random_tensor(rng, (4, 4, 5), 25)
            model = random_model(rng, (4, 4, 5), 3)
            before = kernel_log_likelihood(tensor, model)
            for mode in MODES:
                model = kernel_mode_update(tensor, model, mode)
                after = kernel_log_likelihood(tensor, model)
                assert after >= before - 1e-9
                before = after

    def test_gamma_prior_pulls_toward_prior_mode(self):
        # strong prior with b >> data scale shrinks the factor mass
        rng = np.random.default_rng(15)
        tensor = random_tensor(rng, (4, 4, 3), 10)
        model = random_model(rng, (4, 4, 3), 2)
        plain = kernel_mode_update(tensor, model, "origin")
        shrunk = kernel_mode_update(tensor, model, "origin", prior_shape=1.0, prior_rate=50.0)
        assert shrunk.weights.sum() < plain.weights.sum()

    def test_non_negativity_preserved(self):
        rng = np.random.default_rng(16)
        tensor = random_tensor(rng, (5, 5, 4), 30)
        model = random_model(rng, (5, 5, 4), 3)
        for sweep in range(5):
            for mode in MODES:
                model = kernel_mode_update(tensor, model, mode, prior_shape=1.2, prior_rate=0.5)
        for arr in (model.O, model.D, model.T, model.weights):
            assert (arr >= 0).all()


@st.composite
def kernel_problems(draw):
    """A small tensor (possibly empty, usually with countries and months
    that have no entries), a non-negative model and a (shape, rate) prior.
    Ranks reach past 16, so the row sums run left to right, in 8
    accumulators, and in blocks of 8 with a remainder."""
    N = draw(st.integers(2, 6))
    M = draw(st.integers(1, 5))
    K = draw(st.integers(1, 20))
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


@st.composite
def slab_stacks(draw):
    """A C-order (R, nnz, K) array of non-negative floats, some zero, the
    others spread over up to 600 decades, for K from 1 to 300."""
    K = draw(st.integers(1, 300))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 6)), K)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-300, 300))
    high = draw(st.integers(low, 307))
    values = rng.uniform(1.0, 10.0, shape) * 10.0 ** rng.integers(low, high + 1, shape)
    values[rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = 0.0
    return values


class TestPairwiseSum:
    """``_pairwise_sum`` over slabs has the bits of numpy's own row sum."""

    @settings(max_examples=300, deadline=None)
    @given(slab_stacks())
    @example(np.full((1, 1, 129), 1e-300))
    @example(np.ones((2, 3, 300)))
    def test_matches_sum_over_the_last_axis(self, values):
        expected = values.sum(axis=2)
        got = solver._pairwise_sum(values.copy().transpose(2, 0, 1))
        assert np.ascontiguousarray(got).tobytes() == expected.tobytes()

    def test_sums_in_place_into_the_first_slab(self):
        values = np.arange(1.0, 25.0).reshape(2, 12)
        got = solver._pairwise_sum(values.T)
        assert np.shares_memory(got, values)
        assert got.tolist() == [78.0, 222.0]


class TestKernelsMatchReference:
    """``fit``'s kernels return exactly the bits of the plain formulation."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_problems(), st.sampled_from(MODES))
    @example(EMPTY_RANK_ONE, "origin")
    @example(SPARSE_GAMMA, "destination")
    @example(SPARSE_GAMMA, "time")
    def test_mode_update(self, problem, mode):
        tensor, model, (a, b) = problem
        expected = reference_mode_update(tensor, model, mode, a, b)
        assert_same_bits(kernel_mode_update(tensor, model, mode, a, b), expected)

    @settings(max_examples=150, deadline=None)
    @given(kernel_problems())
    @example(EMPTY_RANK_ONE)
    @example(SPARSE_GAMMA)
    def test_log_likelihood(self, problem):
        tensor, model, _ = problem
        expected = reference_log_likelihood(tensor, model)
        assert kernel_log_likelihood(tensor, model) == expected

    def test_sweeps_of_a_fit_match_reference(self):
        rng = np.random.default_rng(31)
        tensor = random_tensor(rng, (7, 7, 6), 80)
        model = expected = FactorModel(*random_start(tensor.dims, 3, 2), np.ones(3))
        for _ in range(5):
            for mode in MODES:
                model = kernel_mode_update(tensor, model, mode, 1.0, 0.1)
                expected = reference_mode_update(tensor, expected, mode, 1.0, 0.1)
                assert_same_bits(model, expected)


class TestFit:
    def test_recovers_noiseless_rank_one(self):
        rng = np.random.default_rng(21)
        planted, tensor = integer_model_and_dense_tensor(rng, (5, 5, 4), 1)
        cfg = FitConfig(rank=1, max_iters=500, rel_tol=1e-12, seed=0, restarts=3)
        model, trace = fit(tensor, cfg)
        for (i, j, t), c in zip(tensor.coords.tolist(), tensor.counts):
            rate = rate_at(model, i, j, t)
            assert abs(rate - c) <= 0.01 * c

    def test_infinite_rel_tol_returns_normalized_init(self):
        rng = np.random.default_rng(22)
        tensor = random_tensor(rng, (5, 5, 6), 20)
        cfg = FitConfig(rank=3, rel_tol=float("inf"), seed=5, restarts=1)
        model, trace = fit(tensor, cfg)
        assert trace.n_sweeps == 0
        assert trace.converged
        assert len(trace.objectives) == 1
        start = FactorModel(*random_start((5, 5, 6), cfg.rank, cfg.seed), np.ones(cfg.rank))
        expected = start.normalized().sorted_by_weight()
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
        real = solver._log_likelihoods
        evaluated = []  # restarts evaluated by each call, in restart order

        def spoiled(counts, rates, mass):
            out = real(counts, rates, mass)
            evaluated.append(len(out))
            if len(evaluated) == 3:
                out[0] = bad  # restart 0 after sweep 2
            return out

        monkeypatch.setattr(solver, "_log_likelihoods", spoiled)
        # one worker: a forked share's calls would not reach ``evaluated``
        monkeypatch.setattr(workers, "count", lambda: 1)
        cfg = FitConfig(rank=2, max_iters=30, rel_tol=1e-12, seed=9, restarts=2)
        _, trace = fit(tensor, cfg)
        assert trace.restart == 1
        assert math.isfinite(trace.objectives[-1])
        # restart 0 was evaluated 3 times (start + 2 sweeps), restart 1
        # 31 times (start + its 30 sweeps)
        assert evaluated == [2, 2, 2] + [1] * 28
        # dropping restart 0 from the block changed none of restart 1's bits
        assert trace.objectives == reference_fit(tensor, cfg)[2][1][1].objectives

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_objective_ends_restart_unconverged(self, monkeypatch, bad):
        rng = np.random.default_rng(29)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        real = solver._log_likelihoods
        evaluated = []

        def spoiled(counts, rates, mass):
            out = real(counts, rates, mass)
            evaluated.append(len(out))
            if len(evaluated) == 2:
                out[0] = bad
            return out

        monkeypatch.setattr(solver, "_log_likelihoods", spoiled)
        _, trace = fit(tensor, FitConfig(rank=2, max_iters=50, seed=4, restarts=1))
        assert trace.n_sweeps == 1
        assert not trace.converged
        assert len(trace.objectives) == 2 and not math.isfinite(trace.objectives[-1])
        assert evaluated == [1, 1]

    def test_all_restarts_non_finite_earliest_wins(self, monkeypatch):
        rng = np.random.default_rng(30)
        tensor = random_tensor(rng, (6, 6, 5), 40)
        monkeypatch.setattr(solver, "_log_likelihoods",
                            lambda counts, rates, mass: np.full(len(mass), np.nan))
        _, trace = fit(tensor, FitConfig(rank=2, max_iters=50, seed=4, restarts=3))
        assert trace.restart == 0
        assert trace.n_sweeps == 0
        assert not trace.converged


def assert_fit_matches_reference(tensor, cfg):
    """``fit`` returns the bits of one-restart-at-a-time ``reference_fit``."""
    model, trace = fit(tensor, cfg)
    expected_model, expected, restarts = reference_fit(tensor, cfg)
    assert_same_bits(model, expected_model)
    assert trace == expected
    return restarts


@st.composite
def fit_problems(draw):
    """A small tensor, a fit setting, a block budget from below one
    restart's nnz * K (one restart per block) to above all of them, and a
    worker count from 1 to more than the restarts."""
    N = draw(st.integers(2, 7))
    M = draw(st.integers(1, 6))
    cell = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1), st.integers(0, M - 1))
    cells = draw(st.dictionaries(cell.filter(lambda c: c[0] != c[1]),
                                 st.integers(1, 50), max_size=60))
    prior = draw(st.one_of(st.just((1.0, 0.0)),
                           st.tuples(st.floats(1.0, 2.0), st.floats(0.0, 1.0))))
    cfg = FitConfig(rank=draw(st.integers(1, 16)), restarts=draw(st.integers(1, 12)),
                    max_iters=draw(st.integers(1, 30)),
                    rel_tol=draw(st.sampled_from([1e-2, 1e-3, 1e-4, 1e-6])),
                    seed=draw(st.integers(0, 2**16)),
                    prior_shape=prior[0], prior_rate=prior[1])
    size = max(len(cells) * cfg.rank, 1)
    budget = draw(st.integers(1, (cfg.restarts + 1) * size))
    n = draw(st.integers(1, cfg.restarts + 2))
    return make_tensor((N, N, M), cells), cfg, budget, n


class TestDealtOrder:
    """The order in which the origin and destination updates see the entries."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=80))
    @example([])
    @example([3])
    @example([0, 0, 0, 1, 2, 2])
    @example([5] * 9 + [1, 4] + [5] * 3)
    def test_deals_each_row_in_turn_keeping_its_entry_order(self, values):
        rows = np.array(values, dtype=np.int64)
        order = solver._dealt(rows).tolist()
        assert sorted(order) == list(range(len(rows)))
        for row in set(values):
            # each row's entries come in entry order
            mine = [pos for pos in order if values[pos] == row]
            assert mine == sorted(mine)
        dealt = [values[pos] for pos in order]
        for p in range(len(dealt) - 1):
            if len(set(dealt[p:])) >= 2:
                assert dealt[p] != dealt[p + 1], (dealt, p)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("budget", [solver.BLOCK_ELEMENTS, 1])
    def test_fit_with_one_row_holding_most_entries(self, n, budget, monkeypatch):
        # origin 0 sends to every destination in every month and the other
        # origins send a few moves, so its dealt order ends in a long run
        # of origin 0's entries alone
        rng = np.random.default_rng(35)
        cells = {(0, j, t): int(rng.integers(1, 30)) for j in range(1, 8) for t in range(12)}
        cells.update({(i, (i + 1) % 8, 3 * i % 12): 2 for i in range(1, 8)})
        tensor = make_tensor((8, 8, 12), cells)
        tail = tensor.coords[solver._dealt(np.ascontiguousarray(tensor.coords[:, 0])), 0][-70:]
        assert not tail.any()
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(workers, "count", lambda: n)
        assert_fit_matches_reference(tensor, FitConfig(rank=3, max_iters=40, rel_tol=1e-5,
                                                       seed=8, restarts=3, prior_rate=0.1))


class TestFitMatchesReference:
    """Batched restarts, in any number of worker processes, return exactly
    the bits of sequential ones."""

    @settings(max_examples=100, deadline=None)
    @given(fit_problems())
    def test_any_block_budget_and_workers(self, problem):
        tensor, cfg, budget, n = problem
        with warnings.catch_warnings(), mock.patch.object(solver, "BLOCK_ELEMENTS", budget), \
                mock.patch.object(workers, "count", lambda: n):
            warnings.simplefilter("ignore", RuntimeWarning)  # overcomplete rank
            assert_fit_matches_reference(tensor, cfg)

    # nnz * K below the module's budget (blocks of 4, 4 and 2 restarts) and
    # above it (one restart per block); a budget of 1 runs one restart per
    # block. Worker counts: in-process, two shares and more workers than
    # restarts (one block each). The restarts of the first setting converge
    # after 21 to 34 sweeps; with 27 sweeps, restart 5 first reaches rel_tol
    # on the last one and restarts 0, 6, 7 and 9 run out above it
    @pytest.mark.parametrize("budget", [solver.BLOCK_ELEMENTS, 1])
    @pytest.mark.parametrize("n", [1, 2, 13])
    @pytest.mark.parametrize("dims, nnz, cfg", [
        ((20, 20, 8), 2000, FitConfig(rank=8, max_iters=40, rel_tol=1e-3, seed=3, restarts=10)),
        ((20, 20, 8), 2000, FitConfig(rank=8, max_iters=27, rel_tol=1e-3, seed=3, restarts=10)),
        ((20, 20, 8), 2000, FitConfig(rank=8, max_iters=1, rel_tol=1e-3, seed=3, restarts=2)),
        ((30, 30, 16), 4400, FitConfig(rank=16, max_iters=3, seed=4, restarts=2,
                                      prior_shape=1.2, prior_rate=0.1)),
    ])
    def test_block_budget_and_workers(self, dims, nnz, cfg, n, budget, monkeypatch):
        rng = np.random.default_rng(33)
        tensor = random_tensor(rng, dims, nnz)
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(workers, "count", lambda: n)
        restarts = assert_fit_matches_reference(tensor, cfg)
        traces = [trace for _, trace in restarts]
        if cfg.restarts > 2:
            # restarts left the block at different sweeps
            assert len({t.n_sweeps for t in traces}) > 1
        if cfg.max_iters == 27:
            assert [(t.n_sweeps, t.converged) for t in traces[5:7]] == [(27, True), (27, False)]
        # every restart, not only the winner, has the sequential bits and trace
        stream = np.random.default_rng(cfg.seed)
        starts = [solver._draw_factors(dims, cfg.rank, stream) for _ in range(cfg.restarts)]
        results = solver._fit_shares(tensor, starts, cfg, n)
        assert [trace for _, trace in results] == traces
        for (got, _), (expected, _) in zip(results, restarts):
            assert_same_bits(FactorModel(*got), expected)


@pytest.mark.skipif(sys.platform != "linux", reason="fit forks its workers only on Linux")
class TestFitWorkers:
    """Restart shares in forked children: failures, and when ``fit`` forks.
    Each test but the one-block case runs one restart per block."""

    tensor = random_tensor(np.random.default_rng(34), (6, 6, 5), 40)
    cfg = FitConfig(rank=2, max_iters=30, seed=9, restarts=4)

    @pytest.fixture(autouse=True)
    def one_restart_per_block(self, monkeypatch):
        monkeypatch.setattr(solver, "BLOCK_ELEMENTS", 1)

    def fail_in(self, monkeypatch, where, fail):
        """Run ``fail`` in place of ``_fit_block`` in the parent or in the
        children, with three workers."""
        parent, real = os.getpid(), solver._fit_block

        def block(*args):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return real(*args)

        monkeypatch.setattr(solver, "_fit_block", block)
        monkeypatch.setattr(workers, "count", lambda: 3)

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_failing_share_raises_and_leaves_nothing(self, monkeypatch, where):
        def fail():
            raise ValueError(f"share failed in the {where}")

        self.fail_in(monkeypatch, where, fail)
        fds = open_fds()
        with pytest.raises(ValueError, match=f"share failed in the {where}"):
            fit(self.tensor, self.cfg)
        assert_nothing_left(fds)

    def test_a_failing_parent_kills_its_children(self, monkeypatch):
        parent = os.getpid()

        def block(*args):
            if os.getpid() != parent:
                time.sleep(60)  # a child still at work when the parent fails
            raise ValueError("share failed in the parent")

        monkeypatch.setattr(solver, "_fit_block", block)
        monkeypatch.setattr(workers, "count", lambda: 3)
        fds, start = open_fds(), time.monotonic()
        with pytest.raises(ValueError, match="share failed in the parent"):
            fit(self.tensor, self.cfg)
        assert time.monotonic() - start < 30  # the children were killed, not awaited
        assert_nothing_left(fds)

    def test_a_child_that_dies_without_a_result_raises(self, monkeypatch):
        self.fail_in(monkeypatch, "child", lambda: os._exit(3))
        fds = open_fds()
        with pytest.raises(ChildProcessError, match="exited without a result"):
            fit(self.tensor, self.cfg)
        assert_nothing_left(fds)

    def test_forks_one_child_per_usable_cpu_but_one(self, monkeypatch):
        assert len(os.listdir("/proc/self/task")) == 1, "the suite runs with one OS thread"
        expected = fit(self.tensor, self.cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pids = forks(monkeypatch)
        model, trace = fit(self.tensor, self.cfg)
        assert len(pids) == 2
        assert trace == expected[1]
        assert (model.O == expected[0].O).all() and (model.weights == expected[0].weights).all()

    # the environment a user's shell gives: no BLAS thread count named, or one
    @pytest.mark.parametrize("preset, threads", [(None, "1"), ("2", "2")], ids=["unset", "set"])
    def test_importing_the_package_keeps_numpy_single_threaded(self, preset, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
            solver.__file__)), os.environ.get("PYTHONPATH")]))
        probe = ("import os; from migtensor import cli, workers; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'], "
                 "workers.count() == len(os.sched_getaffinity(0)))")
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        openblas, omp, forks = result.stdout.split()
        assert (openblas, omp) == (threads, "1")  # a value the user set is kept
        if preset is None:  # the CLI's process keeps one thread: fit may fork a worker per CPU
            assert forks == "True"

    @pytest.mark.parametrize("case", ["another OS", "no /proc", "a second thread", "one CPU",
                                      "one restart", "one block"])
    def test_runs_in_process(self, monkeypatch, case):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        cfg, stop = self.cfg, threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        if case == "another OS":
            monkeypatch.setattr(sys, "platform", "darwin")
        elif case == "no /proc":
            def listdir(path):
                raise FileNotFoundError(2, "No such file or directory", path)

            monkeypatch.setattr(os, "listdir", listdir)
        elif case == "a second thread":
            thread.start()
        elif case == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "one restart":
            cfg = FitConfig(rank=2, max_iters=30, seed=9, restarts=1)
        else:  # the module's budget holds all four restarts in one block
            monkeypatch.setattr(solver, "BLOCK_ELEMENTS", 1 << 16)
        pids = forks(monkeypatch)
        try:
            _, trace = fit(self.tensor, cfg)
        finally:
            stop.set()
            if thread.ident is not None:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert pids == []
        assert trace.n_sweeps > 0


class TestGauge:
    def test_scale_indifference(self):
        rng = np.random.default_rng(31)
        model = random_model(rng, (5, 5, 4), 3)
        scaled = model.copy()
        scaled.O[:, 1] *= 10.0
        scaled.weights[1] /= 10.0
        for _ in range(20):
            i, j, t = rng.integers(0, 5), rng.integers(0, 5), rng.integers(0, 4)
            assert rate_at(scaled, i, j, t) == pytest.approx(
                rate_at(model, i, j, t), rel=1e-12)

    def test_normalized_preserves_reconstruction(self):
        rng = np.random.default_rng(32)
        model = random_model(rng, (5, 5, 4), 3)
        norm = model.normalized()
        for mat in (norm.O, norm.D, norm.T):
            np.testing.assert_allclose(mat.sum(axis=0), 1.0, rtol=1e-12)
        for _ in range(10):
            i, j, t = rng.integers(0, 5), rng.integers(0, 5), rng.integers(0, 4)
            assert rate_at(norm, i, j, t) == pytest.approx(
                rate_at(model, i, j, t), rel=1e-12)


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
                       {"rel_tol": 0.0}, {"prior_shape": 0.5}, {"prior_rate": -1.0},
                       {"prior_shape": math.nan}, {"prior_rate": math.nan},
                       {"prior_shape": math.inf}, {"prior_rate": math.inf},
                       {"prior_shape": -math.inf}, {"prior_rate": -math.inf}):
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

    def test_round_trip_of_every_float_form(self, tmp_path):
        # fixed and exponent notation on both sides of %.17g's switch,
        # subnormals, the largest float and a negative zero
        values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 0.1, 1.0, 255.0,
                  1e16, 1e17, 12345678901234567.0, 1.7976931348623157e308]
        col = np.array(values)[:, None]
        model = FactorModel(col[:2], col[2:4], col[4:], np.array([3.0]))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        for got, expected in zip((loaded.O, loaded.D, loaded.T), (model.O, model.D, model.T)):
            assert got.tobytes() == expected.tobytes()

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
        # numbers float() reads in forms save_model never writes
        (3, "1_0,0.5", 3, "row '1_0,0.5' is not in save_model's %.17g form"),
        (3, "+1,0.5", 3, "row '+1,0.5' is not in save_model's %.17g form"),
        (3, " 1,0.5", 3, "row ' 1,0.5' is not in save_model's %.17g form"),
        (3, "1,0.5 ", 3, "row '1,0.5 ' is not in save_model's %.17g form"),
        (3, "1.0,0.5", 3, "row '1.0,0.5' is not in save_model's %.17g form"),
        (4, "1e0,0.5", 4, "row '1e0,0.5' is not in save_model's %.17g form"),
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
