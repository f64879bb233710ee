"""Gaussian-process surrogate: kernel, posterior, jitter, hyperopt."""

import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky

from sbobench.core import SearchSpace, VariableSpec, make_rng, sample_uniform
from sbobench.problems import make_problem
from sbobench.surrogates import (
    GpFactorizationError,
    MaternParams,
    fit_gp,
    matern52,
)
from sbobench.surrogates import gp as gp_module
from sbobench.surrogates.encoding import encode_points
from sbobench.surrogates.gp import (
    NOISE_FLOOR,
    _factorize,
    _pairwise_dists,
    optimise_hyperparameters,
)


@pytest.fixture
def cube3():
    return SearchSpace(
        tuple(VariableSpec(f"x{i}", "continuous", lower=0.0, upper=1.0) for i in range(3))
    )


def _train_data(space, n, seed, fn):
    rng = make_rng(seed)
    pts = [sample_uniform(space, rng) for _ in range(n)]
    X = encode_points(space, pts)
    return pts, X, fn(X)


def _smooth(X):
    return np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2 - 0.5 * X[:, 2]


class TestKernel:
    def test_zero_distance_gives_signal_variance(self):
        assert matern52(np.array(0.0), 2.0) == 1.0  # unit correlation at r=0
        params = MaternParams(lengthscale=2.0, signal_var=3.5, noise_var=1e-8)
        assert params.signal_var * matern52(np.array(0.0), params.lengthscale) == 3.5

    def test_kernel_decreases_with_distance(self):
        r = np.linspace(0, 10, 50)
        k = matern52(r, 1.5)
        assert np.all(np.diff(k) < 0)
        assert k[0] == 1.0

    def test_gram_matrix_is_psd_after_jitter(self, cube3):
        # Eigenvalue floor on random point sets, including duplicates.
        for seed in range(5):
            rng = make_rng(seed)
            pts = [sample_uniform(cube3, rng) for _ in range(20)]
            pts += pts[:3]  # force duplicates
            X = encode_points(cube3, pts)
            K = 2.0 * matern52(_pairwise_dists(X, X), 0.7)
            K[np.diag_indices_from(K)] += 1e-10
            L, jitter = _factorize(K.copy())
            n = K.shape[0]
            eigmin = np.linalg.eigvalsh(K + jitter * np.eye(n)).min()
            assert eigmin >= -1e-8 * n


class TestPosterior:
    def test_interpolates_training_data_at_tiny_noise(self, cube3):
        _, X, y = _train_data(cube3, 12, 5, _smooth)
        model = fit_gp(cube3, X, y, params=MaternParams(0.8, 1.0, 1e-10))
        mean, var = model.predict_variance_encoded(X)
        assert np.max(np.abs(mean - y)) < 1e-5
        assert np.max(var) < 1e-6

    def test_matches_dense_solve_oracle(self, cube3):
        # Direct dense linear-algebra route, written independently of
        # the Cholesky implementation.
        _, X, y = _train_data(cube3, 15, 9, _smooth)
        params = MaternParams(0.6, 1.3, 1e-4)
        model = fit_gp(cube3, X, y, params=params)
        rng = make_rng(10)
        Q = encode_points(cube3, [sample_uniform(cube3, rng) for _ in range(40)])

        K = params.signal_var * matern52(_pairwise_dists(X, X), params.lengthscale)
        K += params.noise_var * np.eye(15)
        Ks = params.signal_var * matern52(_pairwise_dists(Q, X), params.lengthscale)
        mean_oracle = Ks @ np.linalg.solve(K, y)
        var_oracle = params.signal_var - np.einsum(
            "ij,ji->i", Ks, np.linalg.solve(K, Ks.T)
        )
        mean, var = model.predict_variance_encoded(Q)
        np.testing.assert_allclose(mean, mean_oracle, atol=1e-8, rtol=0)
        np.testing.assert_allclose(var, var_oracle, atol=1e-8, rtol=0)

    def test_variance_is_nonnegative_everywhere(self, cube3):
        _, X, y = _train_data(cube3, 25, 2, _smooth)
        model = fit_gp(cube3, X, y, params=MaternParams(0.5, 2.0, 1e-9))
        rng = make_rng(3)
        Q = encode_points(cube3, [sample_uniform(cube3, rng) for _ in range(300)])
        _, var = model.predict_variance_encoded(Q)
        assert np.all(var >= 0.0)

    def test_factorisation_error_reports_jitter_ladder(self):
        # A badly scaled non-PSD matrix defeats every jitter level.
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(GpFactorizationError) as err:
            _factorize(K)
        assert len(err.value.tried) > 1
        assert "jitters tried" in str(err.value)

    def test_fit_on_repeated_rows_climbs_the_jitter_ladder(self):
        # Every row three times and no noise: the Gram matrix is singular,
        # so the fit itself must climb the ladder and predict with K + jitter I.
        problem = make_problem("sphere", d=3)
        space = problem.space
        rng = make_rng(3)
        pts = [sample_uniform(space, rng) for _ in range(6)] * 3
        X = encode_points(space, pts)
        y = np.array([problem.evaluate(pt)[0] for pt in pts])
        params = MaternParams(2.0, 1.0, 0.0)
        model = fit_gp(space, X, y, params=params)
        assert model.jitter > 0.0
        Q = encode_points(space, [sample_uniform(space, rng) for _ in range(20)])

        K = params.signal_var * matern52(_pairwise_dists(X, X), params.lengthscale)
        K += (params.noise_var + model.jitter) * np.eye(len(X))
        Ks = params.signal_var * matern52(_pairwise_dists(Q, X), params.lengthscale)
        mean_oracle = Ks @ np.linalg.solve(K, y)
        var_oracle = params.signal_var - np.einsum("ij,ji->i", Ks, np.linalg.solve(K, Ks.T))
        mean, var = model.predict_variance_encoded(Q)
        np.testing.assert_allclose(mean, mean_oracle, atol=1e-8, rtol=0)
        np.testing.assert_allclose(var, var_oracle, atol=1e-8, rtol=0)


class TestHyperopt:
    def test_optimised_lml_not_worse_than_heuristic(self, cube3):
        _, X, y = _train_data(cube3, 20, 7, _smooth)
        plain = fit_gp(cube3, X, y)
        tuned = fit_gp(cube3, X, y, optimise_hypers=True, multistarts=4, steps=60, seed=1)
        assert tuned.log_marginal_likelihood() >= plain.log_marginal_likelihood() - 1e-9

    def test_lengthscale_recovery_order_of_magnitude(self, cube3):
        # A fast-varying target should be assigned a shorter lengthscale
        # than a slowly varying one.
        _, X_fast, fast = _train_data(cube3, 40, 8, lambda X: np.sin(12.0 * X[:, 0]))
        _, X_slow, slow = _train_data(cube3, 40, 8, lambda X: 0.3 * X[:, 0])
        m_fast = fit_gp(cube3, X_fast, fast, optimise_hypers=True, multistarts=4, steps=80, seed=0)
        m_slow = fit_gp(cube3, X_slow, slow, optimise_hypers=True, multistarts=4, steps=80, seed=0)
        assert m_fast.params.lengthscale < m_slow.params.lengthscale

    def test_noise_floor_respected(self, cube3):
        _, X, y = _train_data(cube3, 15, 4, _smooth)
        model = fit_gp(cube3, X, y, optimise_hypers=True, multistarts=3, steps=40, seed=2)
        assert model.params.noise_var >= 1e-8


def _reference_lml_and_grad(dists, y, theta):
    """Likelihood and gradient in one pass, the inverse formed every time."""
    ell, sf2, sn2 = (math.exp(t) for t in theta)
    n = y.size
    u = math.sqrt(5.0) * dists / ell
    E = np.exp(-u)
    M = (1.0 + u + u * u / 3.0) * E
    K = sf2 * M
    K[np.diag_indices_from(K)] += sn2
    try:
        L = cholesky(K, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None, None
    alpha = cho_solve((L, True), y, check_finite=False)
    lml = -0.5 * (y @ alpha) - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2 * math.pi)
    A = np.outer(alpha, alpha) - cho_solve((L, True), np.eye(n), check_finite=False)
    dK_ell = sf2 * (u * u * (1.0 + u) / 3.0) * E
    grad = np.array([0.5 * np.sum(A * dK_ell), 0.5 * np.sum(A * (sf2 * M)),
                     0.5 * np.trace(A) * sn2])
    return float(lml), grad


def _reference_search(dists, y, box_diagonal, init, multistarts, steps, seed):
    """The multistart ascent with the gradient taken at every proposal."""
    y_var = max(float(np.var(y)), 1e-12)
    lo = np.log([1e-3 * box_diagonal, 1e-8 * y_var, NOISE_FLOOR])
    hi = np.log([1e3 * box_diagonal, 1e8 * y_var, max(4.0 * y_var, 1e-6)])
    rng = make_rng(seed)
    starts = [np.log([init.lengthscale, init.signal_var, init.noise_var]),
              np.log([0.25 * box_diagonal, y_var, 1e-4 * y_var + NOISE_FLOOR])]
    while len(starts) < multistarts:
        starts.append(rng.uniform(lo, hi))
    best_theta, best_lml = None, -np.inf
    for theta in starts:
        theta = np.clip(np.asarray(theta, dtype=float), lo, hi)
        lml, grad = _reference_lml_and_grad(dists, y, theta)
        if lml is None:
            continue
        step = 0.1
        for _ in range(steps):
            proposal = np.clip(theta + step * grad, lo, hi)
            new_lml, new_grad = _reference_lml_and_grad(dists, y, proposal)
            if new_lml is not None and new_lml > lml:
                theta, lml, grad = proposal, new_lml, new_grad
                step = min(step * 1.2, 0.5)
            else:
                step *= 0.5
                if step < 1e-6:
                    break
        if lml > best_lml:
            best_theta, best_lml = theta, lml
    ell, sf2, sn2 = (math.exp(t) for t in best_theta)
    return MaternParams(ell, sf2, max(sn2, NOISE_FLOOR))


@pytest.mark.parametrize("d", [3, 10, 49])
@pytest.mark.parametrize("n", [30, 150])
def test_hyperparameter_search_equals_reference_loop(d, n, monkeypatch):
    rng = make_rng(1000 * d + n)
    X = rng.uniform(size=(n, d))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1:].sum(axis=1) ** 2 / d + 0.01 * rng.normal(size=n)
    dists = _pairwise_dists(X, X)
    init = MaternParams(0.5, 1.0, 1e-4)
    for multistarts, steps in ((2, 10), (3, 60)):
        args = (dists, y, math.sqrt(d), init, multistarts, steps, d)
        assert optimise_hyperparameters(*args) == _reference_search(*args)

    # A warm start equal to the default start is run once, not twice: it costs
    # what the search without it costs with one start fewer, and wins nothing.
    calls = []
    lml = gp_module._lml
    monkeypatch.setattr(gp_module, "_lml", lambda *a: calls.append(1) or lml(*a))

    def search(start, multistarts, steps):
        calls.clear()
        params = optimise_hyperparameters(dists, y, math.sqrt(d), start, multistarts, steps, d)
        return params, len(calls)

    y_var = max(float(np.var(y)), 1e-12)
    default = MaternParams(0.25 * math.sqrt(d), y_var, 1e-4 * y_var + NOISE_FLOOR)
    for multistarts, steps in ((1, 10), (2, 10), (3, 60)):
        params, n_calls = search(default, multistarts, steps)
        assert (params, n_calls) == search(None, max(multistarts - 1, 1), steps)
        assert params == _reference_search(dists, y, math.sqrt(d), default, multistarts,
                                           steps, d)
