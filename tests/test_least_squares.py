"""Least-squares surrogate families: exactness, optimality, determinism."""

import numpy as np
import pytest

from sbobench.core import SearchSpace, VariableSpec, make_rng, sample_uniform
from sbobench.problems import available_problems, make_problem
from sbobench.surrogates import FitError, fit_least_squares, mae
from sbobench.surrogates import least_squares
from sbobench.surrogates.encoding import encode_points, encoded_bounds
from sbobench.surrogates.least_squares import FAMILIES


def _line_data(space, slope=2.0, intercept=1.0, xs=(0.0, 0.5, 1.0, 2.0, 4.0)):
    X = encode_points(space, [space.make_point({"x": x}) for x in xs])
    return X, slope * X[:, 0] + intercept


@pytest.fixture
def line_space():
    return SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=5.0),))


class TestLinear:
    def test_recovers_affine_target(self, line_space):
        model = fit_least_squares(line_space, *_line_data(line_space), family="linear",
                                  ridge=1e-12)
        pred = model.predict_encoded(
            encode_points(line_space, [line_space.make_point({"x": 3.0})]))
        assert abs(pred[0] - 7.0) <= 1e-9

    def test_duplicated_dataset_gives_identical_coefficients(self, line_space):
        # With no penalty the optimum is invariant to duplicating every
        # observation (the normal equations just scale by two).
        X, y = _line_data(line_space)
        a = fit_least_squares(line_space, X, y, family="linear", ridge=0.0)
        b = fit_least_squares(line_space, np.vstack([X, X]), np.concatenate([y, y]),
                              family="linear", ridge=0.0)
        np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=0, atol=1e-10)

    def test_rank_deficient_without_ridge_raises(self, line_space):
        X, y = np.ones((3, 1)), np.full(3, 2.0)  # single distinct input
        with pytest.raises(FitError, match="regularisation required"):
            fit_least_squares(line_space, X, y, family="linear", ridge=0.0)
        # The same design fits fine once regularised.
        fit_least_squares(line_space, X, y, family="linear", ridge=1e-6)


class TestQuadratic:
    def test_recovers_quadratic_exactly(self, box_space):
        rng = make_rng(3)
        pts = [sample_uniform(box_space, rng) for _ in range(30)]
        X = encode_points(box_space, pts)
        y = 1.5 - 2.0 * X[:, 0] + 0.5 * X[:, 1] + 3.0 * X[:, 0] ** 2 - X[:, 0] * X[:, 1]
        model = fit_least_squares(box_space, X, y, family="quadratic", ridge=1e-12)
        assert mae(model, X, y) < 1e-8


class TestPiecewiseLinear:
    def test_interpolates_with_enough_bases(self, box_space):
        rng = make_rng(11)
        pts = [sample_uniform(box_space, rng) for _ in range(50)]
        X = encode_points(box_space, pts)
        y = np.sin(3 * X[:, 0]) + 0.5 * np.abs(X[:, 1])
        model = fit_least_squares(
            box_space, X, y, family="piecewise_linear", ridge=1e-8, n_basis=120, seed=5
        )
        assert mae(model, X, y) < 1e-3

    def test_hinge_weights_come_from_signed_grid(self, box_space):
        model = fit_least_squares(
            box_space,
            *_line_data_2d(box_space),
            family="piecewise_linear",
            ridge=1e-6,
            n_basis=64,
            seed=9,
        )
        # Every hinge direction is a normalised {-1,0,1} pattern.
        W = model.W
        assert W.shape == (64, 2)
        for w in W:
            assert abs(np.linalg.norm(w) - 1.0) < 1e-12
            pattern = np.round(w / np.abs(w[np.abs(w) > 1e-12]).min())
            assert set(np.unique(pattern)).issubset({-1.0, 0.0, 1.0})

    @pytest.mark.parametrize("d", [1, 2])
    def test_hinge_draw_on_small_boxes(self, d):
        # In 1-D a third of the first draw's rows are zero, so the redraw
        # loop always runs.
        space = SearchSpace(
            tuple(VariableSpec(f"x{i}", "continuous", lower=-1.0 - i, upper=2.0 + i)
                  for i in range(d))
        )
        n_basis, seed = 300, 17
        first = make_rng(seed).integers(-1, 2, size=(n_basis, d))
        assert (~first.any(axis=1)).any()
        W, b = least_squares._draw_hinge_basis(space, n_basis, make_rng(seed))
        assert W.shape == (n_basis, d) and b.shape == (n_basis,)
        assert np.all(np.abs(W).max(axis=1) > 0)
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, rtol=0, atol=1e-12)
        pattern = W * np.sqrt(np.count_nonzero(W, axis=1))[:, None]
        np.testing.assert_allclose(pattern, np.round(pattern), rtol=0, atol=1e-12)
        assert set(np.unique(np.round(pattern))).issubset({-1.0, 0.0, 1.0})
        W2, b2 = least_squares._draw_hinge_basis(space, n_basis, make_rng(seed))
        np.testing.assert_array_equal(W, W2)
        np.testing.assert_array_equal(b, b2)
        if d == 1:  # the hinge's kink is its anchor, a point of the box
            lower, upper = encoded_bounds(space)
            kink = -b / W[:, 0]
            assert np.all((kink >= lower[0]) & (kink <= upper[0]))


def _uniform_hinge_basis(space, n_basis, rng):
    """The hinge draw with its anchors taken by ``rng.uniform`` over the box."""
    lower, upper = encoded_bounds(space)
    W = rng.integers(-1, 2, size=(n_basis, space.dimension)).astype(float)
    while (zero := ~W.any(axis=1)).any():
        W[zero] = rng.integers(-1, 2, size=(int(zero.sum()), space.dimension))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    anchor = rng.uniform(lower, upper, size=(n_basis, space.dimension))
    return W, -np.einsum("kj,kj->k", W, anchor)


@pytest.mark.parametrize("problem", available_problems())
def test_hinge_anchors_draw_as_uniform_does(problem):
    """Same stream, same bits as ``rng.uniform(lower, upper, size)`` on
    every built-in problem's encoded box."""
    space = make_problem(problem).space
    for seed in (0, 1, 17, 2024):
        for n_basis in (512, 1000):
            rng, reference = make_rng(seed), make_rng(seed)
            W, b = least_squares._draw_hinge_basis(space, n_basis, rng)
            W_ref, b_ref = _uniform_hinge_basis(space, n_basis, reference)
            assert W.tobytes() == W_ref.tobytes() and b.tobytes() == b_ref.tobytes()
            assert rng.random() == reference.random()


def _line_data_2d(space, n=20, seed=1):
    rng = make_rng(seed)
    pts = [sample_uniform(space, rng) for _ in range(n)]
    X = encode_points(space, pts)
    return X, X @ [1.0, -2.0] + 0.5


class TestRandomFourier:
    def test_fits_smooth_target_well(self, box_space):
        rng = make_rng(21)
        pts = [sample_uniform(box_space, rng) for _ in range(80)]
        X = encode_points(box_space, pts)
        y = np.cos(2.0 * X[:, 0]) * np.sin(X[:, 1])
        model = fit_least_squares(
            box_space, X, y, family="random_fourier", ridge=1e-8, n_basis=200, seed=2
        )
        assert mae(model, X, y) < 1e-3

    def test_same_seed_same_basis(self, box_space):
        X, y = _line_data_2d(box_space)
        m1 = fit_least_squares(box_space, X, y, family="random_fourier", n_basis=32, seed=7)
        m2 = fit_least_squares(box_space, X, y, family="random_fourier", n_basis=32, seed=7)
        np.testing.assert_array_equal(m1.W, m2.W)
        np.testing.assert_array_equal(m1.coefficients, m2.coefficients)


class TestOptimality:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_normal_equation_residual_is_tiny(self, box_space, family):
        # First-order optimality of the regularised objective:
        # phi'(phi c - y) + ridge c = 0 up to rounding.
        for seed in range(10):
            rng = make_rng(100 + seed)
            pts = [sample_uniform(box_space, rng) for _ in range(40)]
            y = np.asarray(rng.normal(size=40))
            X = encode_points(box_space, pts)
            ridge = 1e-6
            model = fit_least_squares(
                box_space, X, y, family=family, ridge=ridge, n_basis=60, seed=seed
            )
            phi = model.features(X)
            residual = phi.T @ (phi @ model.coefficients - y) + ridge * model.coefficients
            assert np.max(np.abs(residual)) <= 1e-6


class TestDualSolve:
    """With ridge > 0 and n < p the fit solves the n x n dual system."""

    @pytest.mark.parametrize("family,n_basis", [("piecewise_linear", 1000), ("random_fourier", 500)])
    @pytest.mark.parametrize("n", [10, 24])
    def test_optimality_residual_at_solver_shapes(self, family, n_basis, n):
        problem = make_problem("pipe-proxy", d=10)
        ridge = 1e-6
        for seed in range(5):
            rng = make_rng(500 + seed)
            pts = [sample_uniform(problem.space, rng) for _ in range(n)]
            y = np.array([problem.evaluate(p, virtual=True)[0] for p in pts])
            X = encode_points(problem.space, pts)
            model = fit_least_squares(
                problem.space, X, y, family=family, ridge=ridge, n_basis=n_basis, seed=seed,
            )
            assert model.coefficients.shape == (n_basis + 1,)
            phi = model.features(X)
            residual = phi.T @ (phi @ model.coefficients - y) + ridge * model.coefficients
            assert np.max(np.abs(residual)) <= 1e-6

    def test_factorises_the_smaller_system(self, box_space, monkeypatch):
        shapes = []
        real = least_squares.cho_factor

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(least_squares, "cho_factor", spy)
        X, y = _line_data_2d(box_space, n=20)
        fit_least_squares(box_space, X, y, family="piecewise_linear", n_basis=64, seed=1)
        fit_least_squares(box_space, X, y, family="random_fourier", n_basis=64, seed=1)
        fit_least_squares(box_space, X, y, family="piecewise_linear", n_basis=8, seed=1)
        fit_least_squares(box_space, X, y, family="quadratic")
        assert shapes == [(20, 20), (20, 20), (9, 9), (6, 6)]

    def test_unregularised_underdetermined_fit_raises(self, box_space):
        X, y = _line_data_2d(box_space, n=20)
        with pytest.raises(FitError, match="regularisation required"):
            fit_least_squares(box_space, X, y, family="piecewise_linear", ridge=0.0,
                              n_basis=64, seed=1)


class TestGradients:
    @pytest.mark.parametrize("family", ["linear", "quadratic", "random_fourier"])
    def test_gradient_matches_finite_differences(self, box_space, family):
        X, y = _line_data_2d(box_space, n=25, seed=3)
        model = fit_least_squares(box_space, X, y, family=family, n_basis=40, seed=3, ridge=1e-8)
        x = np.array([0.3, 0.7])
        grad = model.gradient_encoded(x)
        eps = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            fd = (model.predict_encoded((x + step)[None]) - model.predict_encoded((x - step)[None])) / (2 * eps)
            assert abs(grad[i] - fd[0]) < 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrix_form_matches_rows_and_finite_differences(self, box_space, family):
        rng = make_rng(3)
        pts = [sample_uniform(box_space, rng) for _ in range(25)]
        X = encode_points(box_space, pts)
        y = np.sin(3.0 * X[:, 0]) * X[:, 1] + X[:, 1] ** 2
        model = fit_least_squares(box_space, X, y, family=family, n_basis=40, seed=3, ridge=1e-8)
        rng = make_rng(8)
        X = np.column_stack([rng.uniform(0.0, 1.0, size=9), rng.uniform(-2.0, 3.0, size=9)])
        grads = model.gradient_encoded(X)
        assert grads.shape == X.shape
        assert model.gradient_encoded(X[0]).shape == (2,)
        rows = np.array([model.gradient_encoded(x) for x in X])
        np.testing.assert_allclose(grads, rows, rtol=1e-12, atol=1e-12)
        eps = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            fd = (model.predict_encoded(X + step) - model.predict_encoded(X - step)) / (2 * eps)
            np.testing.assert_allclose(grads[:, i], fd, rtol=0, atol=1e-5)


def test_unknown_family_rejected(box_space):
    with pytest.raises(ValueError, match="family"):
        fit_least_squares(box_space, *_line_data_2d(box_space), family="spline")
