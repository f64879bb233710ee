"""Random-forest surrogate and its regression-tree building block."""

import numpy as np
import pytest

from sbobench.core import SearchSpace, VariableSpec, make_rng, sample_uniform
from sbobench.surrogates import fit_forest, mae
from sbobench.surrogates.encoding import encode_points
from sbobench.surrogates.trees import RegressionTree, build_regression_tree


@pytest.fixture
def square():
    return SearchSpace(
        (
            VariableSpec("x", "continuous", lower=0.0, upper=1.0),
            VariableSpec("y", "continuous", lower=0.0, upper=1.0),
        )
    )


def _dataset(space, n, seed, fn):
    rng = make_rng(seed)
    pts = [sample_uniform(space, rng) for _ in range(n)]
    X = encode_points(space, pts)
    return pts, X, fn(X)


class TestRegressionTree:
    def test_single_tree_memorises_distinct_inputs(self):
        rng = make_rng(0)
        X = rng.uniform(size=(30, 2))
        y = rng.uniform(size=30)
        tree = build_regression_tree(X, y, min_leaf=1)
        np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)

    def test_constant_target_is_single_leaf(self):
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        y = np.full(10, 3.25)
        tree = build_regression_tree(X, y)
        assert tree.n_nodes == 1
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_depth_first_node_order_routes_the_same(self):
        # Nodes numbered depth-first, not in the builder's best-first order:
        # routing and depth do not depend on the order of the arrays.
        tree = RegressionTree(
            feature=[0, 1, -1, -1, -1],
            threshold=[0.5, 0.3, 0.0, 0.0, 0.0],
            left=[1, 2, -1, -1, -1],
            right=[4, 3, -1, -1, -1],
            value=[0.0, 0.0, 1.0, 2.0, 3.0],
        )
        X = np.array([[0.1, 0.1], [0.1, 0.9], [0.9, 0.1], [0.5, 0.3]])
        np.testing.assert_array_equal(tree.predict(X), [1.0, 2.0, 3.0, 1.0])
        np.testing.assert_array_equal(tree.apply(X), [2, 3, 4, 2])
        assert (tree.depth(), tree.n_leaves) == (2, 3)

    def test_depth_cap_limits_tree(self):
        rng = make_rng(1)
        X = rng.uniform(size=(64, 1))
        y = rng.uniform(size=64)
        tree = build_regression_tree(X, y, max_depth=2)
        # depth <= 2 means at most 4 leaves, 7 nodes.
        assert tree.n_nodes <= 7
        assert tree.depth() <= 2

    def test_split_reduces_sse(self):
        # A step function splits exactly at the jump.
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        tree = build_regression_tree(X, y, max_depth=1)
        pred = tree.predict(X)
        np.testing.assert_allclose(pred, y, atol=1e-12)

    def test_monotone_feature_relabel_invariance(self):
        # Thresholds are data-driven, so a monotone transform of one
        # feature must leave the predicted partition unchanged.
        rng = make_rng(5)
        X = rng.uniform(size=(50, 2))
        y = np.sin(5 * X[:, 0]) + X[:, 1]
        t1 = build_regression_tree(X, y, min_leaf=2)
        X2 = X.copy()
        X2[:, 0] = np.exp(3.0 * X2[:, 0])  # strictly increasing
        t2 = build_regression_tree(X2, y, min_leaf=2)
        np.testing.assert_allclose(t1.predict(X), t2.predict(X2), atol=1e-12)


class TestForest:
    def test_constant_target_gives_constant_mean_zero_variance(self, square):
        _, X, y = _dataset(square, 25, 0, lambda X: np.full(len(X), 7.0))
        model = fit_forest(square, X, y, n_trees=8, seed=1)
        mean, var = model.predict_variance_encoded(X)
        np.testing.assert_allclose(mean, 7.0, atol=1e-12)
        np.testing.assert_allclose(var, 0.0, atol=1e-12)

    def test_single_tree_forest_memorises(self, square):
        _, X, y = _dataset(square, 40, 2, lambda X: np.sin(7 * X[:, 0]) * X[:, 1])
        model = fit_forest(square, X, y, n_trees=1, min_leaf=1, seed=3)
        assert mae(model, X, y) < 1e-12

    def test_same_seed_reproduces_predictions(self, square):
        _, X, y = _dataset(square, 30, 4, lambda X: X[:, 0] ** 2)
        a = fit_forest(square, X, y, n_trees=12, seed=9)
        b = fit_forest(square, X, y, n_trees=12, seed=9)
        _, Q, _ = _dataset(square, 50, 11, lambda X: X[:, 0])
        np.testing.assert_array_equal(a.predict_encoded(Q), b.predict_encoded(Q))

    def test_different_seeds_differ(self, square):
        _, X, y = _dataset(square, 30, 4, lambda X: np.sin(9 * X[:, 0]))
        a = fit_forest(square, X, y, n_trees=12, seed=1)
        b = fit_forest(square, X, y, n_trees=12, seed=2)
        _, Q, _ = _dataset(square, 50, 11, lambda X: X[:, 0])
        assert not np.array_equal(a.predict_encoded(Q), b.predict_encoded(Q))

    def test_variance_positive_away_from_data(self, square):
        _, X, y = _dataset(square, 40, 6, lambda X: np.sin(6 * X[:, 0]) + X[:, 1])
        model = fit_forest(square, X, y, n_trees=16, seed=5)
        rng = make_rng(7)
        far = [sample_uniform(square, rng) for _ in range(100)]
        _, var = model.predict_variance_encoded(encode_points(square, far))
        assert var.max() > 0.0
