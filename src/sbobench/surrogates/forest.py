"""Bagged regression forest with across-tree predictive variance.

The model keeps the grower's level-order node table over all its trees
(``trees.grow``), node t being tree t's root, so one ``route`` from
every root gives the (trees, rows) matrix of predictions in tree order.
"""

import numpy as np

from sbobench.core.rng import make_rng
from sbobench.core.space import SearchSpace
from sbobench.surrogates.base import SurrogateModel
from sbobench.surrogates.trees import RegressionTree, grow_regression


class RandomForestModel(SurrogateModel):
    """Mean of the trees as prediction, spread across trees as variance."""

    family = "random_forest"

    def __init__(self, nodes: RegressionTree, n_trees: int):
        self.nodes = nodes
        self.n_trees = n_trees

    def _tree_matrix(self, X: np.ndarray) -> np.ndarray:
        return self.nodes.value[self.nodes.route(X, np.arange(self.n_trees))]

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        return self._tree_matrix(X).mean(axis=0)

    def predict_variance_encoded(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        preds = self._tree_matrix(X)
        return preds.mean(axis=0), preds.var(axis=0)


def fit_forest(
    space: SearchSpace,
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 24,
    min_leaf: int = 1,
    seed: int = 0,
) -> RandomForestModel:
    """Fit a bagged forest of squared-error trees to targets ``y`` at encoded rows ``X``.

    The first tree is grown on the full sample (so a one-tree forest
    with ``min_leaf=1`` memorises its training data exactly); the
    remaining trees each see a bootstrap resample drawn from the seeded
    stream, which is what gives the ensemble its predictive spread.  All
    trees are grown together, a level at a time, into one node table.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if len(X) < min_leaf:
        raise ValueError("not enough data for the requested min_leaf")
    rng = make_rng(seed)
    n = len(X)
    roots = [np.arange(n), *rng.integers(0, n, size=(n_trees - 1, n))]
    *table, _ = grow_regression(X, y, roots, min_leaf=min_leaf)
    return RandomForestModel(RegressionTree(*table), n_trees)
