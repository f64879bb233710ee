"""Bagged regression forest with across-tree predictive variance."""

import numpy as np

from sbobench.core.rng import make_rng
from sbobench.core.space import SearchSpace
from sbobench.surrogates.base import SurrogateModel, register_family
from sbobench.surrogates.trees import RegressionTree, build_regression_tree


class RandomForestModel(SurrogateModel):
    """Mean of the trees as prediction, spread across trees as variance."""

    family = "random_forest"

    def __init__(self, space, trees: list[RegressionTree], min_leaf: int, seed: int):
        super().__init__(space)
        self.trees = trees
        self.min_leaf = min_leaf
        self.seed = seed

    def _tree_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([t.predict(X) for t in self.trees], axis=0)

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        return self._tree_matrix(X).mean(axis=0)

    def predict_variance_encoded(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        preds = self._tree_matrix(X)
        return preds.mean(axis=0), preds.var(axis=0)

    def to_jsonable(self) -> dict:
        return {
            "min_leaf": self.min_leaf,
            "seed": self.seed,
            "trees": [t.to_jsonable() for t in self.trees],
        }


register_family(
    "random_forest",
    lambda space, payload: RandomForestModel(
        space,
        [RegressionTree.from_jsonable(t) for t in payload["trees"]],
        payload["min_leaf"],
        payload["seed"],
    ),
)


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
    stream, which is what gives the ensemble its predictive spread.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if len(X) < min_leaf:
        raise ValueError("not enough data for the requested min_leaf")
    rng = make_rng(seed)
    trees = [build_regression_tree(X, y, min_leaf=min_leaf)]
    n = X.shape[0]
    for _ in range(n_trees - 1):
        rows = rng.integers(0, n, size=n)
        trees.append(build_regression_tree(X[rows], y[rows], min_leaf=min_leaf))
    return RandomForestModel(space, trees, min_leaf, seed)
