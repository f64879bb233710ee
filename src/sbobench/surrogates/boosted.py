"""Stagewise gradient-boosted regression trees (squared-error loss).

Each round's tree keeps the grower's level-order node table
(``trees.grow``); a prediction adds the trees' scaled outputs one tree
at a time, in round order.
"""

import numpy as np

from sbobench.core.space import SearchSpace
from sbobench.surrogates.base import SurrogateModel
from sbobench.surrogates.trees import build_regression_tree


class BoostedTreesModel(SurrogateModel):
    family = "boosted_trees"

    def __init__(self, base_value: float, trees, learning_rate: float, train_losses):
        self.base_value = float(base_value)
        self.trees = list(trees)
        self.learning_rate = float(learning_rate)
        # Mean squared training loss after each round (round 0 = mean only).
        self.train_losses = list(train_losses)

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(X.shape[0], self.base_value)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out


def fit_boosted(
    space: SearchSpace,
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int = 100,
    learning_rate: float = 0.3,
    max_depth: int = 6,
) -> BoostedTreesModel:
    """Fit depth-limited trees stagewise to targets ``y`` at encoded rows ``X``.

    Starts from the target mean; each round fits one tree to the current
    residuals and adds it scaled by ``learning_rate``.  Tree growth is
    fully deterministic, so the fit takes no seed.
    """
    if len(X) < 2:
        raise ValueError("boosting needs at least two rows")
    if n_rounds < 0:
        raise ValueError("n_rounds must be non-negative")
    if not (0.0 < learning_rate <= 1.0):
        raise ValueError("learning_rate must lie in (0, 1]")
    base = float(y.mean())
    residual = y - base
    losses = [float(np.mean(residual**2))]
    trees = []
    for _ in range(n_rounds):
        tree = build_regression_tree(X, residual, min_leaf=1, max_depth=max_depth)
        residual = residual - learning_rate * tree.predict(X)
        trees.append(tree)
        losses.append(float(np.mean(residual**2)))
    return BoostedTreesModel(base, trees, learning_rate, losses)
