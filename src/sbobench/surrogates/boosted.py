"""Stagewise gradient-boosted regression trees (squared-error loss)."""

import numpy as np

from sbobench.core.space import SearchSpace
from sbobench.surrogates.base import SurrogateModel, register_family
from sbobench.surrogates.trees import RegressionTree, TreeStack, build_regression_tree


class BoostedTreesModel(SurrogateModel):
    family = "boosted_trees"

    def __init__(self, space, base_value: float, trees, learning_rate: float,
                 train_losses=None):
        super().__init__(space)
        self.base_value = float(base_value)
        self.trees = list(trees)
        self.learning_rate = float(learning_rate)
        self._stack = TreeStack(self.trees)
        # Mean squared training loss after each round (round 0 = mean only).
        self.train_losses = list(train_losses) if train_losses is not None else []

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(X.shape[0], self.base_value)
        for contribution in self._stack.predict(X):  # in tree order
            out += self.learning_rate * contribution
        return out

    def to_jsonable(self) -> dict:
        return {
            "base_value": self.base_value,
            "learning_rate": self.learning_rate,
            "trees": [t.to_jsonable() for t in self.trees],
            "train_losses": self.train_losses,
        }


register_family(
    "boosted_trees",
    lambda space, payload: BoostedTreesModel(
        space,
        payload["base_value"],
        [RegressionTree.from_jsonable(t) for t in payload["trees"]],
        payload["learning_rate"],
        payload.get("train_losses"),
    ),
)


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
    return BoostedTreesModel(space, base, trees, learning_rate, train_losses=losses)
