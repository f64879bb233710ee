"""Hyperparameter-optimisation proxy on a conditional mixed space.

A root categorical ``model`` gates model-specific children (two numeric
children for ``boosted``, two for ``tree``, one for ``linear``) and an
unconditional categorical ``preproc`` is always active, so the space
mixes continuous, integer and categorical kinds and contains genuine
conditionals.

The objective is the negated synthetic validation accuracy — a logistic
squashing of a smooth, seed-perturbed score of the *active* variables —
unless the configuration's simulated training cost exceeds the time
limit of 8 simulated seconds, in which case the evaluation returns
exactly 0.0 (the timeout plateau).

Simulated cost is deterministic:

    cost = (0.3 + model_cost) * preproc_mult
    model_cost:  boosted -> 0.018 * n_rounds
                 tree    -> 0.05 * max_depth + 0.02 * (21 - min_leaf)
                 linear  -> 0.3
    preproc_mult: none -> 1.0, scale -> 1.1, pca -> 1.6

Only boosted configurations can exceed the limit (e.g. 500 rounds with
PCA costs (0.3 + 9.0) * 1.6 = 14.88).  In virtual-time mode the
reported eval_time is this cost capped at the limit, mimicking a run
that is killed when its budget expires.
"""

import numpy as np

from ..core import Condition, SearchSpace, VariableSpec, make_rng
from ..core.rng import derive_seed
from .base import Problem

TIME_LIMIT = 8.0


def _build_space() -> SearchSpace:
    return SearchSpace((
        VariableSpec("model", "categorical",
                     categories=("boosted", "tree", "linear")),
        VariableSpec("n_rounds", "integer", lower=10, upper=500,
                     condition=Condition("model", "boosted")),
        VariableSpec("learning_rate", "continuous", lower=0.01, upper=1.0,
                     condition=Condition("model", "boosted")),
        VariableSpec("max_depth", "integer", lower=1, upper=12,
                     condition=Condition("model", "tree")),
        VariableSpec("min_leaf", "integer", lower=1, upper=20,
                     condition=Condition("model", "tree")),
        VariableSpec("reg", "continuous", lower=1e-6, upper=10.0,
                     condition=Condition("model", "linear")),
        VariableSpec("preproc", "categorical",
                     categories=("none", "scale", "pca")),
    ))


class HpoProblem(Problem):
    """Conditional mixed-space proxy with a simulated-cost timeout at 8 s."""

    def __init__(self, seed=0, noise_sigma=0.0):
        super().__init__("hpo-proxy", _build_space(),
                         noise_sigma=noise_sigma, noise_seed=seed)
        self.time_limit = TIME_LIMIT
        rng = make_rng(derive_seed(seed, "hpo-score"))
        # Seed-dependent optima locations for the synthetic accuracy.
        self.best_rounds = float(150.0 * 10 ** rng.uniform(-0.1, 0.1))
        self.best_lr = float(0.08 * 10 ** rng.uniform(-0.15, 0.15))
        self.best_depth = float(rng.uniform(5.0, 9.0))
        self.best_min_leaf = float(rng.uniform(2.0, 8.0))

    @staticmethod
    def _cost(v) -> float:
        """Simulated cost of the configuration with name->value mapping ``v``."""
        if v["model"] == "boosted":
            model_cost = 0.018 * v["n_rounds"]
        elif v["model"] == "tree":
            model_cost = 0.05 * v["max_depth"] + 0.02 * (21 - v["min_leaf"])
        else:
            model_cost = 0.3
        mult = {"none": 1.0, "scale": 1.1, "pca": 1.6}[v["preproc"]]
        return (0.3 + model_cost) * mult

    def simulated_cost(self, point) -> float:
        return self._cost(self.space.as_mapping(point))

    def _simulated_cost(self, point) -> float:
        return min(self.simulated_cost(point), self.time_limit)

    def _objective(self, point) -> float:
        v = self.space.as_mapping(point)
        if self._cost(v) > self.time_limit:
            return 0.0
        if v["model"] == "boosted":
            score = (2.2
                     - 3.0 * np.log10(v["n_rounds"] / self.best_rounds) ** 2
                     - 2.0 * np.log10(v["learning_rate"] / self.best_lr) ** 2)
        elif v["model"] == "tree":
            score = (1.0
                     - 0.04 * (v["max_depth"] - self.best_depth) ** 2
                     - 0.01 * (v["min_leaf"] - self.best_min_leaf) ** 2)
        else:
            score = 0.2 - 0.3 * np.log10(v["reg"]) ** 2
        score += {"none": 0.0, "scale": 0.3, "pca": 0.1}[v["preproc"]]
        accuracy = 1.0 / (1.0 + np.exp(-score))
        return -float(accuracy)

    def default_point(self):
        """A feasible reference configuration."""
        return self.space.make_point({
            "model": "boosted",
            "n_rounds": 100,
            "learning_rate": 0.1,
            "max_depth": 6,
            "min_leaf": 5,
            "reg": 1.0,
            "preproc": "scale",
        })
