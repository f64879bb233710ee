"""Random-forest surrogate with confidence-bound scoring on candidates.

The forest handles every variable kind natively (splits are thresholds
on encoded indices), and its candidates are valid points.  Acquisition
scores a deterministic candidate set: 256 uniform samples plus 256
single-variable mutations spread over the best four incumbents, picking
the score maximiser with ties going to the lowest candidate index.
"""

import numpy as np

from ..core import sample_uniform
from ..surrogates.encoding import encode_points
from ..surrogates.forest import fit_forest
from .acquisition import DEFAULT_BETA, ucb_score
from .base import Solver


class ForestUcbSolver(Solver):
    kind = "forest-ucb"

    def __init__(self, space, R, seed, beta=DEFAULT_BETA,
                 n_trees=24, uniform_candidates=256, mutations=256,
                 elites=4):
        super().__init__(space, R, seed)
        self.beta = float(beta)
        self.n_trees = int(n_trees)
        self.uniform_candidates = int(uniform_candidates)
        self.mutations = int(mutations)
        self.elites = int(elites)

    def _refit(self) -> None:
        if len(self.history) < self.R:
            return
        self.model = fit_forest(self.space, self.history,
                                n_trees=self.n_trees, seed=self._fit_seed())

    def _mutate(self, point):
        """Resample one uniformly chosen variable of an incumbent."""
        mapping = dict(self.space.as_mapping(point))
        variable = self.space.variables[self.rng.integers(len(mapping))]
        if variable.kind == "continuous":
            mapping[variable.name] = float(
                self.rng.uniform(variable.lower, variable.upper))
        elif variable.kind == "integer":
            mapping[variable.name] = int(
                self.rng.integers(variable.lower, variable.upper + 1))
        else:
            mapping[variable.name] = variable.categories[
                self.rng.integers(len(variable.categories))]
        return self.space.make_point(mapping)

    def _acquire(self):
        candidates = [sample_uniform(self.space, self.rng)
                      for _ in range(self.uniform_candidates)]
        order = np.argsort([t for _, t in self.history], kind="stable")
        elites = [self.history[i][0] for i in order[: self.elites]]
        for k in range(self.mutations):
            candidates.append(self._mutate(elites[k % len(elites)]))
        encoded = encode_points(self.space, candidates)
        mean, var = self.model.predict_variance_encoded(encoded)
        scores = ucb_score(mean, var, self.beta)
        chosen = int(np.argmax(scores))  # first maximum on ties
        self.last_proposal = {
            "candidates": encoded,
            "means": mean,
            "variances": var,
            "scores": scores,
            "chosen_index": chosen,
        }
        return candidates[chosen]
