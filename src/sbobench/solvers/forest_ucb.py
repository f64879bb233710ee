"""Random-forest surrogate with confidence-bound scoring on candidates.

The forest handles every variable kind natively (splits are thresholds
on encoded indices), and its candidates are valid encoded rows.
Acquisition scores a deterministic candidate matrix: 256 uniform rows
plus 256 single-variable mutations spread over the best four incumbents,
picking the score maximiser with ties going to the lowest candidate
index.  Only the chosen row is decoded into a point.

Draw order from the solver's stream, per acquisition: the uniform block
(``sample_encoded``, column by column); the column each mutant redraws
(one integer per mutant); then a second ``sample_encoded`` block with
one row per mutant, from which mutant k takes its redrawn column.
Mutant k starts as elite ``k % 4``, the elites being the best rows of
the history under a stable sort on the objective.
"""

import numpy as np

from ..surrogates.encoding import sample_encoded
from ..surrogates.forest import fit_forest
from .acquisition import DEFAULT_BETA, ucb_score
from .base import Solver, at_least, scale


class ForestUcbSolver(Solver):
    kind = "forest-ucb"

    def __init__(self, space, R, seed, beta=DEFAULT_BETA,
                 n_trees=24, uniform_candidates=256, mutations=256,
                 elites=4):
        super().__init__(space, R, seed)
        self.beta = scale("beta", beta)
        self.n_trees = at_least("n_trees", n_trees)
        self.uniform_candidates = at_least("uniform_candidates", uniform_candidates, 0)
        self.mutations = at_least("mutations", mutations, 0)
        at_least("uniform_candidates plus mutations", self.uniform_candidates + self.mutations)
        self.elites = at_least("elites", elites)

    def _refit(self) -> None:
        self.model = fit_forest(self.space, *self._encoded_history(),
                                n_trees=self.n_trees, seed=self._fit_seed())

    def _acquire(self):
        X, y = self._encoded_history()
        elites = X[np.argsort(y, kind="stable")[: self.elites]]
        uniform = sample_encoded(self.space, self.rng, self.uniform_candidates)
        rows = np.arange(self.mutations)
        mutants = elites[rows % len(elites)]
        columns = self.rng.integers(self.space.dimension, size=self.mutations)
        redrawn = sample_encoded(self.space, self.rng, self.mutations)
        mutants[rows, columns] = redrawn[rows, columns]
        candidates = np.vstack([uniform, mutants])
        mean, var = self.model.predict_variance_encoded(candidates)
        scores = ucb_score(mean, var, self.beta)
        chosen = int(np.argmax(scores))  # first maximum on ties
        self.last_proposal = {
            "candidates": candidates,
            "means": mean,
            "variances": var,
            "scores": scores,
            "chosen_index": chosen,
        }
        return self._decode(candidates[chosen])
