"""Bayesian optimisation: Matern-5/2 GP posterior + confidence bound.

Acquisition maximises ``ucb_score`` over 512 uniform candidates in the
encoded box, then refines the best 16 by coordinate line search (50
steps, 11-point grids per coordinate) and returns the best vector seen.
Setting the ``refine`` override to 0 makes the suggestion exactly the
arg-max over the candidate set, which is how the acquisition contract
is audited.

Hyperparameters are re-optimised every ``hyper_interval`` observations
(warm-started from the previous optimum, 4 multistarts x 100 steps — a
cheaper schedule than the offline fitting default, chosen so a
several-hundred-iteration run stays fast); between re-optimisations the
posterior is refit with the cached parameters.  Targets are centred
before fitting so the zero-mean prior reverts to the running mean
rather than to zero.
"""

import numpy as np

from ..core.rng import derive_seed
from ..surrogates.gp import (
    GaussianProcessModel,
    _pairwise_dists,
    default_params,
    optimise_hyperparameters,
)
from .acquisition import DEFAULT_BETA, ucb_score
from .base import Solver


class GpUcbSolver(Solver):
    kind = "gp-ucb"

    def __init__(self, space, R, seed, beta=DEFAULT_BETA,
                 candidates=512, refine=16, refine_steps=50,
                 hyper_interval=20, multistarts=4, steps=100):
        super().__init__(space, R, seed)
        self.beta = float(beta)
        self.n_candidates = int(candidates)
        self.n_refine = int(refine)
        self.refine_steps = int(refine_steps)
        self.hyper_interval = int(hyper_interval)
        self.multistarts = int(multistarts)
        self.steps = int(steps)
        self._params = None
        self._offset = 0.0

    def _refit(self) -> None:
        n = len(self.history)
        if n < self.R:
            return
        X, y = self._encoded_history()
        self._offset = float(y.mean())
        box_diag = float(np.sqrt(np.sum((self._hi - self._lo) ** 2)))
        if self._params is None or (n - self.R) % self.hyper_interval == 0:
            dists = _pairwise_dists(X, X)
            init = self._params or default_params(self.space, y - self._offset)
            self._params = optimise_hyperparameters(
                dists, y - self._offset, box_diag, init,
                multistarts=self.multistarts, steps=self.steps,
                seed=derive_seed(self.seed, "hyperopt", n),
            )
        self.model = GaussianProcessModel(self.space, self._params, X, y - self._offset)

    def _score(self, vectors: np.ndarray) -> tuple:
        mean, var = self.model.predict_variance_encoded(vectors)
        return mean + self._offset, var, ucb_score(mean + self._offset, var, self.beta)

    def _acquire(self):
        span = self._hi - self._lo
        cands = self._lo + self.rng.uniform(size=(self.n_candidates, len(span))) * span
        means, variances, scores = self._score(cands)
        order = np.argsort(-scores, kind="stable")
        best_vec = cands[int(np.argmax(scores))]
        best_score = float(scores.max())

        refined = cands[order[: self.n_refine]].copy()
        if len(refined) and self.refine_steps > 0:
            d = refined.shape[1]
            # Per-candidate line search with a window that shrinks on
            # every visit to a coordinate, so the search converges
            # instead of snapping to a fixed lattice.
            windows = np.tile(span / 2.0, (len(refined), 1))
            current = scores[order[: self.n_refine]].copy()
            offsets = np.linspace(-1.0, 1.0, 11)  # includes 0: keep current
            for step in range(self.refine_steps):
                j = step % d
                grid = refined[:, j][:, None] + windows[:, j][:, None] * offsets
                grid = np.clip(grid, self._lo[j], self._hi[j])
                trial = np.repeat(refined, len(offsets), axis=0)
                trial[:, j] = grid.ravel()
                _, _, s = self._score(trial)
                s = s.reshape(len(refined), len(offsets))
                best_idx = np.argmax(s, axis=1)
                best_val = s[np.arange(len(refined)), best_idx]
                improve = best_val > current
                refined[improve, j] = grid[improve, best_idx[improve]]
                current = np.where(improve, best_val, current)
                windows[:, j] *= 0.7
            if current.max() > best_score:
                best_vec = refined[int(np.argmax(current))]
                best_score = float(current.max())

        self.last_proposal = {
            "candidates": cands,
            "means": means,
            "variances": variances,
            "scores": scores,
            "chosen_index": int(np.argmax(scores)),
            "chosen_vector": np.array(best_vec),
        }
        return self._decode(best_vec)
