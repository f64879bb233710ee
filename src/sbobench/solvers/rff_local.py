"""Random-Fourier-feature surrogate with multistart local descent.

The surrogate is a least-squares fit on cosine features, refit from
scratch on every observation past the warm-up.  Acquisition runs
projected gradient descent on the surrogate from several starts — the
incumbent plus Gaussian-jittered copies of it — and proposes the best
end point, with a small exploration jitter added so the loop keeps
probing the neighbourhood even when the surrogate's minimiser stops
moving.  (The descent schedule is a documented stand-in: the original
method's local optimiser is unspecified.)
"""

import numpy as np

from ..surrogates.least_squares import fit_least_squares
from .base import Solver


class RffLocalSolver(Solver):
    kind = "rff-local"

    def __init__(self, space, R, seed, n_basis=500,
                 ridge=1e-6, starts=8, descent_steps=100,
                 jitter_scale=0.1, explore_scale=0.02):
        super().__init__(space, R, seed)
        self.n_basis = int(n_basis)
        self.ridge = float(ridge)
        self.starts = int(starts)
        self.descent_steps = int(descent_steps)
        self.jitter_scale = float(jitter_scale)
        self.explore_scale = float(explore_scale)

    def _refit(self) -> None:
        if len(self.history) < self.R:
            return
        self.model = fit_least_squares(
            self.space, self.history, family="random_fourier",
            ridge=self.ridge, n_basis=self.n_basis, seed=self._fit_seed(),
        )

    def _descend(self, starts: np.ndarray) -> np.ndarray:
        span = self._hi - self._lo
        x = starts.copy()
        step = 0.1 * np.max(span) * np.ones(len(x))
        value = self.model.predict_encoded(x)
        for _ in range(self.descent_steps):
            grad = np.array([self.model.gradient_encoded(v) for v in x])
            norm = np.linalg.norm(grad, axis=1, keepdims=True)
            norm[norm == 0] = 1.0
            trial = np.clip(x - step[:, None] * grad / norm, self._lo, self._hi)
            trial_value = self.model.predict_encoded(trial)
            better = trial_value < value
            x[better] = trial[better]
            value[better] = trial_value[better]
            step = np.where(better, step * 1.1, step * 0.5)
            if np.all(step < 1e-9 * np.max(span)):
                break
        return x

    def _acquire(self):
        span = self._hi - self._lo
        incumbent = self._incumbent_encoded()
        jitter = self.rng.normal(size=(self.starts - 1, len(span)))
        starts = np.vstack([
            incumbent,
            np.clip(incumbent + self.jitter_scale * span * jitter,
                    self._lo, self._hi),
        ])
        ends = self._descend(starts)
        values = self.model.predict_encoded(ends)
        best = ends[int(np.argmin(values))]
        explore = self.explore_scale * span * self.rng.normal(size=len(span))
        chosen = np.clip(best + explore, self._lo, self._hi)
        self.last_proposal = {
            "starts": starts,
            "ends": ends,
            "values": values,
            "chosen_vector": chosen,
        }
        return self._decode(chosen)
