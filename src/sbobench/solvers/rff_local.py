"""Random-Fourier-feature surrogate with multistart local descent.

The surrogate is a least-squares fit on cosine features, refit from
scratch on every observation past the warm-up.  Acquisition runs
projected gradient descent on the surrogate from several starts — the
incumbent plus Gaussian-jittered copies of it — and proposes the best
end point, with a small exploration jitter added so the loop keeps
probing the neighbourhood even when the surrogate's minimiser stops
moving.  (The descent schedule is a documented stand-in: the original
method's local optimiser is unspecified.)

Each descent is local:

* **Trust box.**  Start ``s`` descends inside ``[max(lo, s - r),
  min(hi, s + r)]`` with radius ``r = jitter_scale * span``, so a
  surrogate that extrapolates cannot carry it to the faces of the box.
* **Stop rule.**  A start stops once its step, or the largest coordinate
  change of its last projected trial, falls to ``STOP_FRACTION *
  max(r)``; later steps form nothing for it.
* **Step cap.**  No start takes more than ``descent_steps`` steps.
"""

import numpy as np

from ..surrogates.least_squares import fit_least_squares
from .base import Solver

STOP_FRACTION = 1e-3


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
        self.model = fit_least_squares(
            self.space, *self._encoded_history(), family="random_fourier",
            ridge=self.ridge, n_basis=self.n_basis, seed=self._fit_seed(),
        )

    def _descend(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Descend from every start at once, each inside its trust box;
        return the end points and the steps each start took.

        The starts still descending keep their point, step, trust box,
        value and weighted slopes ``coefficients[1:] * phase_slopes`` in
        compact arrays, so a step is one gradient product with ``W`` and
        one batch of trial phases; the slopes are formed only for the
        accepted trials, and the arrays are compressed only when a start
        stops."""
        model = self.model
        weights = model.coefficients[1:]
        radius = self.jitter_scale * (self._hi - self._lo)
        lower = np.maximum(self._lo, starts - radius)
        upper = np.minimum(self._hi, starts + radius)
        tol = STOP_FRACTION * np.max(radius)
        ends = starts.copy()
        steps = np.zeros(len(starts), dtype=int)
        x = starts.copy()
        step = np.full(len(x), np.max(radius))
        phases = model.phases(x)
        value = model.phase_values(phases)
        weighted = weights * model.phase_slopes(phases)
        index = np.arange(len(x))
        for _ in range(self.descent_steps):
            if not len(index):
                break
            grad = weighted @ model.W
            norm = np.linalg.norm(grad, axis=1, keepdims=True)
            norm[norm == 0] = 1.0
            trial = np.clip(x - step[:, None] * grad / norm, lower, upper)
            trial_phases = model.phases(trial)
            trial_value = model.phase_values(trial_phases)
            move = np.max(np.abs(trial - x), axis=1)
            better = trial_value < value
            if better.any():
                x[better] = trial[better]
                value[better] = trial_value[better]
                weighted[better] = weights * model.phase_slopes(trial_phases[better])
            step = np.where(better, step * 1.1, step * 0.5)
            steps[index] += 1
            going = (step > tol) & (move > tol)
            if not going.all():
                ends[index] = x
                x, step, lower, upper, value, weighted, index = (
                    a[going] for a in (x, step, lower, upper, value, weighted, index))
        ends[index] = x
        return ends, steps

    def _acquire(self):
        span = self._hi - self._lo
        incumbent = self._incumbent_encoded()
        jitter = self.rng.normal(size=(self.starts - 1, len(span)))
        starts = np.vstack([
            incumbent,
            np.clip(incumbent + self.jitter_scale * span * jitter,
                    self._lo, self._hi),
        ])
        ends, steps = self._descend(starts)
        values = self.model.predict_encoded(ends)
        best = ends[int(np.argmin(values))]
        explore = self.explore_scale * span * self.rng.normal(size=len(span))
        chosen = np.clip(best + explore, self._lo, self._hi)
        self.last_proposal = {
            "starts": starts,
            "ends": ends,
            "steps": steps,
            "values": values,
            "chosen_vector": chosen,
        }
        return self._decode(chosen)
