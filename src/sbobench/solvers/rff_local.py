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
        return the end points and the steps each start took.  Each step
        forms phases, values and slopes only for the starts still
        descending; slopes only for those whose trial was accepted."""
        model = self.model
        radius = self.jitter_scale * (self._hi - self._lo)
        lower = np.maximum(self._lo, starts - radius)
        upper = np.minimum(self._hi, starts + radius)
        tol = STOP_FRACTION * np.max(radius)
        x = starts.copy()
        step = np.full(len(x), np.max(radius))
        steps = np.zeros(len(x), dtype=int)
        phases = model.phases(x)
        value = model.phase_values(phases)
        slopes = model.phase_slopes(phases)
        active = np.arange(len(x))
        for _ in range(self.descent_steps):
            if not len(active):
                break
            grad = model.slope_gradient(slopes[active])
            norm = np.linalg.norm(grad, axis=1, keepdims=True)
            norm[norm == 0] = 1.0
            trial = np.clip(x[active] - step[active, None] * grad / norm,
                            lower[active], upper[active])
            trial_phases = model.phases(trial)
            trial_value = model.phase_values(trial_phases)
            move = np.max(np.abs(trial - x[active]), axis=1)
            better = trial_value < value[active]
            accepted = active[better]
            x[accepted] = trial[better]
            value[accepted] = trial_value[better]
            slopes[accepted] = model.phase_slopes(trial_phases[better])
            step[active] = np.where(better, step[active] * 1.1, step[active] * 0.5)
            steps[active] += 1
            active = active[(step[active] > tol) & (move > tol)]
        return x, steps

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
