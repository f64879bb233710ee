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
from .base import Solver, at_least, scale

STOP_FRACTION = 1e-3


class RffLocalSolver(Solver):
    kind = "rff-local"

    def __init__(self, space, R, seed, n_basis=500,
                 ridge=1e-6, starts=8, descent_steps=100,
                 jitter_scale=0.1, explore_scale=0.02):
        super().__init__(space, R, seed)
        self.n_basis = at_least("n_basis", n_basis)
        self.ridge = scale("ridge", ridge)
        self.starts = at_least("starts", starts)
        self.descent_steps = at_least("descent_steps", descent_steps, 0)
        self.jitter_scale = scale("jitter_scale", jitter_scale)
        self.explore_scale = scale("explore_scale", explore_scale)

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
        compact arrays, so a step is one gradient product with ``W``, one
        batch of trial phases, and one product with the coefficients of
        their design rows, whose cosines are written into a buffer the
        descent owns.  Accepted trials replace their starts' rows, all
        rows at once when every trial is accepted, and the slopes are
        formed only for them.  The arrays are compressed only when a start
        stops, and its step count is recorded then."""
        model = self.model
        W, b, c = model.W, model.b, model.coefficients
        neg_weights = -c[1:]  # -c * sin(A) equals c * -sin(A) bit for bit
        radius = self.jitter_scale * (self._hi - self._lo)
        lower = np.maximum(self._lo, starts - radius)
        upper = np.minimum(self._hi, starts + radius)
        tol = STOP_FRACTION * np.max(radius)
        ends = starts.copy()
        steps = np.full(len(starts), self.descent_steps)
        x = starts.copy()
        step = np.full(len(x), np.max(radius))
        # Design rows of the active starts' phases, the constant column first;
        # a compressed batch uses the leading rows, so the product keeps the
        # batch's row count.
        design = np.empty((len(x), len(c)))
        design[:, 0] = 1.0
        phases = x @ W.T + b
        np.cos(phases, out=design[:, 1:])
        value = design @ c
        weighted = neg_weights * np.sin(phases)
        index = np.arange(len(x))
        for taken in range(1, self.descent_steps + 1):
            if not len(index):
                break
            grad = weighted @ W
            norm = np.sqrt(np.add.reduce(grad * grad, axis=1, keepdims=True))
            norm[norm == 0] = 1.0
            trial = np.minimum(np.maximum(x - step[:, None] * grad / norm, lower), upper)
            trial_phases = trial @ W.T + b
            rows = design[:len(index)]
            np.cos(trial_phases, out=rows[:, 1:])
            trial_value = rows @ c
            move = np.max(np.abs(trial - x), axis=1)
            better = trial_value < value
            if better.all():
                x, value, weighted = trial, trial_value, neg_weights * np.sin(trial_phases)
            elif better.any():
                x[better] = trial[better]
                value[better] = trial_value[better]
                weighted[better] = neg_weights * np.sin(trial_phases[better])
            step = np.where(better, step * 1.1, step * 0.5)
            going = (step > tol) & (move > tol)
            if not going.all():
                stopped = ~going
                ends[index[stopped]] = x[stopped]
                steps[index[stopped]] = taken
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
