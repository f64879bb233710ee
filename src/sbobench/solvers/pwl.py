"""Piecewise-linear surrogate pair with coordinate-descent acquisition.

Both variants fit the same ReLU-feature least-squares model — 1000 basis
functions on purely continuous spaces, 512 otherwise — and walk the
surrogate by coordinate descent from the incumbent (two sweeps; 17-point
grids on continuous coordinates, every level on discrete ones).  They
differ *only* in how aggressively the result is perturbed before being
proposed: each variable is perturbed with probability ``factor / d``,
with factor 1 for the low-exploration variant and 4 for the
high-exploration one.  Discrete perturbations move one level up or
down; continuous ones add Gaussian noise with a tenth of the range.
"""

import numpy as np

from ..surrogates.least_squares import fit_least_squares
from .base import Solver


class PwlSolver(Solver):
    factor = 1.0

    def __init__(self, space, R, seed, n_basis=None,
                 ridge=1e-6, sweeps=2, grid=17):
        super().__init__(space, R, seed)
        if n_basis is None:
            continuous = all(v.kind == "continuous" for v in space.variables)
            n_basis = 1000 if continuous else 512
        self.n_basis = int(n_basis)
        self.ridge = float(ridge)
        self.sweeps = int(sweeps)
        self.grid = int(grid)
        # each coordinate's grid, plus a last slot for its current value
        self._columns = [np.append(self._coordinate_grid(j), 0.0)
                         for j in range(len(self._lo))]

    def _refit(self) -> None:
        self.model = fit_least_squares(
            self.space, *self._encoded_history(), family="piecewise_linear",
            ridge=self.ridge, n_basis=self.n_basis, seed=self._fit_seed(),
        )

    def _coordinate_grid(self, j: int) -> np.ndarray:
        variable = self.space.variables[j]
        if variable.kind == "continuous":
            return np.linspace(self._lo[j], self._hi[j], self.grid)
        return np.arange(self._lo[j], self._hi[j] + 1.0)

    def _coordinate_descent(self, x: np.ndarray) -> np.ndarray:
        """Walk the coordinates in turn, each to its best grid value.  The
        hinge phases ``A = x W' + b`` are formed once; moving coordinate
        ``j`` by ``delta`` gives ``A + delta W[:, j]``, taken from one
        contiguous copy of ``W'``."""
        x = x.copy()
        WT = self.model.W.T.copy()
        phases = self.model.phases(x)[0]
        for _ in range(self.sweeps):
            for j, column in enumerate(self._columns):
                column[-1] = x[j]  # the last entry keeps the current value
                trial_phases = phases + (column - x[j])[:, None] * WT[j]
                best = int(np.argmin(self.model.phase_values(trial_phases)))
                x[j], phases = column[best], trial_phases[best]
        return x

    def _perturb(self, x: np.ndarray) -> np.ndarray:
        d = len(x)
        prob = min(self.factor / d, 1.0)
        out = x.copy()
        span = self._hi - self._lo
        for j, variable in enumerate(self.space.variables):
            if self.rng.uniform() >= prob:
                continue
            if variable.kind == "continuous":
                out[j] += 0.1 * span[j] * self.rng.normal()
            else:
                out[j] += self.rng.choice([-1.0, 1.0])
        return np.clip(out, self._lo, self._hi)

    def _acquire(self):
        incumbent = self._incumbent_encoded()
        optimum = self._coordinate_descent(incumbent)
        chosen = self._perturb(optimum)
        self.last_proposal = {
            "incumbent": incumbent,
            "descent_optimum": optimum,
            "chosen_vector": chosen,
        }
        return self._decode(chosen)


class PwlLowExploreSolver(PwlSolver):
    kind = "pwl-low"


class PwlHighExploreSolver(PwlSolver):
    kind = "pwl-high"
    factor = 4.0
