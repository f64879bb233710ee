"""Wind-farm layout problem with a Gaussian-deficit wake model.

Turbine positions live in a square field; the objective is the negated
mean farm power over a fixed set of wind scenarios drawn once at
construction.  Layouts with any pair of turbines closer than twice the
rotor diameter return exactly 0.0 (the infeasibility plateau).

Wake model (single wake per upstream pair, linear deficit superposition):
for a scenario with wind direction theta and speed U, let ``a`` be the
downwind and ``r`` the crosswind separation of turbine i behind turbine
j.  If ``a > 0`` the fractional speed deficit is

    d_ij = 0.6 / (1 + a / (10 D)) * exp(-r^2 / (2 sigma(a)^2)),
    sigma(a) = 0.5 D + 0.08 a,

with D the rotor diameter.  Total deficit is sum_j d_ij capped at 1, the
effective speed is u_i = U * (1 - deficit), and the turbine produces
relative power (u_i / 10)^3.  Farm power is the sum over turbines.
"""

import numpy as np

from ..core import SearchSpace, VariableSpec, make_rng
from ..core.rng import derive_seed
from .base import Problem

WAKE_STRENGTH = 0.6
WAKE_GROWTH = 0.08
WAKE_BASE_WIDTH = 0.5
WAKE_DECAY_LENGTHS = 10.0
REFERENCE_SPEED = 10.0


def turbine_power(speed):
    """Relative power of a turbine at the given wind speed (elementwise on arrays)."""
    return (speed / REFERENCE_SPEED) ** 3


class WindWakeProblem(Problem):
    """Wind-farm layout proxy: 2*n_turbines continuous variables."""

    def __init__(self, n_turbines=5, n_scenarios=5, field_side=1000.0,
                 rotor_diameter=50.0, seed=0, noise_sigma=0.0):
        if n_turbines < 2:
            raise ValueError("need at least two turbines")
        if n_scenarios < 1:
            raise ValueError("need at least one wind scenario")
        if field_side <= 0 or rotor_diameter <= 0:
            raise ValueError("field_side and rotor_diameter must be positive")
        variables = []
        for i in range(n_turbines):
            for axis in ("x", "y"):
                variables.append(
                    VariableSpec(f"{axis}{i}", "continuous",
                                 lower=0.0, upper=float(field_side))
                )
        space = SearchSpace(tuple(variables))
        super().__init__("windwake-toy", space, noise_sigma=noise_sigma,
                         noise_seed=seed)
        self.n_turbines = int(n_turbines)
        self.field_side = float(field_side)
        self.rotor_diameter = float(rotor_diameter)
        self.min_distance = 2.0 * self.rotor_diameter
        rng = make_rng(derive_seed(seed, "wind-scenarios"))
        self.scenarios = tuple(
            (float(rng.uniform(0.0, 2.0 * np.pi)), float(rng.uniform(8.0, 12.0)))
            for _ in range(int(n_scenarios))
        )

    def layout(self, point) -> np.ndarray:
        """Turbine coordinates as an (n_turbines, 2) array."""
        values = np.asarray(point, dtype=float)
        return values.reshape(self.n_turbines, 2)

    def farm_power(self, positions: np.ndarray, theta: float, speed: float) -> float:
        """Total relative farm power for one wind scenario."""
        wind = np.array([np.cos(theta), np.sin(theta)])
        delta = positions[:, None, :] - positions[None, :, :]  # i - j
        downwind = delta @ wind
        crosswind = delta @ np.array([-wind[1], wind[0]])
        width = WAKE_BASE_WIDTH * self.rotor_diameter + WAKE_GROWTH * downwind
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            deficit = (
                WAKE_STRENGTH
                / (1.0 + downwind / (WAKE_DECAY_LENGTHS * self.rotor_diameter))
                * np.exp(-(crosswind**2) / (2.0 * width**2))
            )
        deficit = np.where(downwind > 0.0, deficit, 0.0)
        total = np.minimum(deficit.sum(axis=1), 1.0)
        speeds = speed * (1.0 - total)
        return float(np.sum(turbine_power(speeds)))

    def _objective(self, point) -> float:
        positions = self.layout(point)
        diffs = positions[:, None, :] - positions[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        iu = np.triu_indices(self.n_turbines, k=1)
        if np.any(dists[iu] < self.min_distance):
            return 0.0
        powers = [self.farm_power(positions, theta, speed)
                  for theta, speed in self.scenarios]
        return -float(np.mean(powers))
