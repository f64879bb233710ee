"""Pipe-shape proxy: a smooth multimodal objective on a feasible ball.

The search space is the unit cube in ``d`` dimensions.  Points within
Euclidean distance ``rho = 0.3 * sqrt(d)`` of the centre are feasible;
everything else returns exactly 2.0.  The ball leaves every corner
infeasible (corner distance is 0.5 * sqrt(d)) while keeping a majority
of the cube's volume feasible, so optimisers receive gradient signal
instead of a near-empty feasible set.

Inside the ball the objective is

    f(x) = 0.4 + 0.9 * (|x - c| / rho)^2
         + 0.35 * mean_i (1 - cos(4 pi (x_i - 0.5))) / 2

whose feasible range is [0.4, 1.65], strictly below the penalty value 2.
The quadratic bowl pulls towards the centre and the cosine ripple adds
local minima; the unique global minimum is 0.4 at the centre.
"""

import numpy as np

from ..core import SearchSpace, VariableSpec
from .base import Problem

PENALTY = 2.0


class PipeProblem(Problem):
    """Constrained continuous proxy on [0,1]^d with penalty plateau 2."""

    def __init__(self, d=10, noise_sigma=0.0):
        if d < 2:
            raise ValueError("pipe proxy needs d >= 2")
        space = SearchSpace(
            tuple(VariableSpec(f"x{i}", "continuous", lower=0.0, upper=1.0)
                  for i in range(d))
        )
        super().__init__("pipe-proxy", space, known_optimum=0.4,
                         noise_sigma=noise_sigma)
        self.d = int(d)
        self.radius = 0.3 * np.sqrt(d)

    def _objective(self, point) -> float:
        x = np.asarray(point, dtype=float)
        z = x - 0.5
        dist = float(np.sqrt(np.sum(z**2)))
        if dist > self.radius:
            return PENALTY
        bowl = 0.9 * (dist / self.radius) ** 2
        ripple = 0.35 * float(np.mean(1.0 - np.cos(4.0 * np.pi * z))) / 2.0
        return 0.4 + bowl + ripple
