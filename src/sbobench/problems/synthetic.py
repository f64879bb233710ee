"""Cheap synthetic benchmark functions for tests and smoke runs."""

import numpy as np

from ..core import SearchSpace, VariableSpec
from .base import Problem


def _box(d, lower, upper):
    return SearchSpace(
        tuple(VariableSpec(f"x{i}", "continuous", lower=lower, upper=upper)
              for i in range(d))
    )


class SphereProblem(Problem):
    """Separable quadratic bowl on [-5, 5]^d with optimum 0 at the origin."""

    def __init__(self, d=5, noise_sigma=0.0):
        if d < 1:
            raise ValueError("d must be positive")
        super().__init__("sphere", _box(d, -5.0, 5.0), known_optimum=0.0,
                         noise_sigma=noise_sigma)

    def _objective(self, point) -> float:
        x = np.asarray(point, dtype=float)
        return float(np.sum(x**2))


class RosenbrockProblem(Problem):
    """Banana-valley function on [-2, 2]^d with optimum 0 at (1, ..., 1)."""

    def __init__(self, d=2, noise_sigma=0.0):
        if d < 2:
            raise ValueError("d must be at least 2")
        super().__init__("rosenbrock", _box(d, -2.0, 2.0), known_optimum=0.0,
                         noise_sigma=noise_sigma)

    def _objective(self, point) -> float:
        x = np.asarray(point, dtype=float)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                            + (1.0 - x[:-1]) ** 2))
