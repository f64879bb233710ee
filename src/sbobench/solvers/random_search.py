"""Uniform random search: the baseline every solver is normalised against."""

from ..core import sample_uniform
from .base import Solver


class RandomSearchSolver(Solver):
    kind = "randomsearch"

    def _acquire(self):
        # No model, ever: every iteration is a fresh uniform sample.
        return sample_uniform(self.space, self.rng)
