"""Problem contract: black-box objectives with timed evaluations.

A :class:`Problem` owns a search space and maps valid points to
``(objective, eval_time)`` pairs.  Objectives are minimised.  Constraint
violations are encoded as exact penalty plateaus rather than errors, so
the evaluator is total on valid points.

Two timing modes exist.  In real mode ``eval_time`` is the measured
wall-clock of the evaluation.  In virtual mode it is the problem's
deterministic simulated cost (0.0 unless the problem defines one), which
keeps repeated runs byte-identical while still letting the harness's
simulated clock advance realistically.
"""

import time

from ..core import make_rng, validate_point
from ..core.rng import derive_seed


class EvaluationError(RuntimeError):
    """An external evaluation failed; the harness aborts the run."""


class Problem:
    """Base class for objectives defined over a SearchSpace.

    Subclasses implement `_objective(point) -> float` and may override
    `_simulated_cost(point)` (default 0.0).  An optional Gaussian noise
    model adds eps ~ N(0, noise_sigma^2) to every returned objective,
    drawn from a problem-owned stream (see :meth:`seed_noise`); it is
    disabled by default so problems are deterministic functions of the
    point.
    """

    def __init__(self, problem_id, space, known_optimum=None,
                 noise_sigma=0.0, noise_seed=0):
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self.id = str(problem_id)
        self.space = space
        self.known_optimum = known_optimum
        self.noise_sigma = float(noise_sigma)
        self._noise_rng = None
        self.seed_noise(derive_seed(noise_seed, "noise", self.id))

    def seed_noise(self, seed: int) -> None:
        """Restart the noise stream from ``seed``; a no-op without noise."""
        if self.noise_sigma > 0:
            self._noise_rng = make_rng(seed)

    def _objective(self, point) -> float:
        raise NotImplementedError

    def _simulated_cost(self, point) -> float:
        return 0.0

    def _require_valid(self, point) -> None:
        """Raise ValueError unless ``point`` is valid in this problem's space."""
        message = validate_point(self.space, point)
        if message is not None:
            raise ValueError(f"invalid point for problem {self.id}: {message}")

    def evaluate(self, point, virtual: bool = False) -> tuple[float, float]:
        """Return (objective, eval_time) for a valid point."""
        self._require_valid(point)
        if virtual:
            objective = self._objective(point)
            eval_time = float(self._simulated_cost(point))
        else:
            start = time.perf_counter()
            objective = self._objective(point)
            eval_time = time.perf_counter() - start
        if self._noise_rng is not None:
            objective = objective + self.noise_sigma * self._noise_rng.standard_normal()
        return float(objective), float(eval_time)


class _DelayedProblem(Problem):
    """Wrapper adding a fixed artificial delay to every evaluation."""

    def __init__(self, inner: Problem, delay: float):
        super().__init__(inner.id, inner.space, known_optimum=inner.known_optimum)
        self._inner = inner
        self._delay = float(delay)

    def seed_noise(self, seed: int) -> None:
        """Restart the inner problem's noise stream; the delay adds no noise."""
        # Problem.__init__ calls this before the inner problem is attached,
        # and that call must leave the inner problem's stream alone.
        inner = getattr(self, "_inner", None)
        if inner is not None:
            inner.seed_noise(seed)

    def evaluate(self, point, virtual: bool = False) -> tuple[float, float]:
        objective, eval_time = self._inner.evaluate(point, virtual=virtual)
        if virtual:
            return objective, eval_time + self._delay
        start = time.perf_counter()
        time.sleep(self._delay)
        return objective, eval_time + (time.perf_counter() - start)


def with_delay(problem: Problem, delay: float) -> Problem:
    """Make `problem` artificially expensive by `delay` seconds per call.

    Objectives are unchanged.  In real mode the wrapper sleeps for
    `delay` and adds the measured sleep (at least `delay`) to the
    reported eval_time; in virtual mode it adds exactly `delay`.
    """
    if delay < 0:
        raise ValueError("delay must be non-negative")
    return _DelayedProblem(problem, delay)
