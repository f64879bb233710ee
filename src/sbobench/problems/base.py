"""Problem contract: black-box objectives with timed evaluations.

A :class:`Problem` owns a search space and maps valid points to
``(objective, eval_time)`` pairs.  Objectives are minimised.  Constraint
violations are encoded as exact penalty plateaus rather than errors, so
the evaluator is total on valid points.  Every problem evaluates through
:meth:`Problem.evaluate`; subclasses supply only ``_objective``.

Two timing modes exist.  In real mode ``eval_time`` is the measured
wall-clock of the evaluation.  In virtual mode it is the problem's
deterministic simulated cost (0.0 unless the problem defines one), which
keeps repeated runs byte-identical while still letting the harness's
simulated clock advance realistically.  :func:`with_delay` adds a
measured sleep in real mode and exactly the delay in virtual mode.

A failed external command or a non-finite objective raises
:class:`EvaluationError`, which aborts the run: its partial log and
note are kept, and the CLI exits with code 1.
"""

import copy
import math
import time

from ..core import make_rng, validate_point
from ..core.rng import derive_seed


class EvaluationError(RuntimeError):
    """An evaluation failed or gave a non-finite objective; the harness aborts the run."""


class Problem:
    """Base class for objectives defined over a SearchSpace.

    Subclasses implement `_objective(point) -> float` and may override
    `_simulated_cost(point)` (default 0.0).  An optional Gaussian noise
    model adds eps ~ N(0, noise_sigma^2) to every returned objective,
    drawn from a problem-owned stream (see :meth:`seed_noise`); it is
    disabled by default so problems are deterministic functions of the
    point.  ``delay`` is the artificial cost per call that
    :func:`with_delay` raises.
    """

    delay = 0.0

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

    def evaluate(self, point, virtual: bool = False) -> tuple[float, float]:
        """Return (objective, eval_time) for a valid point.

        Raises ValueError for an invalid point and EvaluationError for a
        non-finite objective.
        """
        message = validate_point(self.space, point)
        if message is not None:
            raise ValueError(f"invalid point for problem {self.id}: {message}")
        start = time.perf_counter()
        objective = float(self._objective(point))
        if not math.isfinite(objective):
            raise EvaluationError(f"{self.id}: objective {objective} is not finite")
        if virtual:
            eval_time = float(self._simulated_cost(point)) + self.delay
        else:
            if self.delay:
                time.sleep(self.delay)
            eval_time = time.perf_counter() - start
        if self._noise_rng is not None:
            objective += self.noise_sigma * self._noise_rng.standard_normal()
        return float(objective), float(eval_time)


def with_delay(problem: Problem, delay: float) -> Problem:
    """Make `problem` artificially expensive by `delay` seconds per call.

    Returns a shallow copy whose ``delay`` is raised by ``delay``; the
    original is left alone, and the copy continues its noise stream
    until reseeded.  Objectives are unchanged.  In real mode each call
    sleeps for the delay and reports the measured time, sleep included
    (at least ``delay``); in virtual mode it adds exactly ``delay``.
    """
    if delay < 0:
        raise ValueError("delay must be non-negative")
    delayed = copy.copy(problem)
    delayed.delay = problem.delay + float(delay)
    return delayed
