"""Evaluation records, run logs and the best-so-far transform."""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from sbobench.core.rng import RNG_ALGORITHM
from sbobench.core.space import Point

PHASE_RANDOM = "random_init"
PHASE_MODEL = "model_guided"


@dataclass(frozen=True)
class EvaluationRecord:
    """One completed evaluation inside a run.

    ``eval_time`` is the simulator's reported cost and ``solver_time``
    the time spent suggesting the point and absorbing the observation
    (model training plus acquisition, logged combined); both in seconds.
    """

    iteration: int
    point: Point
    objective: float
    eval_time: float
    solver_time: float
    phase: str

    def __post_init__(self):
        if self.iteration < 1:
            raise ValueError("iterations are numbered from 1")
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")
        if self.eval_time < 0 or self.solver_time < 0:
            raise ValueError("times must be non-negative")
        if self.phase not in (PHASE_RANDOM, PHASE_MODEL):
            raise ValueError(f"unknown phase {self.phase!r}")


@dataclass(frozen=True)
class RunLog:
    """All records of one run plus the header needed to reproduce it.

    ``aborted`` marks runs cut short by an evaluation error; ``note``
    carries the diagnostic.  A run stopped before completing any
    evaluation is legal (e.g. a zero wall-clock budget) and simply has
    no records.
    """

    problem_id: str
    solver_id: str
    seed: int
    rand_init: int
    records: tuple[EvaluationRecord, ...]
    rng_algorithm: str = RNG_ALGORITHM
    overrides: Mapping[str, str] = field(default_factory=dict)
    aborted: bool = False
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.rand_init < 0:
            raise ValueError("rand_init must be non-negative")
        for i, rec in enumerate(self.records, start=1):
            if rec.iteration != i:
                raise ValueError("record iterations must be consecutive from 1")
            expected = PHASE_RANDOM if i <= self.rand_init else PHASE_MODEL
            if rec.phase != expected:
                raise ValueError(
                    f"iteration {i} has phase {rec.phase!r}, expected {expected!r}"
                )

    @property
    def empty(self) -> bool:
        return len(self.records) == 0

    @cached_property
    def objectives(self) -> np.ndarray:
        """Read-only objective of every record, read off the records once per log."""
        values = np.fromiter((r.objective for r in self.records), dtype=float,
                             count=len(self.records))
        values.flags.writeable = False
        return values


def best_so_far(log: RunLog) -> np.ndarray:
    """Running minimum of the objectives, one entry per iteration."""
    if not log.records:
        raise ValueError("run log has no records")
    return np.minimum.accumulate(log.objectives)
