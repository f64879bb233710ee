"""Experiment configuration shared by the runner and the CLI."""

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run (problem x solvers x repetitions).

    ``budget_seconds`` switches the stop rule from evaluation counting
    to a wall-clock (or, with ``virtual_time``, simulated) budget; the
    evaluation-count cap still applies as a ceiling.  ``overrides`` maps
    a solver kind (or the problem token) to parameter overrides.
    """

    problem: str
    solvers: tuple
    repetitions: int = 1
    max_eval: int = 100
    rand_init: int = 10
    out_path: str = "."
    base_seed: int = 0
    budget_seconds: float | None = None
    virtual_time: bool = False
    jobs: int = 1
    problem_params: Mapping = field(default_factory=dict)
    overrides: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not self.solvers:
            raise ValueError("at least one solver is required")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.max_eval < 1:
            raise ValueError("max_eval must be at least 1")
        if self.rand_init < 1:
            raise ValueError("rand_init must be at least 1")
        if self.rand_init > self.max_eval:
            raise ValueError("rand_init (R) exceeds max_eval")
        if self.budget_seconds is not None and not self.budget_seconds >= 0:
            raise ValueError("budget_seconds must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
