"""Experiment configuration shared by the runner and the CLI."""

from dataclasses import dataclass, field
from typing import Mapping

from ..problems import available_problems
from ..solvers import canonical_kind


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run (problem x solvers x repetitions).

    ``budget_seconds`` switches the stop rule from evaluation counting
    to a wall-clock (or, with ``virtual_time``, simulated) budget; the
    evaluation-count cap still applies as a ceiling.  ``solvers`` may use
    aliases and is stored as canonical kinds.  ``overrides`` maps a
    solver of the experiment, by kind or alias, to parameter overrides,
    and is stored keyed by kind; problem parameters travel in
    ``problem_params``.
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
        if self.problem not in available_problems():
            raise ValueError(f"unknown problem {self.problem!r}; available: "
                             f"{', '.join(available_problems())}")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        kinds = []
        for token in self.solvers:
            kind = canonical_kind(token)
            if kind in kinds:
                alias = f" ({token!r} is an alias of it)" if token != kind else ""
                raise ValueError(f"solver {kind!r} is given more than once{alias}")
            kinds.append(kind)
        overrides = {}
        for token, params in self.overrides.items():
            try:
                kind = canonical_kind(token)
            except KeyError:
                kind = None
            if kind not in kinds:
                raise ValueError(f"override key {token!r} names no solver of this experiment")
            if kind in overrides:
                raise ValueError(f"overrides for solver {kind!r} are given more than once")
            overrides[kind] = params
        object.__setattr__(self, "solvers", tuple(kinds))
        object.__setattr__(self, "overrides", overrides)
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
