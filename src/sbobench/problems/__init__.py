"""Benchmark problems: proxies, synthetics, delays, and external commands."""

from .base import EvaluationError, Problem, with_delay
from .esp import EspProblem
from .external import SubprocessProblem, load_space_file, subprocess_problem
from .hpo import HpoProblem
from .pipe import PipeProblem
from .registry import (
    available_problems,
    make_problem,
    register_problem,
    unregister_problem,
)
from .synthetic import RosenbrockProblem, SphereProblem
from .windwake import WindWakeProblem, turbine_power

__all__ = [
    "EvaluationError",
    "Problem",
    "with_delay",
    "EspProblem",
    "SubprocessProblem",
    "load_space_file",
    "subprocess_problem",
    "HpoProblem",
    "PipeProblem",
    "available_problems",
    "make_problem",
    "register_problem",
    "unregister_problem",
    "RosenbrockProblem",
    "SphereProblem",
    "WindWakeProblem",
    "turbine_power",
]
