"""Experiment harness: configuration, run loop, and command line."""

from .config import ExperimentConfig
from .runner import log_filename, run_experiment, run_single

__all__ = [
    "main",
    "parse_args",
    "ExperimentConfig",
    "log_filename",
    "run_experiment",
    "run_single",
]


def __getattr__(name):
    # The CLI loads on first use, so ``python -m sbobench.harness.cli``
    # does not find its own module imported before it runs.
    if name in ("main", "parse_args"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
