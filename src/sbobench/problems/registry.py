"""Name -> factory registry used by the CLI and the harness."""

import inspect

from .esp import EspProblem
from .hpo import HpoProblem
from .pipe import PipeProblem
from .synthetic import RosenbrockProblem, SphereProblem
from .windwake import WindWakeProblem

_FACTORIES = {"esp-proxy": EspProblem, "hpo-proxy": HpoProblem,
              "pipe-proxy": PipeProblem, "rosenbrock": RosenbrockProblem,
              "sphere": SphereProblem, "windwake-toy": WindWakeProblem}


def available_problems() -> tuple:
    return tuple(sorted(_FACTORIES))


def make_problem(token: str, seed: int = 0, **params):
    """Instantiate a registered problem by its CLI token (seeding as in ``register_problem``)."""
    if token not in _FACTORIES:
        raise KeyError(
            f"unknown problem {token!r}; available: {', '.join(available_problems())}"
        )
    factory = _FACTORIES[token]
    if "seed" in inspect.signature(factory).parameters:
        return factory(seed=seed, **params)
    return factory(**params)


def register_problem(token: str, factory) -> None:
    """Expose a custom problem factory under a CLI token.

    A factory whose signature has a ``seed`` parameter is called with the
    harness-derived seed, as the built-in problem classes are; any other is
    called with the problem parameters only.  Registering an existing token
    replaces it.  Under ``--jobs > 1`` one job computes at a time and others
    run only while an evaluation waits, so a problem whose ``_objective``
    waits on I/O should override ``Problem.waits`` to return True.
    """
    _FACTORIES[token] = factory


def unregister_problem(token: str) -> None:
    _FACTORIES.pop(token, None)
