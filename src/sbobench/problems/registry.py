"""Name -> factory registry used by the CLI and the harness."""

from .esp import esp_proxy
from .hpo import hpo_proxy
from .pipe import pipe_proxy
from .synthetic import rosenbrock, sphere
from .windwake import windwake_toy

_SEEDED = {"windwake-toy": windwake_toy, "esp-proxy": esp_proxy,
           "hpo-proxy": hpo_proxy}
_UNSEEDED = {"pipe-proxy": pipe_proxy, "sphere": sphere,
             "rosenbrock": rosenbrock}


def available_problems() -> tuple:
    return tuple(sorted(list(_SEEDED) + list(_UNSEEDED)))


def make_problem(token: str, seed: int = 0, **params):
    """Instantiate a registered problem by its CLI token."""
    if token in _SEEDED:
        return _SEEDED[token](seed=seed, **params)
    if token in _UNSEEDED:
        return _UNSEEDED[token](**params)
    raise KeyError(
        f"unknown problem {token!r}; available: {', '.join(available_problems())}"
    )


def register_problem(token: str, factory, seeded: bool = False) -> None:
    """Expose a custom problem factory under a CLI token.

    Seeded factories receive the harness-derived ``seed`` keyword;
    unseeded ones are called with user parameters only.  Registering an
    existing token replaces it.  Under ``--jobs > 1`` one job computes at
    a time and others run only while an evaluation waits, so a problem
    whose ``_objective`` waits on I/O should override ``Problem.waits``
    to return True.
    """
    _UNSEEDED.pop(token, None)
    _SEEDED.pop(token, None)
    (_SEEDED if seeded else _UNSEEDED)[token] = factory


def unregister_problem(token: str) -> None:
    _UNSEEDED.pop(token, None)
    _SEEDED.pop(token, None)
