"""Solver construction by stable identifier."""

from .base import Solver
from .forest_ucb import ForestUcbSolver
from .gp_ucb import GpUcbSolver
from .pwl import PwlHighExploreSolver, PwlLowExploreSolver
from .random_search import RandomSearchSolver
from .rff_local import RffLocalSolver

_CLASSES = (
    RandomSearchSolver,
    GpUcbSolver,
    RffLocalSolver,
    PwlLowExploreSolver,
    PwlHighExploreSolver,
    ForestUcbSolver,
)

# Log identifiers are canonical; descriptive aliases map onto them.
_ALIASES = {
    "random_search": "randomsearch",
    "gp_ucb": "gp-ucb",
    "rff_local": "rff-local",
    "pwl_low_explore": "pwl-low",
    "pwl_high_explore": "pwl-high",
    "forest_ucb": "forest-ucb",
}
_BY_KIND = {cls.kind: cls for cls in _CLASSES}


def available_solvers() -> tuple:
    return tuple(sorted(_BY_KIND))


def canonical_kind(kind: str) -> str:
    kind = kind.strip()
    kind = _ALIASES.get(kind, kind)
    if kind not in _BY_KIND:
        raise KeyError(
            f"unknown solver {kind!r}; available: {', '.join(available_solvers())}"
        )
    return kind


def make_solver(kind: str, space, R: int, seed: int,
                overrides: dict | None = None) -> Solver:
    """Build a solver by kind.

    `overrides` maps constructor parameter names to values (the CLI
    feeds parsed `kind.param=value` pairs through here).
    """
    return _BY_KIND[canonical_kind(kind)](space, R, seed, **dict(overrides or {}))
