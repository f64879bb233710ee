"""Solver portfolio: random baseline plus four surrogate-guided searchers."""

from .acquisition import DEFAULT_BETA, ucb_score
from .base import Solver
from .factory import available_solvers, canonical_kind, make_solver
from .forest_ucb import ForestUcbSolver
from .gp_ucb import GpUcbSolver
from .pwl import PwlHighExploreSolver, PwlLowExploreSolver, PwlSolver
from .random_search import RandomSearchSolver
from .rff_local import RffLocalSolver

__all__ = [
    "DEFAULT_BETA",
    "ucb_score",
    "Solver",
    "available_solvers",
    "canonical_kind",
    "make_solver",
    "ForestUcbSolver",
    "GpUcbSolver",
    "PwlHighExploreSolver",
    "PwlLowExploreSolver",
    "PwlSolver",
    "RandomSearchSolver",
    "RffLocalSolver",
]
