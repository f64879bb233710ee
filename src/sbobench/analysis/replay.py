"""Budget/evaluation-time replay of recorded runs.

Logged runs are re-timed under a hypothetical per-evaluation cost
tau_E: evaluation i of a run finishes at cumtime_i = sum_{j<=i}
(tau_E + solver_time_j).  Within a total budget B a run keeps its
first n(B) = |{i : cumtime_i <= B}| evaluations (an evaluation that
crosses the budget is excluded), and contributes the best objective
among them.  A grid cell is undefined when any run of any solver
either completes no evaluation (n = 0) or runs out of log before the
budget is reached.
"""

from dataclasses import dataclass, field

import numpy as np

from ..core.records import require_one_problem

DEFAULT_EVAL_TIME_RANGE = (1.2e-4, 1.296e5)
DEFAULT_BUDGET_RANGE = (4.9e-4, 1.296e5)
DEFAULT_AXIS_COUNT = 10


def default_eval_times(count: int = DEFAULT_AXIS_COUNT) -> tuple:
    lo, hi = DEFAULT_EVAL_TIME_RANGE
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


def default_budgets(count: int = DEFAULT_AXIS_COUNT) -> tuple:
    lo, hi = DEFAULT_BUDGET_RANGE
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class ReplayCell:
    """Outcome of one (budget, eval_time) grid cell."""

    budget: float
    eval_time: float
    defined: bool
    means: dict = field(default_factory=dict)
    winner: str = ""


@dataclass(frozen=True)
class ReplayGrid:
    """Replay outcomes across a budget x eval_time grid.

    Cells are stored budget-major: the cell for budgets[i] and
    eval_times[j] sits at index i * len(eval_times) + j.
    """

    budgets: tuple
    eval_times: tuple
    solvers: tuple
    cells: tuple

    def cell(self, budget_index: int, eval_time_index: int) -> ReplayCell:
        return self.cells[budget_index * len(self.eval_times) + eval_time_index]


def _run_arrays(log):
    solver_times = np.array([rec.solver_time for rec in log.records], dtype=float)
    return log.objectives, solver_times


def _finish_times(solver_times: np.ndarray, eval_time: float) -> np.ndarray:
    return np.cumsum(solver_times + eval_time)


def _completed(finish_times: np.ndarray, budget: float) -> int:
    return int(np.searchsorted(finish_times, budget, side="right"))


def replay_count(solver_times: np.ndarray, eval_time: float, budget: float) -> int:
    """Number of evaluations completed within the budget under re-timing."""
    return _completed(_finish_times(solver_times, eval_time), budget)


def replay(logs, budgets=None, eval_times=None) -> ReplayGrid:
    """Re-time logged runs over a grid of budgets and evaluation costs."""
    logs = require_one_problem(logs)
    budgets = default_budgets() if budgets is None else tuple(float(b) for b in budgets)
    eval_times = (
        default_eval_times() if eval_times is None else tuple(float(t) for t in eval_times)
    )
    if not budgets or not eval_times:
        raise ValueError("budget and eval_time axes must be non-empty")

    by_solver: dict = {}
    for log in logs:
        by_solver.setdefault(log.solver_id, []).append(_run_arrays(log))
    solvers = tuple(sorted(by_solver))
    # Each run's finish times under each evaluation cost, shared by every budget.
    finish_times = [
        {
            solver: [_finish_times(solver_times, eval_time) for _, solver_times in runs]
            for solver, runs in by_solver.items()
        }
        for eval_time in eval_times
    ]

    cells = []
    for budget in budgets:
        for eval_time, finish_by_solver in zip(eval_times, finish_times):
            means = {}
            defined = True
            for solver in solvers:
                bests = []
                for (objectives, _), cumtime in zip(by_solver[solver], finish_by_solver[solver]):
                    n = _completed(cumtime, budget)
                    if n == 0 or (n == objectives.size and cumtime[-1] < budget):
                        defined = False
                        break
                    bests.append(float(objectives[:n].min()))
                if not defined:
                    break
                means[solver] = float(np.mean(bests))
            if defined:
                winner = min(means, key=lambda s: (means[s], s))
                cells.append(
                    ReplayCell(budget, eval_time, True, means, winner)
                )
            else:
                cells.append(ReplayCell(budget, eval_time, False))
    return ReplayGrid(budgets, eval_times, solvers, tuple(cells))
