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


def _run_bests(objectives, solver_times, budgets, eval_times):
    """One run's best objective per (budget, eval_time), and whether each is defined.

    Each evaluation cost takes one ``searchsorted`` of the whole budget
    axis, and the bests are read off the run's running minimum.  That
    equals ``objectives[:n].min()`` except, at a 0.0 / -0.0 tie, in the
    sign of the zero, which no mean keeps: ``np.mean`` sums from 0.0.
    """
    shape = (len(budgets), len(eval_times))
    if not objectives.size:
        return np.zeros(shape), np.zeros(shape, dtype=bool)
    running = np.minimum.accumulate(objectives)
    bests, defined = np.empty(shape), np.empty(shape, dtype=bool)
    for j, eval_time in enumerate(eval_times):
        finish = np.cumsum(solver_times + eval_time)
        n = np.searchsorted(finish, budgets, side="right")
        ok = (n > 0) & ~((n == finish.size) & (finish[-1] < budgets))
        bests[:, j], defined[:, j] = running[n - 1], ok
    return bests, defined


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
        by_solver.setdefault(log.solver_id, []).append((log.objectives, log.solver_times))
    solvers = tuple(sorted(by_solver))
    budget_axis = np.array(budgets)
    defined = np.ones((len(budgets), len(eval_times)), dtype=bool)
    means = {}
    for solver in solvers:
        outcomes = [_run_bests(objectives, solver_times, budget_axis, eval_times)
                    for objectives, solver_times in by_solver[solver]]
        for _, run_defined in outcomes:
            defined &= run_defined
        # (budget, eval_time, run), C-contiguous: the mean reduces each cell's runs
        # as one contiguous row, adding them exactly as np.mean of that cell's list.
        bests = np.stack([run_bests for run_bests, _ in outcomes], axis=-1)
        means[solver] = np.mean(bests, axis=-1).tolist()

    cells = []
    for i, (budget, row_defined) in enumerate(zip(budgets, defined.tolist())):
        for j, (eval_time, cell_defined) in enumerate(zip(eval_times, row_defined)):
            if cell_defined:
                cell_means = {solver: means[solver][i][j] for solver in solvers}
                winner = min(cell_means, key=lambda s: (cell_means[s], s))
                cells.append(ReplayCell(budget, eval_time, True, cell_means, winner))
            else:
                cells.append(ReplayCell(budget, eval_time, False))
    return ReplayGrid(budgets, eval_times, solvers, tuple(cells))
