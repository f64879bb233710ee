"""Run logs as tables, their rows as records, and the best-so-far transform."""

from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from typing import Mapping

import numpy as np

from sbobench.core.rng import RNG_ALGORITHM

PHASE_RANDOM = "random_init"
PHASE_MODEL = "model_guided"


@dataclass(frozen=True)
class EvaluationRecord:
    """One row of a run log as a plain object; :attr:`RunLog.records` builds these.

    ``point`` is the tuple of the row's values, in the space's declaration
    order.  ``eval_time`` is the simulator's reported cost and
    ``solver_time`` the time spent suggesting the point and absorbing the
    observation, in seconds.
    """

    iteration: int
    point: tuple
    objective: float
    eval_time: float
    solver_time: float
    phase: str


class RowError(ValueError):
    """Row ``row`` (0-based) of a run log breaks a rule of the table."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def phases(n: int, rand_init: int) -> list[str]:
    """The phase of each of ``n`` rows: random for the first ``rand_init``."""
    return [PHASE_RANDOM if row < rand_init else PHASE_MODEL for row in range(n)]


def check_numbering(iterations, row_phases, rand_init: int):
    """Raise :class:`RowError` at the first row not numbered from 1 or off its phase."""
    want = phases(len(iterations), rand_init)
    for row, (iteration, phase) in enumerate(zip(iterations, row_phases)):
        if iteration != row + 1:
            raise RowError(row, f"iteration {iteration} at row {row + 1}: not consecutive from 1")
        if phase != want[row]:
            raise RowError(row, f"iteration {row + 1}: phase {phase!r}, expected {want[row]!r}")


@dataclass(frozen=True, eq=False)
class RunLog:
    """One run as a table, plus the header needed to reproduce it.

    Row ``i`` is iteration ``i + 1``: ``points[i]`` scored ``objectives[i]``
    in ``eval_times[i]`` seconds after ``solver_times[i]`` seconds of
    solver work (read-only float columns); its phase follows from
    ``rand_init``.  The table is checked once, here.  The fifth argument
    may give the rows as :class:`EvaluationRecord` objects instead; after
    construction ``records`` is that view, built on first use.
    ``aborted`` marks a run cut short by an evaluation error, and
    ``note`` carries the diagnostic.  A log may have no rows.
    """

    problem_id: str
    solver_id: str
    seed: int
    rand_init: int
    records: InitVar[tuple | None] = None
    points: tuple = ()
    objectives: np.ndarray = ()
    eval_times: np.ndarray = ()
    solver_times: np.ndarray = ()
    rng_algorithm: str = RNG_ALGORITHM
    overrides: Mapping[str, str] = field(default_factory=dict)
    aborted: bool = False
    note: str = ""

    def __post_init__(self, records):
        if self.rand_init < 0:
            raise ValueError("rand_init must be non-negative")
        columns = (self.points, self.objectives, self.eval_times, self.solver_times)
        if records is not None:
            rows = [(r.iteration, r.phase, r.point, r.objective, r.eval_time, r.solver_time)
                    for r in records]
            iterations, row_phases, *columns = list(zip(*rows)) or [()] * 6
            check_numbering(iterations, row_phases, self.rand_init)
        object.__setattr__(self, "points", tuple(columns[0]))
        for name, values in zip(("objectives", "eval_times", "solver_times"), columns[1:]):
            column = np.array(values, dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len(set(map(len, columns))) > 1:
            raise ValueError("run log columns differ in length")
        for name, column, rule, ok in (
                ("objective", self.objectives, "finite", np.isfinite(self.objectives)),
                ("eval_time", self.eval_times, "non-negative", self.eval_times >= 0),
                ("solver_time", self.solver_times, "non-negative", self.solver_times >= 0)):
            if not ok.all():
                row = int(np.argmin(ok))
                raise RowError(row, f"iteration {row + 1}: {name} must be {rule}, "
                                    f"not {float(column[row])!r}")

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        if not isinstance(other, RunLog):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def empty(self) -> bool:
        return len(self) == 0


def _records(log: RunLog) -> tuple[EvaluationRecord, ...]:
    """The rows of ``log`` as :class:`EvaluationRecord` objects."""
    n = len(log)
    return tuple(map(EvaluationRecord, range(1, n + 1), log.points, log.objectives.tolist(),
                     log.eval_times.tolist(), log.solver_times.tolist(),
                     phases(n, log.rand_init)))


# ``records`` is also the constructor's fifth argument, so its view is set on the
# class after the dataclass has built ``__init__`` (which keeps the None default).
RunLog.records = cached_property(_records)
RunLog.records.__set_name__(RunLog, "records")


def require_one_problem(logs) -> list[RunLog]:
    """``logs`` as a list; raises unless it is non-empty and of one problem."""
    logs = list(logs)
    if not logs:
        raise ValueError("no run logs supplied")
    problems = {log.problem_id for log in logs}
    if len(problems) > 1:
        raise ValueError(f"logs mix problems: {sorted(problems)}")
    return logs


def best_so_far(log: RunLog) -> np.ndarray:
    """Running minimum of the objectives, one entry per iteration."""
    if log.empty:
        raise ValueError("run log has no records")
    return np.minimum.accumulate(log.objectives)
