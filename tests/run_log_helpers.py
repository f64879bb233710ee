"""Run-log builders shared by the test modules.

Kept out of ``conftest.py`` so that ``from run_log_helpers import make_log``
names one module wherever pytest collects tests from, including runs that
also collect ``bench/tests`` with its own ``conftest.py``.
"""

from sbobench.core import (
    PHASE_MODEL,
    PHASE_RANDOM,
    EvaluationRecord,
    RunLog,
    SearchSpace,
    VariableSpec,
)


def make_log(
    objectives,
    solver_id="randomsearch",
    problem_id="toy",
    seed=0,
    rand_init=0,
    eval_times=None,
    solver_times=None,
    space=None,
    points=None,
):
    """Build a RunLog over a 1-D dummy space from plain number lists."""
    if space is None:
        space = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),))
    n = len(objectives)
    eval_times = eval_times if eval_times is not None else [0.0] * n
    solver_times = solver_times if solver_times is not None else [0.0] * n
    records = []
    for i, obj in enumerate(objectives, start=1):
        if points is not None:
            point = points[i - 1]
        else:
            point = space.make_point({space.variables[0].name: 0.5})
        records.append(
            EvaluationRecord(
                iteration=i,
                point=point,
                objective=float(obj),
                eval_time=float(eval_times[i - 1]),
                solver_time=float(solver_times[i - 1]),
                phase=PHASE_RANDOM if i <= rand_init else PHASE_MODEL,
            )
        )
    return RunLog(
        problem_id=problem_id,
        solver_id=solver_id,
        seed=seed,
        rand_init=rand_init,
        records=tuple(records),
    )
