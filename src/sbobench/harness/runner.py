"""Experiment runner: the suggest -> evaluate -> observe loop with stops.

Per-iteration ``solver_time`` covers the suggest call plus the observe
call (model refit and acquisition together).  The stop rules are:

* evaluation count — the loop runs until ``max_eval`` records exist;
* budget — when ``budget_seconds`` is set, the clock is checked before
  each suggestion, so a run never *starts* an evaluation after the
  budget is spent, but the evaluation that crosses the budget line is
  kept.

In real mode the clock is the monotonic wall clock and ``eval_time`` is
the measured evaluation duration.  In virtual mode the clock is
simulated: it advances by the problem's reported (deterministic)
eval_time only, and the *recorded* solver_time is 0.0, so that
rerunning a configuration, budget included, yields byte-identical CSV
files on any machine.

An :class:`EvaluationError` (a failed external command or a non-finite
objective) aborts the run: the partial log is kept, flagged
``aborted``, with the diagnostic in ``note``.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..core import (
    PHASE_MODEL,
    PHASE_RANDOM,
    EvaluationRecord,
    RunLog,
    write_run_log,
)
from ..core.rng import derive_seed
from ..problems import EvaluationError, make_problem
from ..solvers import make_solver
from .config import ExperimentConfig


def run_single(problem, solver, max_eval, rand_init, seed,
               budget_seconds=None, virtual_time=False,
               overrides=None) -> RunLog:
    """Drive one solver on one problem until a stop rule fires."""
    records = []
    virtual_clock = 0.0
    start = time.monotonic()
    aborted = False
    note = ""

    def elapsed() -> float:
        return virtual_clock if virtual_time else time.monotonic() - start

    while len(records) < max_eval:
        if budget_seconds is not None and elapsed() >= budget_seconds:
            break
        tick = time.perf_counter()
        point = solver.suggest()
        suggest_time = time.perf_counter() - tick
        try:
            objective, eval_time = problem.evaluate(point, virtual=virtual_time)
        except EvaluationError as err:
            aborted = True
            note = str(err)
            break
        tick = time.perf_counter()
        solver.observe(point, objective)
        observe_time = time.perf_counter() - tick

        overhead = suggest_time + observe_time
        virtual_clock += eval_time
        iteration = len(records) + 1
        records.append(EvaluationRecord(
            iteration=iteration,
            point=point,
            objective=objective,
            eval_time=eval_time,
            solver_time=0.0 if virtual_time else overhead,
            phase=PHASE_RANDOM if iteration <= rand_init else PHASE_MODEL,
        ))

    return RunLog(
        problem_id=problem.id,
        solver_id=solver.kind,
        seed=seed,
        rand_init=rand_init,
        records=tuple(records),
        overrides=dict(overrides or {}),
        aborted=aborted,
        note=note,
    )


def log_filename(problem_id: str, solver_id: str, repetition: int) -> str:
    return f"{problem_id}__{solver_id}__r{repetition:03d}.csv"


def run_experiment(cfg: ExperimentConfig):
    """Run every (solver, repetition) pair and write one log per run.

    Returns the list of CSV paths in (solver, repetition) order and a
    ``{path: note}`` mapping of the aborted runs, in the same order.  Runs
    are independent: each builds its own problem, whose noise stream is
    keyed by (solver, repetition), so a run's log does not depend on
    which other runs are in the experiment or on their scheduling.  With
    ``jobs > 1`` they execute on a thread pool, which overlaps runs
    whose problems wait on subprocesses or sleeps.
    """
    problem_seed = derive_seed(cfg.base_seed, "problem", cfg.problem)
    out_dir = Path(cfg.out_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "max_eval": cfg.max_eval,
        "budget_seconds": cfg.budget_seconds,
        "virtual_time": cfg.virtual_time,
        "base_seed": cfg.base_seed,
        "problem_params": dict(cfg.problem_params),
    }

    def one(task):
        kind, repetition = task
        seed = derive_seed(cfg.base_seed, kind, repetition)
        problem = make_problem(cfg.problem, seed=problem_seed,
                               **dict(cfg.problem_params))
        problem.seed_noise(derive_seed(cfg.base_seed, "noise", kind, repetition))
        solver_overrides = dict(cfg.overrides.get(kind, {}))
        solver = make_solver(kind, problem.space, R=cfg.rand_init, seed=seed,
                             overrides=solver_overrides)
        log = run_single(
            problem, solver, cfg.max_eval, cfg.rand_init, seed,
            budget_seconds=cfg.budget_seconds, virtual_time=cfg.virtual_time,
            overrides=solver_overrides,
        )
        path = out_dir / log_filename(problem.id, solver.kind, repetition)
        write_run_log(log, problem.space, path, extra=header)
        return path, (log.note if log.aborted else None)

    tasks = [(kind, t) for kind in cfg.solvers
             for t in range(1, cfg.repetitions + 1)]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(one, tasks))
    else:
        results = [one(task) for task in tasks]
    paths = [path for path, _ in results]
    aborted = {path: note for path, note in results if note is not None}
    return paths, aborted
