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
files however fast the machine is.  The bytes hold for the same numpy,
scipy and OpenBLAS build at the same BLAS thread count (the stamp that
``tests/golden_manifest.json`` records), and for the same batch shapes:
the rounding of a matrix product depends on how many rows share it.

An :class:`EvaluationError` (a failed external command or a non-finite
objective) or a solver's :class:`FitError` aborts the run: the partial
log is kept, flagged ``aborted``, with the diagnostic in ``note``; a
failed ``observe`` keeps its evaluation as the log's last row.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from ..core import RunLog, write_run_log
from ..core.rng import derive_seed
from ..problems import EvaluationError
from ..solvers import make_solver
from ..surrogates import FitError
from .config import ExperimentConfig


def run_single(problem, solver, max_eval, budget_seconds=None, virtual_time=False,
               overrides=None, lock=None) -> RunLog:
    """Drive one solver on one problem until a stop rule fires.

    ``lock``, held by the caller, is released around each evaluation when
    ``problem.waits(virtual_time)``, and taken back before the run goes on.
    """
    release = lock is not None and problem.waits(virtual_time)
    points, objectives, eval_times, solver_times = [], [], [], []
    virtual_clock = 0.0
    start = time.monotonic()
    aborted = False
    note = ""

    def elapsed() -> float:
        return virtual_clock if virtual_time else time.monotonic() - start

    while len(points) < max_eval:
        if budget_seconds is not None and elapsed() >= budget_seconds:
            break
        tick = time.perf_counter()
        try:
            point = solver.suggest()
        except FitError as err:
            aborted, note = True, f"{type(err).__name__}: {err}"
            break
        suggest_time = time.perf_counter() - tick
        if release:
            lock.release()
        try:
            objective, eval_time = problem.evaluate(point, virtual=virtual_time)
        except EvaluationError as err:
            aborted, note = True, str(err)
            break
        finally:
            if release:
                lock.acquire()
        tick = time.perf_counter()
        try:
            solver.observe(point, objective)
        except FitError as err:
            aborted, note = True, f"{type(err).__name__}: {err}"
        observe_time = time.perf_counter() - tick

        virtual_clock += eval_time
        points.append(point)
        objectives.append(objective)
        eval_times.append(eval_time)
        solver_times.append(0.0 if virtual_time else suggest_time + observe_time)
        if aborted:
            break

    return RunLog(
        problem_id=problem.id,
        solver_id=solver.kind,
        seed=solver.seed,
        rand_init=solver.R,
        points=points,
        objectives=objectives,
        eval_times=eval_times,
        solver_times=solver_times,
        overrides=overrides,
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
    ``jobs > 1`` they execute on a thread pool under one lock: a job
    holds it from building its problem until its log is written, and lets
    another job run only while an evaluation waits (:meth:`Problem.waits`:
    a subprocess or a real-time sleep).  Waits overlap, CPU work does not,
    so CPU-bound runs are no slower than with ``jobs=1`` and their
    ``solver_time`` is not inflated by other jobs.  A real-time budget
    clock starts when the job first holds the lock.
    """
    out_dir = Path(cfg.out_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "max_eval": cfg.max_eval,
        "budget_seconds": cfg.budget_seconds,
        "virtual_time": cfg.virtual_time,
        "base_seed": cfg.base_seed,
        "problem_params": dict(cfg.problem_params),
    }
    lock = threading.Lock() if cfg.jobs > 1 else None

    def one(task):
        kind, repetition = task
        seed = derive_seed(cfg.base_seed, kind, repetition)
        with lock or nullcontext():
            problem = cfg.make_problem()
            problem.seed_noise(derive_seed(cfg.base_seed, "noise", kind, repetition))
            solver_overrides = dict(cfg.overrides.get(kind, {}))
            solver = make_solver(kind, problem.space, R=cfg.rand_init, seed=seed,
                                 overrides=solver_overrides)
            log = run_single(problem, solver, cfg.max_eval,
                             budget_seconds=cfg.budget_seconds,
                             virtual_time=cfg.virtual_time, overrides=solver_overrides,
                             lock=lock)
            path = out_dir / log_filename(problem.id, solver.kind, repetition)
            write_run_log(log, problem.space, path, extra=header)
        return path, (log.note if log.aborted else None)

    tasks = [(kind, t) for kind in cfg.solvers for t in range(1, cfg.repetitions + 1)]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(one, tasks))
    else:
        results = [one(task) for task in tasks]
    paths = [path for path, _ in results]
    aborted = {path: note for path, note in results if note is not None}
    return paths, aborted
