"""Area-under-curve summary of convergence over the first N iterations.

Scores are normalised so that the best objective seen anywhere on the
problem maps to 1 and the worst to 0; the AUC of a run is the mean of
its normalised best-so-far values over iterations 1..N (random
warm-up included), hence always in [0, 1].
"""

import numpy as np

from ..core.records import require_one_problem


def auc(logs, n_iterations: int) -> dict:
    """Per-solver AUC mean and standard deviation.

    Every log must provide at least ``n_iterations`` records.  The
    normalisation bounds f_min / f_max are taken across *all* supplied
    logs so that every solver is scored on the same scale.  Returns a
    mapping solver_id -> (mean_auc, std_auc).
    """
    logs = require_one_problem(logs)
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")
    for log in logs:
        if len(log) < n_iterations:
            raise ValueError(f"a {log.solver_id} run has {len(log)} records; "
                             f"need at least {n_iterations}")

    all_values = np.concatenate([log.objectives for log in logs])
    f_min = float(all_values.min())
    f_max = float(all_values.max())
    if f_min == f_max:
        raise ValueError("all objectives identical; AUC scale is degenerate")

    # One row per run: its best-so-far over the first n_iterations, normalised.
    first = np.stack([log.objectives[:n_iterations] for log in logs])
    normalised = (np.minimum.accumulate(first, axis=1) - f_max) / (f_min - f_max)
    per_solver: dict = {}
    for log, score in zip(logs, normalised.mean(axis=1).tolist()):
        per_solver.setdefault(log.solver_id, []).append(score)
    return {
        solver: (float(np.mean(vals)), float(np.std(vals)))
        for solver, vals in per_solver.items()
    }
