"""Offline surrogate accuracy on recorded evaluations.

A model family is trained on the first ``train_len`` evaluations of
each data-gathering run (random search by default) and scored on a
fixed test set: the ``test_keep`` best evaluations found by *any*
solver on the problem.  Testing on the best region is deliberately
adversarial — it measures how well a surrogate extrapolates into the
part of the space optimisation actually cares about.
"""

from dataclasses import dataclass

import numpy as np

from ..core.records import require_one_problem
from ..surrogates import encode_points, fit_boosted, fit_forest, fit_gp, fit_least_squares, mae
from ..surrogates.least_squares import FAMILIES as _LS_FAMILIES

DEFAULT_GATHERING_SOLVER = "randomsearch"
DEFAULT_TRAIN_LEN = 500
DEFAULT_TEST_KEEP = 1000


@dataclass(frozen=True)
class OfflineEvalResult:
    """Mean/std of train and test MAE across gathering runs."""

    family: str
    train_mae_mean: float
    train_mae_std: float
    test_mae_mean: float
    test_mae_std: float
    n_runs: int
    test_size: int
    truncated: bool


def _fit_family(space, X, y, family: str, fit_params: dict):
    if family in _LS_FAMILIES:
        return fit_least_squares(space, X, y, family=family, **fit_params)
    if family == "gp":
        return fit_gp(space, X, y, **fit_params)
    if family == "forest":
        return fit_forest(space, X, y, **fit_params)
    if family == "boosted":
        return fit_boosted(space, X, y, **fit_params)
    raise ValueError(f"unknown model family {family!r}")


def offline_eval(
    log_pairs,
    family: str,
    gathering_solver: str = DEFAULT_GATHERING_SOLVER,
    train_len: int = DEFAULT_TRAIN_LEN,
    test_keep: int = DEFAULT_TEST_KEEP,
    **fit_params,
) -> OfflineEvalResult:
    """Train-on-random, test-on-best offline accuracy for one family.

    :param log_pairs: (RunLog, SearchSpace) pairs as returned by
        ``load_run_logs``; all logs must share one problem.
    :param fit_params: forwarded to the family's fit function
        (e.g. ``n_basis``, ``ridge``, ``seed``).
    """
    log_pairs = list(log_pairs)
    require_one_problem(log for log, _ in log_pairs)
    space = log_pairs[0][1]

    gathering = [log for log, _ in log_pairs if log.solver_id == gathering_solver]
    if not gathering:
        raise ValueError(f"no runs of gathering solver {gathering_solver!r}")
    for log in gathering:
        if len(log) < train_len:
            raise ValueError(f"a {gathering_solver} run has {len(log)} records; "
                             f"need at least train_len={train_len}")

    # The test set: the test_keep best rows of every run, ties kept in log order.
    objectives = np.concatenate([log.objectives for log, _ in log_pairs])
    points = [point for log, _ in log_pairs for point in log.points]
    best = np.argsort(objectives, kind="stable")[:test_keep]
    truncated = len(objectives) < test_keep
    X_test = encode_points(space, [points[k] for k in best])
    y_test = objectives[best]

    train_maes = []
    test_maes = []
    for log in gathering:
        X, y = encode_points(space, log.points[:train_len]), log.objectives[:train_len]
        model = _fit_family(space, X, y, family, fit_params)
        train_maes.append(mae(model, X, y))
        test_maes.append(mae(model, X_test, y_test))

    return OfflineEvalResult(
        family=family,
        train_mae_mean=float(np.mean(train_maes)),
        train_mae_std=float(np.std(train_maes)),
        test_mae_mean=float(np.mean(test_maes)),
        test_mae_std=float(np.std(test_maes)),
        n_runs=len(gathering),
        test_size=len(y_test),
        truncated=truncated,
    )
