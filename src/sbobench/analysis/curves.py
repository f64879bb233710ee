"""Normalised convergence curves relative to the random-search baseline.

Raw best-so-far values are mapped through the affine transform

    f_norm = (f - r0) / (r1 - r0)

where r0 and r1 are the baseline's mean best-so-far at iteration 1 and
at iteration R (the end of the random warm-up).  The warm-up iterations
are omitted from the curves themselves.
"""

from dataclasses import dataclass

import numpy as np

from ..core import best_so_far
from ..core.records import require_one_problem

BASELINE_SOLVER = "randomsearch"


@dataclass(frozen=True)
class NormalisedCurve:
    """Mean and standard deviation of f_norm across runs, per iteration."""

    solver_id: str
    iterations: tuple
    mean: tuple
    std: tuple
    r0: float
    r1: float
    n_runs: int


def normalize_curves(logs, R: int, baseline: str = BASELINE_SOLVER) -> dict:
    """Per-solver normalised curves for one problem's run logs.

    All logs must belong to the same problem, each run needs at least
    R + 1 records, and a baseline solver must be present.  Returns a
    mapping solver_id -> NormalisedCurve covering iterations R+1
    onwards (truncated to each solver's shortest run).
    """
    logs = require_one_problem(logs)
    groups: dict = {}
    for log in logs:
        groups.setdefault(log.solver_id, []).append(log)
    if baseline not in groups:
        raise ValueError(f"baseline solver {baseline!r} has no runs")
    for log in logs:
        if len(log) <= R:
            raise ValueError(f"a {log.solver_id} run has only {len(log)} records; "
                             f"need more than R={R}")

    baseline_bsf = [best_so_far(log) for log in groups[baseline]]
    r0 = float(np.mean([b[0] for b in baseline_bsf]))
    r1 = float(np.mean([b[R - 1] for b in baseline_bsf]))
    if r0 == r1:
        raise ValueError("degenerate baseline: r0 equals r1")

    curves = {}
    for solver_id, runs in groups.items():
        length = min(len(log) for log in runs)
        stacked = np.array([
            (best_so_far(log)[:length] - r0) / (r1 - r0) for log in runs
        ])
        post = stacked[:, R:]
        curves[solver_id] = NormalisedCurve(
            solver_id=solver_id,
            iterations=tuple(range(R + 1, length + 1)),
            mean=tuple(float(v) for v in post.mean(axis=0)),
            std=tuple(float(v) for v in post.std(axis=0)),
            r0=r0,
            r1=r1,
            n_runs=len(runs),
        )
    return curves
