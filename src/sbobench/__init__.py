"""Benchmark harness for surrogate-based optimisation of expensive black-box functions.

The package is organised around a small number of layers:

``sbobench.core``
    Search-space description, uniform sampling, evaluation records and
    run-log serialisation.
``sbobench.problems``
    Cheap stand-in problems with the cost structure of expensive
    simulations (wind-farm layout, flow-shape, discrete plateau and
    conditional tuning landscapes), plus wrappers for artificial delays
    and external simulator subprocesses.
``sbobench.surrogates``
    Surrogate model families fitted on encoded points: least-squares
    bases, Gaussian processes, random forests and boosted trees.
``sbobench.solvers``
    Optimisation loops built on those surrogates, all sharing the same
    suggest/observe contract and a random-initialisation phase.
``sbobench.harness``
    Experiment runner and command-line interface producing one CSV log
    plus JSON sidecar per run.
``sbobench.analysis``
    Post-processing: normalised convergence curves, significance tests,
    area-under-curve scores, budget-replay grids, decision rules and
    offline surrogate evaluation.
"""

from sbobench.core import (
    EvaluationRecord,
    RunLog,
    SearchSpace,
    VariableSpec,
    best_so_far,
    make_rng,
    sample_uniform,
    validate_point,
)

__version__ = "0.1.0"

__all__ = [
    "EvaluationRecord",
    "RunLog",
    "SearchSpace",
    "VariableSpec",
    "best_so_far",
    "make_rng",
    "sample_uniform",
    "validate_point",
    "__version__",
]
