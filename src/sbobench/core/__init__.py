"""Core domain types: spaces, points, records, logs and RNG plumbing."""

from sbobench.core.records import (
    PHASE_MODEL,
    PHASE_RANDOM,
    EvaluationRecord,
    RunLog,
    best_so_far,
)
from sbobench.core.rng import RNG_ALGORITHM, derive_seed, make_rng
from sbobench.core.runio import load_run_logs, read_run_log, sidecar_path, write_run_log
from sbobench.core.space import (
    CATEGORICAL,
    CONTINUOUS,
    INTEGER,
    Condition,
    SearchSpace,
    VariableSpec,
    sample_uniform,
    space_from_jsonable,
    space_to_jsonable,
    validate_point,
    variable_from_jsonable,
    variable_to_jsonable,
)

__all__ = [
    "CATEGORICAL",
    "CONTINUOUS",
    "INTEGER",
    "Condition",
    "EvaluationRecord",
    "PHASE_MODEL",
    "PHASE_RANDOM",
    "RNG_ALGORITHM",
    "RunLog",
    "SearchSpace",
    "VariableSpec",
    "best_so_far",
    "derive_seed",
    "load_run_logs",
    "make_rng",
    "read_run_log",
    "sample_uniform",
    "sidecar_path",
    "space_from_jsonable",
    "space_to_jsonable",
    "validate_point",
    "variable_from_jsonable",
    "variable_to_jsonable",
    "write_run_log",
]
