"""Post-hoc analysis: curves, significance tests, replay grids, rules."""

from sbobench.analysis.auc import auc
from sbobench.analysis.curves import BASELINE_SOLVER, NormalisedCurve, normalize_curves
from sbobench.analysis.offline import (
    DEFAULT_GATHERING_SOLVER,
    DEFAULT_TEST_KEEP,
    DEFAULT_TRAIN_LEN,
    OfflineEvalResult,
    offline_eval,
)
from sbobench.analysis.replay import (
    DEFAULT_AXIS_COUNT,
    DEFAULT_BUDGET_RANGE,
    DEFAULT_EVAL_TIME_RANGE,
    ReplayCell,
    ReplayGrid,
    default_budgets,
    default_eval_times,
    replay,
)
from sbobench.analysis.reports import (
    convert_external_csv,
    emit_report,
    read_curves_csv,
    read_grid_csv,
    write_curves_csv,
    write_grid_csv,
    write_offline_json,
    write_rules_json,
)
from sbobench.analysis.rules import (
    FEATURE_NAMES,
    MAX_DEPTH,
    MAX_LEAVES,
    RulesTree,
    fit_rules_tree,
    grow_tree,
    rule_dataset,
)
from sbobench.analysis.stats import pairwise_ttest

__all__ = [
    "BASELINE_SOLVER",
    "DEFAULT_AXIS_COUNT",
    "DEFAULT_BUDGET_RANGE",
    "DEFAULT_EVAL_TIME_RANGE",
    "DEFAULT_GATHERING_SOLVER",
    "DEFAULT_TEST_KEEP",
    "DEFAULT_TRAIN_LEN",
    "FEATURE_NAMES",
    "MAX_DEPTH",
    "MAX_LEAVES",
    "NormalisedCurve",
    "OfflineEvalResult",
    "ReplayCell",
    "ReplayGrid",
    "RulesTree",
    "auc",
    "convert_external_csv",
    "default_budgets",
    "default_eval_times",
    "emit_report",
    "fit_rules_tree",
    "grow_tree",
    "normalize_curves",
    "offline_eval",
    "pairwise_ttest",
    "read_curves_csv",
    "read_grid_csv",
    "replay",
    "rule_dataset",
    "write_curves_csv",
    "write_grid_csv",
    "write_offline_json",
    "write_rules_json",
]
