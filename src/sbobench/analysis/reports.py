"""Report emission: curve/grid CSV files, rules JSON, log conversion.

Floats are serialised with ``repr``, which round-trips exactly in
Python 3, so a grid written with :func:`write_grid_csv` and re-read
with :func:`read_grid_csv` compares equal to the original.  Every
report is written atomically (temp file + rename), as run logs are, so
a reader never sees a half-written file.
"""

import csv
import io
import json
from pathlib import Path

from ..core import (
    PHASE_MODEL,
    PHASE_RANDOM,
    CATEGORICAL,
    EvaluationRecord,
    RunLog,
    space_from_jsonable,
    validate_point,
    write_run_log,
)
from ..core.runio import _atomic_write
from .curves import NormalisedCurve
from .offline import OfflineEvalResult
from .replay import ReplayCell, ReplayGrid
from .rules import RulesTree

_MEAN_PREFIX = "mean_"


def _write_csv(path, header: list, rows) -> Path:
    path = Path(path)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())
    return path


def _write_json(path, payload: dict) -> Path:
    path = Path(path)
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")
    return path


def write_curves_csv(curves: dict, path) -> Path:
    """One row per (solver, iteration) with mean/std and scale metadata."""
    rows = (
        [solver, it, repr(mean), repr(std), repr(curve.r0), repr(curve.r1), curve.n_runs]
        for solver, curve in sorted(curves.items())
        for it, mean, std in zip(curve.iterations, curve.mean, curve.std)
    )
    return _write_csv(path, ["solver", "iteration", "mean", "std", "r0", "r1", "n_runs"],
                      rows)


def read_curves_csv(path) -> dict:
    groups: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["solver"], []).append(row)
    curves = {}
    for solver, rows in groups.items():
        curves[solver] = NormalisedCurve(
            solver_id=solver,
            iterations=tuple(int(r["iteration"]) for r in rows),
            mean=tuple(float(r["mean"]) for r in rows),
            std=tuple(float(r["std"]) for r in rows),
            r0=float(rows[0]["r0"]),
            r1=float(rows[0]["r1"]),
            n_runs=int(rows[0]["n_runs"]),
        )
    return curves


def write_grid_csv(grid: ReplayGrid, path) -> Path:
    """One row per grid cell; undefined cells leave winner/means empty."""
    rows = []
    for cell in grid.cells:
        row = [repr(cell.budget), repr(cell.eval_time)]
        if cell.defined:
            row += ["true", cell.winner]
            row += [repr(cell.means[s]) for s in grid.solvers]
        else:
            row += ["false", ""] + [""] * len(grid.solvers)
        rows.append(row)
    header = ["budget", "eval_time", "defined", "winner"]
    return _write_csv(path, header + [_MEAN_PREFIX + s for s in grid.solvers], rows)


def read_grid_csv(path) -> ReplayGrid:
    """Read a grid written by :func:`write_grid_csv`; ValueError names a damaged line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        solvers = tuple(
            name[len(_MEAN_PREFIX):] for name in header[4:]
        )
        cells = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, but the header has {len(header)}")
            if row[2] not in ("true", "false"):
                raise ValueError(f"{where}: defined is {row[2]!r}, not true or false")
            defined = row[2] == "true"
            try:
                means = {s: float(v) for s, v in zip(solvers, row[4:])} if defined else {}
                cells.append(ReplayCell(float(row[0]), float(row[1]), defined, means, row[3]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
    budgets = tuple(dict.fromkeys(c.budget for c in cells))
    eval_times = tuple(dict.fromkeys(c.eval_time for c in cells))
    if [(c.budget, c.eval_time) for c in cells] != [(b, e) for b in budgets for e in eval_times]:
        raise ValueError(f"{path}, line {reader.line_num}: {len(cells)} cells do not fill "
                         f"{len(budgets)} budgets x {len(eval_times)} eval times")
    return ReplayGrid(budgets, eval_times, solvers, tuple(cells))


def write_rules_json(tree: RulesTree, train_accuracy: float, test_accuracy: float, path) -> Path:
    """Nested if/else structure plus one textual rule per leaf."""
    payload = {
        "feature_names": list(tree.feature_names),
        "labels": list(tree.labels),
        "n_leaves": tree.n_leaves,
        "depth": tree.depth(),
        "train_accuracy": train_accuracy,
        "test_accuracy": test_accuracy,
        "tree": tree.to_jsonable(),
        "rules": list(tree.text_rules()),
    }
    return _write_json(path, payload)


def write_offline_json(result: OfflineEvalResult, path) -> Path:
    payload = {
        "family": result.family,
        "train_mae": {"mean": result.train_mae_mean, "std": result.train_mae_std},
        "test_mae": {"mean": result.test_mae_mean, "std": result.test_mae_std},
        "n_runs": result.n_runs,
        "test_size": result.test_size,
        "truncated": result.truncated,
    }
    return _write_json(path, payload)


def emit_report(result, path) -> Path:
    """Write any analysis product to disk, dispatching on its type.

    Accepts a curves mapping, a ReplayGrid, a (tree, train_acc,
    test_acc) triple from ``fit_rules_tree`` or an OfflineEvalResult.
    """
    if isinstance(result, ReplayGrid):
        return write_grid_csv(result, path)
    if isinstance(result, OfflineEvalResult):
        return write_offline_json(result, path)
    if isinstance(result, tuple) and len(result) == 3 and isinstance(result[0], RulesTree):
        tree, train_acc, test_acc = result
        return write_rules_json(tree, train_acc, test_acc, path)
    if isinstance(result, dict) and all(
        isinstance(v, NormalisedCurve) for v in result.values()
    ):
        return write_curves_csv(result, path)
    raise TypeError(f"no report writer for {type(result).__name__}")


def convert_external_csv(src_csv, mapping_path, out_csv) -> Path:
    """Convert a foreign evaluation CSV into the native log format.

    The mapping file is JSON with three keys: ``space`` (the variable
    specs of the problem, in jsonable form), ``header`` (problem_id,
    solver_id, seed, rand_init) and ``columns``, which names the source
    columns for ``objective``, ``eval_time``, ``solver_time``,
    optionally ``iteration``, and maps each variable to its column
    under ``columns.variables`` (variables not listed default to a
    column of the same name).
    """
    with open(mapping_path) as fh:
        mapping = json.load(fh)
    space = space_from_jsonable(mapping["space"])
    header = mapping["header"]
    columns = mapping["columns"]
    var_columns = columns.get("variables", {})
    rand_init = int(header["rand_init"])

    records = []
    with open(src_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader):
            where = f"{src_csv}, line {reader.line_num}"
            try:
                # make_point coerces integer cells, rejecting non-integral ones.
                values = {}
                for v in space.variables:
                    cell = row[var_columns.get(v.name, v.name)]
                    values[v.name] = cell if v.kind == CATEGORICAL else float(cell)
                point = space.make_point(values)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            problem = validate_point(space, point)
            if problem is not None:
                raise ValueError(f"{where}: {problem}")
            iteration = (
                int(row[columns["iteration"]]) if "iteration" in columns else i + 1
            )
            records.append(
                EvaluationRecord(
                    iteration=iteration,
                    point=point,
                    objective=float(row[columns["objective"]]),
                    eval_time=float(row[columns["eval_time"]]),
                    solver_time=float(row[columns["solver_time"]]),
                    phase=PHASE_RANDOM if iteration <= rand_init else PHASE_MODEL,
                )
            )

    log = RunLog(
        problem_id=header["problem_id"],
        solver_id=header["solver_id"],
        seed=int(header["seed"]),
        rand_init=rand_init,
        records=tuple(records),
    )
    return write_run_log(log, space, out_csv)
