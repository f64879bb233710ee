"""Run-log serialisation: one CSV per run plus a JSON sidecar.

CSV columns are ``iteration,phase,<one column per variable>,objective,
eval_time_s,solver_time_s``.  Floats are written with ``repr`` (shortest
round-trip form, up to 17 significant digits) so parsing restores the
exact bits and reruns of a deterministic experiment produce
byte-identical files.  The sidecar carries everything needed to
interpret the CSV: problem and solver identifiers, seed, the number of
random-initialisation iterations, the variable schema and the RNG
algorithm identifier.
"""

import csv
import io
import json
import os
import tempfile
from pathlib import Path

from sbobench.core.records import EvaluationRecord, RunLog
from sbobench.core.space import (
    CONTINUOUS,
    INTEGER,
    Point,
    SearchSpace,
    space_from_jsonable,
    space_to_jsonable,
)


def _columns(space: SearchSpace) -> list[str]:
    """The CSV header: iteration, phase, one column per variable, then the result."""
    return ["iteration", "phase", *(v.name for v in space.variables),
            "objective", "eval_time_s", "solver_time_s"]


def _format_column(kind: str, column):
    """The CSV cells of one variable's values (a column of the log)."""
    if kind == CONTINUOUS:
        return _float_cells(column)
    if kind == INTEGER:
        return map(str, map(int, column))
    return map(str, column)


def _float_cells(column):
    """``repr(float(x))`` per value: the shortest round-trip text of a float."""
    return map(repr, map(float, column))


def _parse_column(kind: str, cells):
    """One variable's values from its CSV cells."""
    if kind == CONTINUOUS:
        return map(float, cells)
    if kind == INTEGER:
        return map(int, cells)
    return cells


def _atomic_write(path: Path, text: str):
    """Write via a temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_run_log(log: RunLog, space: SearchSpace, csv_path, extra: dict | None = None) -> Path:
    """Write ``log`` as CSV + sidecar; returns the CSV path.

    Both files are written atomically (temp file + rename) so readers
    never observe a half-written log.  ``extra`` is stored verbatim
    under the sidecar's ``"harness"`` key.
    """
    csv_path = Path(csv_path)
    records = log.records
    values = zip(*(rec.point.values for rec in records))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_columns(space))
    writer.writerows(zip(
        (str(rec.iteration) for rec in records),
        (rec.phase for rec in records),
        *(_format_column(v.kind, column) for v, column in zip(space.variables, values)),
        _float_cells(rec.objective for rec in records),
        _float_cells(rec.eval_time for rec in records),
        _float_cells(rec.solver_time for rec in records),
    ))
    _atomic_write(csv_path, buf.getvalue())

    header = {
        "problem_id": log.problem_id,
        "solver_id": log.solver_id,
        "seed": int(log.seed),
        "rand_init": int(log.rand_init),
        "rng_algorithm": log.rng_algorithm,
        "overrides": dict(log.overrides),
        "aborted": log.aborted,
        "note": log.note,
        "empty": log.empty,
        "variables": space_to_jsonable(space),
    }
    if extra:
        header["harness"] = extra
    _atomic_write(sidecar_path(csv_path), json.dumps(header, indent=2, sort_keys=True) + "\n")
    return csv_path


def read_run_log(csv_path) -> tuple[RunLog, SearchSpace]:
    """Parse a CSV + sidecar pair back into a :class:`RunLog`.

    Activity flags are recomputed from the conditional rules; values are
    parsed according to the sidecar's variable schema, so a write /
    read round trip reproduces the original log field for field.
    """
    csv_path = Path(csv_path)
    with open(sidecar_path(csv_path), encoding="utf-8") as fh:
        header = json.load(fh)
    space = space_from_jsonable(header["variables"])

    columns = _columns(space)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header_row = next(reader)
        if header_row != columns:
            raise ValueError(f"unexpected columns in {csv_path}: {header_row}")
        rows = []
        for row in reader:
            if len(row) != len(columns):
                raise ValueError(
                    f"{csv_path}, line {reader.line_num}: {len(row)} cells, "
                    f"but the header has {len(columns)}"
                )
            rows.append(row)

    cells = list(zip(*rows)) or [()] * len(columns)
    d = space.dimension
    values = zip(*(_parse_column(v.kind, column)
                   for v, column in zip(space.variables, cells[2 : 2 + d])))
    records = [
        EvaluationRecord(
            iteration=iteration,
            point=Point(values=vals, active=space.activity(vals)),
            objective=objective,
            eval_time=eval_time,
            solver_time=solver_time,
            phase=phase,
        )
        for iteration, phase, vals, objective, eval_time, solver_time in zip(
            map(int, cells[0]), cells[1], values, *(map(float, c) for c in cells[2 + d :])
        )
    ]

    log = RunLog(
        problem_id=header["problem_id"],
        solver_id=header["solver_id"],
        seed=int(header["seed"]),
        rand_init=int(header["rand_init"]),
        records=tuple(records),
        rng_algorithm=header.get("rng_algorithm", ""),
        overrides=dict(header.get("overrides", {})),
        aborted=bool(header.get("aborted", False)),
        note=header.get("note", ""),
    )
    return log, space


def load_run_logs(directory) -> list[tuple[RunLog, SearchSpace]]:
    """Read every ``*.csv`` with a sidecar under ``directory`` (sorted)."""
    directory = Path(directory)
    out = []
    for csv_file in sorted(directory.glob("*.csv")):
        if sidecar_path(csv_file).exists():
            out.append(read_run_log(csv_file))
    return out
