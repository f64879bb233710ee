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


def _format_value(kind: str, value) -> str:
    if kind == CONTINUOUS:
        return repr(float(value))
    if kind == INTEGER:
        return str(int(value))
    return str(value)


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_columns(space))
    for rec in log.records:
        row = [str(rec.iteration), rec.phase]
        for v, value in zip(space.variables, rec.point.values):
            row.append(_format_value(v.kind, value))
        row.extend([repr(rec.objective), repr(rec.eval_time), repr(rec.solver_time)])
        writer.writerow(row)
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

    records = []
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        if columns != _columns(space):
            raise ValueError(f"unexpected columns in {csv_path}: {columns}")
        for row in reader:
            iteration = int(row[0])
            phase = row[1]
            values = []
            for v, cell in zip(space.variables, row[2 : 2 + space.dimension]):
                if v.kind == CONTINUOUS:
                    values.append(float(cell))
                elif v.kind == INTEGER:
                    values.append(int(cell))
                else:
                    values.append(cell)
            vals = tuple(values)
            point = Point(values=vals, active=space.activity(vals))
            objective, eval_time, solver_time = (float(c) for c in row[2 + space.dimension :])
            records.append(
                EvaluationRecord(
                    iteration=iteration,
                    point=point,
                    objective=objective,
                    eval_time=eval_time,
                    solver_time=solver_time,
                    phase=phase,
                )
            )

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
