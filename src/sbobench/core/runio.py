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

from sbobench.core.records import RowError, RunLog, check_numbering, phases
from sbobench.core.space import (
    CONTINUOUS,
    INTEGER,
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


_PARSERS = {CONTINUOUS: float, INTEGER: int}  # categorical cells stay strings
# Read once, at import: os.umask can only be read by setting it, process-wide,
# and --jobs threads write logs concurrently.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def _atomic_write(path: Path, text: str):
    """Write via a temp file in the target directory, then rename.

    The file gets a plain ``open``'s mode (0o666 less the umask), not 0o600.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_rows(path, expected=None):
    """A CSV file's header, and each later row's line number and cells.

    ValueError names the line of a row whose cell count differs from the
    header's, or of a missing header or one other than ``expected``.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or expected is not None and header != expected:
            raise ValueError(f"{path}, line 1: unexpected columns {header}")
        lines, rows = [], []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} cells, "
                                 f"but the header has {len(header)}")
            lines.append(reader.line_num)
            rows.append(row)
    return header, lines, rows


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_run_log(log: RunLog, space: SearchSpace, csv_path, extra: dict | None = None) -> Path:
    """Write ``log`` as CSV + sidecar; returns the CSV path.

    Both files are written atomically (temp file + rename) so readers
    never observe a half-written log.  ``extra`` is stored verbatim
    under the sidecar's ``"harness"`` key.
    """
    csv_path = Path(csv_path)
    n = len(log)
    values = zip(*log.points)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_columns(space))
    writer.writerows(zip(
        map(str, range(1, n + 1)),
        phases(n, log.rand_init),
        *(_format_column(v.kind, column) for v, column in zip(space.variables, values)),
        _float_cells(log.objectives.tolist()),
        _float_cells(log.eval_times.tolist()),
        _float_cells(log.solver_times.tolist()),
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
    """Parse a CSV + sidecar pair back into a :class:`RunLog`, a column at a time.

    Values are parsed according to the sidecar's variable schema, so a
    write / read round trip reproduces the original log field for field.
    A damaged row raises ``ValueError("<file>, line <n>: ...")``: a wrong
    cell count, a cell that does not parse, or a row that breaks a rule
    of :class:`RunLog` or of its numbering.
    """
    header = json.loads(sidecar_path(csv_path).read_text(encoding="utf-8"))
    space = space_from_jsonable(header["variables"])
    columns = _columns(space)
    _, lines, rows = _csv_rows(csv_path, columns)
    cells = list(zip(*rows)) or [()] * len(columns)

    def parsed(k: int, parse):
        """Column ``k`` through ``parse``; RowError names the first cell that does not."""
        try:
            return list(map(parse, cells[k]))
        except ValueError:
            for row, cell in enumerate(cells[k]):
                try:
                    parse(cell)
                except ValueError as exc:
                    raise RowError(row, f"{columns[k]}: {exc}") from None

    rand_init = int(header["rand_init"])
    try:
        values = zip(*(parsed(k, _PARSERS.get(v.kind, str))
                       for k, v in enumerate(space.variables, start=2)))
        check_numbering(parsed(0, int), cells[1], rand_init)
        log = RunLog(
            header["problem_id"], header["solver_id"], int(header["seed"]), rand_init,
            points=list(values),
            objectives=parsed(-3, float),
            eval_times=parsed(-2, float),
            solver_times=parsed(-1, float),
            rng_algorithm=header.get("rng_algorithm", ""),
            overrides=dict(header.get("overrides", {})),
            aborted=bool(header.get("aborted", False)),
            note=header.get("note", ""),
        )
    except RowError as err:
        raise ValueError(f"{csv_path}, line {lines[err.row]}: {err}") from None
    return log, space


def load_run_logs(directory) -> list[tuple[RunLog, SearchSpace]]:
    """Read every ``*.csv`` with a sidecar under ``directory`` (sorted)."""
    return [read_run_log(csv_file) for csv_file in sorted(Path(directory).glob("*.csv"))
            if sidecar_path(csv_file).exists()]
