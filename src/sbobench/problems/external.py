"""Adapter that evaluates points through an external command.

The command template must contain an ``{input}`` placeholder.  Each
evaluation writes the point to a JSON file (a flat name -> value
mapping), substitutes its path into the template, runs the command, and
parses a single real number from standard output.  Any failure —
nonzero exit, unparseable or non-finite output, or timeout — raises
:class:`EvaluationError` so the harness aborts the run loudly instead
of recording a silent penalty: the run keeps its partial log and note,
and the CLI exits with code 1.  The command runs for real in both
timing modes, so ``eval_time`` is always measured wall-clock.

The search space is described by a JSON file holding the same variable
schema as a run-log sidecar: either a bare list of variable objects or
an object with a ``"variables"`` key.
"""

import json
import os
import shlex
import subprocess
import tempfile

from ..core.space import space_from_jsonable
from .base import EvaluationError, Problem


def load_space_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data["variables"]
    return space_from_jsonable(data)


class SubprocessProblem(Problem):
    def __init__(self, command_template: str, space, problem_id="subprocess",
                 timeout: float | None = None):
        if "{input}" not in command_template:
            raise ValueError("command template must contain an {input} placeholder")
        super().__init__(problem_id, space)
        self.command_template = command_template
        self.timeout = timeout

    def evaluate(self, point, virtual: bool = False) -> tuple[float, float]:
        return super().evaluate(point)  # the command always runs for real

    def _objective(self, point) -> float:
        fd, path = tempfile.mkstemp(suffix=".json", prefix="sbobench-point-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.space.as_mapping(point), fh)
            argv = shlex.split(self.command_template.format(input=path))
            try:
                proc = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=self.timeout)
            except subprocess.TimeoutExpired as err:
                raise EvaluationError(
                    f"{self.id}: command timed out after {self.timeout} s"
                ) from err
            except OSError as err:
                raise EvaluationError(f"{self.id}: cannot run command: {err}") from err
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
        if proc.returncode != 0:
            raise EvaluationError(
                f"{self.id}: command exited with status {proc.returncode}: "
                f"{proc.stderr.strip()[:500]}"
            )
        try:
            return float(proc.stdout.strip())
        except ValueError as err:
            raise EvaluationError(
                f"{self.id}: expected a single real on stdout, got "
                f"{proc.stdout.strip()[:200]!r}"
            ) from err


def subprocess_problem(command_template: str, space_file,
                       problem_id="subprocess",
                       timeout: float | None = None) -> Problem:
    """Wrap an external simulator command as a Problem."""
    space = load_space_file(space_file)
    return SubprocessProblem(command_template, space, problem_id, timeout)
