"""Command-line front end.

Usage shape::

    sbobench [flags] PROBLEM SOLVER [SOLVER ...] [kind.param=value ...]

Positional tokens are one problem, at least one solver, and optional
override strings of the form ``kind.param=value`` where ``kind`` is a
solver token or the problem token (e.g. ``gp-ucb.beta=1.0`` or
``pipe-proxy.d=5``).  Exit codes: 0 success, 1 if any run aborted on an
evaluation error (a failed external command or a non-finite objective)
or a solver fit error (the run keeps its partial log and note), 2 on a
usage error.
"""

import argparse
import os
import sys

from ..solvers import available_solvers, canonical_kind
from .config import ExperimentConfig
from .runner import run_experiment


class UsageError(Exception):
    pass


def _parse_value(text: str):
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbobench",
        description="Run surrogate-optimisation solvers on benchmark problems.",
    )
    parser.add_argument("--repetitions", type=int, default=1,
                        help="independent runs per solver (default 1)")
    parser.add_argument("--out-path",
                        default=os.environ.get("SBOBENCH_OUT", "."),
                        help="directory for run logs "
                             "(default $SBOBENCH_OUT or the working directory)")
    parser.add_argument("--max-eval", type=int, default=100,
                        help="evaluations per run (default 100)")
    parser.add_argument("--rand-evals-all", type=int, default=10,
                        help="random warm-up evaluations R (default 10)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (default 0)")
    parser.add_argument("--budget-seconds", type=float, default=None,
                        help="stop each run once its clock passes this budget")
    parser.add_argument("--virtual-time", action="store_true",
                        help="simulate the clock from reported eval times")
    parser.add_argument("--jobs", type=int, default=1,
                        help="runs to execute concurrently (default 1)")
    parser.add_argument("tokens", nargs="*",
                        help="problem, solvers, and kind.param=value overrides")
    return parser


def parse_args(argv=None) -> ExperimentConfig:
    """Map CLI arguments onto an ExperimentConfig (no side effects)."""
    args = _build_parser().parse_args(argv)

    problem = None
    solvers = []
    raw_overrides = []
    for token in args.tokens:
        head = token.split("=", 1)[0]
        if "=" in token and "." in head:
            raw_overrides.append(token)
        elif problem is None:
            problem = token
        else:
            try:
                solvers.append(canonical_kind(token))
            except KeyError:
                raise UsageError(
                    f"unknown solver {token!r}; available: "
                    f"{', '.join(available_solvers())}") from None
    if problem is None:
        raise UsageError("a problem token is required")
    if not solvers:
        raise UsageError("at least one solver token is required")

    problem_params = {}
    overrides = {}
    for token in raw_overrides:
        target, assignment = token.split(".", 1)
        name, _, value = assignment.partition("=")
        if not name or not value:
            raise UsageError(f"malformed override {token!r}; "
                             "expected kind.param=value")
        parsed = _parse_value(value)
        if target == problem:
            problem_params[name] = parsed
        else:
            try:
                kind = canonical_kind(target)
            except KeyError:
                raise UsageError(
                    f"override {token!r} names neither the problem nor a "
                    "known solver") from None
            if kind not in solvers:
                raise UsageError(f"override {token!r} targets a solver that "
                                 "is not part of this experiment")
            overrides.setdefault(kind, {})[name] = parsed

    try:
        return ExperimentConfig(
            problem=problem,
            solvers=tuple(solvers),
            repetitions=args.repetitions,
            max_eval=args.max_eval,
            rand_init=args.rand_evals_all,
            out_path=args.out_path,
            base_seed=args.seed,
            budget_seconds=args.budget_seconds,
            virtual_time=args.virtual_time,
            jobs=args.jobs,
            problem_params=problem_params,
            overrides=overrides,
        )
    except ValueError as err:
        raise UsageError(str(err)) from None


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as err:  # argparse flag errors
        return int(err.code or 0)

    paths, aborted = run_experiment(cfg)
    for path in paths:
        print(path)
    for path, note in aborted.items():
        print(f"aborted: {path}: {note}", file=sys.stderr)
    return 1 if aborted else 0


if __name__ == "__main__":
    sys.exit(main())
