"""The benchmark's workloads: set-up, one timed round, and the checks of a round's outputs.

A round is one whole unit of work that a run repeats until its time is
up, so every run attempts the same operations in the same proportions.
``build`` is the set-up a run repeats to time it; ``run_round`` does the
timed work and returns the operations it attempted and the ones that
failed; ``check`` checks a round's outputs in full, and a later round's
outputs byte for byte against the first's.
"""

import contextlib
import io
import itertools
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import sbobench.analysis as sba
import sbobench.core as sbc
from sbobench.core.rng import derive_seed, make_rng
from sbobench.harness import cli
from sbobench.harness.runner import log_filename
from sbobench.problems import make_problem


@dataclass
class Round:
    attempted: int
    failed: int
    op_times_s: list = field(default_factory=list)  # per analysis call; empty for CLI rounds


class CliWorkload:
    """One CLI experiment, repeated whole; an operation is one evaluation."""

    problem: str
    solvers: tuple
    problem_params: dict = {}
    rand_init: int
    jobs: int

    def __init__(self, seed, max_eval):
        self.seed = int(seed)
        self.max_eval = int(max_eval)
        self.problem_obj = None

    @property
    def threads(self):
        """Threads a round computes on."""
        return self.jobs

    def describe(self):
        return " ".join(self.argv("OUT"))

    def argv(self, out):
        return [f"--max-eval={self.max_eval}", f"--rand-evals-all={self.rand_init}",
                f"--seed={self.seed}", "--virtual-time", f"--jobs={self.jobs}",
                "--out-path", str(out), self.problem, *self.solvers,
                *(f"{self.problem}.{k}={v}" for k, v in self.problem_params.items())]

    def build(self, work_dir):
        """Construct the problem the CLI will build, for the checks to read."""
        self.problem_obj = make_problem(self.problem, seed=derive_seed(self.seed, "problem",
                                                                       self.problem),
                                        **self.problem_params)

    def log_paths(self, out):
        return [Path(out) / log_filename(self.problem, s, 1) for s in self.solvers]

    def run_round(self, out):
        printed = io.StringIO()
        self.exit_code = None
        try:
            with contextlib.redirect_stdout(printed):
                self.exit_code = cli.main(self.argv(out))
        except Exception:  # evaluations the run did not log count as failed
            traceback.print_exc(file=sys.stderr)
        self.printed = printed.getvalue().split()
        logged = 0
        for path in self.log_paths(out):
            if path.exists():
                logged += path.read_text(encoding="utf-8").count("\n") - 1
        attempted = self.max_eval * len(self.solvers)
        return Round(attempted, attempted - logged)

    def check(self, out, first_out=None):
        paths = self.log_paths(out)
        checks.require(self.exit_code == 0, f"CLI exit code {self.exit_code}")
        checks.require(self.printed == [str(p) for p in paths],
                       f"CLI printed {self.printed}, expected the {len(paths)} log paths")
        if first_out is not None:
            checks.check_same_bytes(paths, self.log_paths(first_out))
            return
        for path in paths:
            self.check_log(path, self.problem_obj)


class GpEsp(CliWorkload):
    problem = "esp-proxy"
    solvers = ("gp-ucb",)
    rand_init = 20
    jobs = 1

    def check_log(self, path, problem):
        checks.require((problem.n_slots, problem.n_options) == (49, 8), "esp-proxy is not 49 x 8")
        checks.check_esp_log(path, problem.tables, problem.n_options, self.max_eval,
                             self.rand_init)


class MatrixPipe(CliWorkload):
    problem = "pipe-proxy"
    solvers = ("randomsearch", "forest-ucb", "pwl-low", "pwl-high", "rff-local")
    problem_params = {"d": 10}
    rand_init = 10
    jobs = 2

    def check_log(self, path, problem):
        checks.check_pipe_log(path, problem.d, self.max_eval, self.rand_init)


# Analysis corpus: per-iteration solver time of label s at iteration i is
# base_s * (1 + growth_s * i) * exp(0.5 * z_i), z_i standard normal from a
# seeded stream, so cheap and growing overheads trade places across the grid.
SOLVER_TIME = {
    "randomsearch": (1e-4, 0.0),
    "gp-ucb": (2e-3, 0.05),
    "forest-ucb": (1e-2, 0.01),
    "pwl-low": (3e-2, 0.0),
}
CORPUS_PROBLEMS = {"esp-proxy": {}, "pipe-proxy": {"d": 10}, "hpo-proxy": {}}
# (is_10d_continuous, uses_cfd) per problem, the rules tree's trait features.
TRAITS = {"esp-proxy": (False, False), "pipe-proxy": (True, True), "hpo-proxy": (False, False)}
OFFLINE_FAMILIES = ("piecewise_linear", "forest", "gp")


def write_corpus(directory, seed, runs_per_solver, n_records, rand_init):
    """Random-search logs of each corpus problem under every solver label; returns records written."""
    written = 0
    for token, params in CORPUS_PROBLEMS.items():
        problem = make_problem(token, seed=derive_seed(seed, "problem", token), **params)
        for solver, (base, growth) in SOLVER_TIME.items():
            for rep in range(1, runs_per_solver + 1):
                run_seed = derive_seed(seed, "corpus", token, solver, rep)
                points = make_rng(run_seed)
                noise = make_rng(derive_seed(run_seed, "solver-time"))
                records = []
                for i in range(1, n_records + 1):
                    point = sbc.sample_uniform(problem.space, points)
                    objective, eval_time = problem.evaluate(point, virtual=True)
                    solver_time = base * (1.0 + growth * i) * math.exp(0.5 * noise.standard_normal())
                    phase = sbc.PHASE_RANDOM if i <= rand_init else sbc.PHASE_MODEL
                    records.append(sbc.EvaluationRecord(i, point, objective, eval_time,
                                                        solver_time, phase))
                log = sbc.RunLog(problem.id, solver, run_seed, rand_init, records)
                sbc.write_run_log(log, problem.space,
                                  Path(directory) / token / log_filename(token, solver, rep))
                written += n_records
    return written


class Analysis:
    """README's analysis pipeline over a seeded corpus; an operation is one analysis call."""

    threads = 1

    def __init__(self, seed, runs_per_solver=4, n_records=250, train_len=150, grid_size=48,
                 replay_checks=48):
        self.seed = int(seed)
        self.runs_per_solver = runs_per_solver
        self.n_records = n_records
        # Curves need the baseline's mean best at iteration R to differ from its mean
        # first objective; with 4 baseline runs and R = 30 a tie has odds near 1e-6.
        self.rand_init = 30
        self.train_len = train_len
        self.budgets = sba.default_budgets(grid_size)
        self.eval_times = sba.default_eval_times(grid_size)
        self.replay_checks = replay_checks
        self.corpus = None

    def describe(self):
        return (f"{len(CORPUS_PROBLEMS)} problems x {len(SOLVER_TIME)} labels x "
                f"{self.runs_per_solver} runs x {self.n_records} records, R={self.rand_init}; "
                f"{len(self.budgets)}x{len(self.eval_times)} replay grid; "
                f"offline train_len={self.train_len}")

    def build(self, work_dir):
        self.corpus = Path(work_dir) / "corpus"
        self.records_written = write_corpus(self.corpus, self.seed, self.runs_per_solver,
                                            self.n_records, self.rand_init)

    def _offline_params(self, family, token):
        if family == "piecewise_linear":  # one hinge per training point
            return {"n_basis": self.train_len, "seed": derive_seed(self.seed, "offline", token)}
        if family == "forest":
            return {"seed": derive_seed(self.seed, "offline", token)}
        return {"optimise_hypers": True, "multistarts": 2, "steps": 10,
                "seed": derive_seed(self.seed, "offline", token)}

    def run_round(self, out):
        times = []

        def call(fn, *args, **kwargs):
            tick = time.perf_counter()
            value = fn(*args, **kwargs)
            times.append(time.perf_counter() - tick)
            return value

        attempted = self.planned_calls()
        try:
            self._pipeline(call, Path(out))
        except Exception:  # the raising call and every later one in the round count as failed
            traceback.print_exc(file=sys.stderr)
        return Round(attempted, attempted - len(times), times)

    def _pipeline(self, call, out):
        self.result = result = {"problems": {}}
        grids = {}
        for token in CORPUS_PROBLEMS:
            pairs = call(sbc.load_run_logs, self.corpus / token)
            logs = [log for log, _ in pairs]
            mine = result["problems"][token] = {"pairs": pairs}
            mine["curves"] = call(sba.normalize_curves, logs, R=self.rand_init)
            mine["auc"] = call(sba.auc, logs, n_iterations=self.n_records)
            finals = {}
            for log in logs:
                finals.setdefault(log.solver_id, []).append(min(r.objective for r in log.records))
            mine["ttests"] = [
                (finals[a], finals[b], call(sba.pairwise_ttest, finals[a], finals[b]))
                for a, b in itertools.combinations(sorted(finals), 2)]
            grid = grids[token] = mine["grid"] = call(
                sba.replay, logs, budgets=self.budgets, eval_times=self.eval_times)
            mine["offline"] = {
                family: call(sba.offline_eval, pairs, family, train_len=self.train_len,
                             **self._offline_params(family, token))
                for family in OFFLINE_FAMILIES}
            call(sba.emit_report, mine["curves"], out / token / "curves.csv")
            call(sba.emit_report, grid, out / token / "grid.csv")
            for family, res in mine["offline"].items():
                call(sba.emit_report, res, out / token / f"offline_{family}.json")
        X, y = call(sba.rule_dataset, grids, TRAITS)
        result["rules_X"] = X
        result["rules"] = call(sba.fit_rules_tree, X, y)
        call(sba.emit_report, result["rules"], out / "rules.json")

    def planned_calls(self):
        pairs = math.comb(len(SOLVER_TIME), 2)
        per_problem = 3 + pairs + 1 + len(OFFLINE_FAMILIES) + 2 + len(OFFLINE_FAMILIES)
        return len(CORPUS_PROBLEMS) * per_problem + 3

    def report_paths(self, out):
        out = Path(out)
        paths = [out / "rules.json"]
        for token in CORPUS_PROBLEMS:
            paths += [out / token / "curves.csv", out / token / "grid.csv"]
            paths += [out / token / f"offline_{f}.json" for f in OFFLINE_FAMILIES]
        return paths

    def check(self, out, first_out=None):
        result = self.result
        if first_out is not None:
            for path, ref in zip(self.report_paths(out), self.report_paths(first_out)):
                checks.require(path.read_bytes() == ref.read_bytes(),
                               f"{path.name} differs between repeated rounds")
            return
        read = 0
        for token, mine in result["problems"].items():
            read += sum(len(log.records) for log, _ in mine["pairs"])
            runs = checks.logged_runs(self.corpus / token)
            pick = make_rng(derive_seed(self.seed, "replay-check", token))
            cells = pick.choice(len(mine["grid"].cells), size=self.replay_checks, replace=False)
            checks.check_replay(mine["grid"], runs, sorted(int(k) for k in cells))
            for a, b, p_value in mine["ttests"]:
                checks.check_ttest(p_value, a, b)
            checks.check_curve_anchors(mine["curves"], runs, self.rand_init)
            checks.require(all(0.0 <= mean <= 1.0 for mean, _ in mine["auc"].values()),
                           f"{token}: AUC outside [0, 1]: {mine['auc']}")
            pool = sum(len(objectives) for label in runs.values() for objectives, _ in label)
            for res in mine["offline"].values():
                checks.check_offline(res, len(runs["randomsearch"]), pool)
            checks.check_grid_csv(Path(out) / token / "grid.csv", mine["grid"])
        checks.require(read == self.records_written,
                       f"read {read} records, set-up wrote {self.records_written}")
        tree = result["rules"][0]
        checks.check_rules(tree, result["rules_X"])


WORKLOADS = {
    "gp-esp": lambda seed: GpEsp(seed, max_eval=80),
    "matrix-pipe": lambda seed: MatrixPipe(seed, max_eval=25),
    "analysis": Analysis,
}
