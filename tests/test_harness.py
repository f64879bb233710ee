"""Harness: run loop, stop rules, file emission, CLI parsing and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sbobench

from sbobench.core import best_so_far
from sbobench.core.runio import load_run_logs, sidecar_path
from sbobench.harness import (
    ExperimentConfig,
    log_filename,
    parse_args,
    run_experiment,
    run_single,
)
from sbobench.harness.cli import UsageError, main
from sbobench.problems import (
    EvaluationError,
    Problem,
    register_problem,
    sphere,
    unregister_problem,
    with_delay,
)
from sbobench.solvers import make_solver


class TestRunSingle:
    def test_stops_at_max_eval(self):
        problem = sphere(d=2)
        solver = make_solver("randomsearch", problem.space, R=3, seed=1)
        log = run_single(problem, solver, max_eval=12, rand_init=3, seed=1)
        assert len(log.records) == 12
        assert not log.aborted
        assert [r.iteration for r in log.records] == list(range(1, 13))

    def test_phases_split_at_rand_init(self):
        problem = sphere(d=2)
        solver = make_solver("forest-ucb", problem.space, R=4, seed=2)
        log = run_single(problem, solver, max_eval=7, rand_init=4, seed=2)
        phases = [r.phase for r in log.records]
        assert phases == ["random_init"] * 4 + ["model_guided"] * 3

    def test_zero_budget_gives_empty_log(self):
        problem = sphere(d=2)
        solver = make_solver("randomsearch", problem.space, R=2, seed=0)
        log = run_single(problem, solver, max_eval=50, rand_init=2, seed=0,
                         budget_seconds=0.0)
        assert log.empty
        assert not log.aborted

    def test_budget_crossing_evaluation_is_kept(self):
        # Virtual time: each evaluation costs 1.0 s.  Budget 2.5 s:
        # evaluations start at clock 0, 1, 2 (the last crosses the
        # line) and the check before the fourth suggestion stops the run.
        problem = with_delay(sphere(d=2), 1.0)
        solver = make_solver("randomsearch", problem.space, R=2, seed=3)
        log = run_single(problem, solver, max_eval=50, rand_init=2, seed=3,
                         budget_seconds=2.5, virtual_time=True)
        assert len(log.records) == 3
        assert all(r.eval_time == pytest.approx(1.0) for r in log.records)

    def test_virtual_mode_records_zero_solver_time(self):
        problem = sphere(d=3)
        solver = make_solver("gp-ucb", problem.space, R=3, seed=4)
        log = run_single(problem, solver, max_eval=6, rand_init=3, seed=4,
                         virtual_time=True)
        assert all(r.solver_time == 0.0 for r in log.records)

    def test_real_mode_solver_time_positive_for_model_solver(self):
        problem = sphere(d=2)
        solver = make_solver("gp-ucb", problem.space, R=3, seed=5)
        log = run_single(problem, solver, max_eval=6, rand_init=3, seed=5)
        assert all(r.solver_time > 0.0 for r in log.records)

    def test_wall_clock_accounting_within_five_percent(self):
        problem = with_delay(sphere(d=2), 0.02)
        solver = make_solver("randomsearch", problem.space, R=2, seed=6)
        start = time.monotonic()
        log = run_single(problem, solver, max_eval=25, rand_init=2, seed=6)
        total = time.monotonic() - start
        accounted = sum(r.eval_time + r.solver_time for r in log.records)
        assert abs(total - accounted) / total < 0.05

    def test_evaluation_error_aborts_with_partial_log(self):
        class Flaky(Problem):
            def __init__(self):
                super().__init__("flaky", sphere(d=2).space)
                self.calls = 0

            def _objective(self, point):
                self.calls += 1
                if self.calls > 4:
                    raise EvaluationError("simulator crashed")
                return 1.0

        problem = Flaky()
        solver = make_solver("randomsearch", problem.space, R=2, seed=7)
        log = run_single(problem, solver, max_eval=20, rand_init=2, seed=7)
        assert log.aborted
        assert len(log.records) == 4
        assert "simulator crashed" in log.note


class TestRunExperiment:
    def test_file_count_and_record_count(self, tmp_path):
        cfg = ExperimentConfig(
            problem="pipe-proxy", solvers=("randomsearch",), repetitions=2,
            max_eval=30, rand_init=5, out_path=str(tmp_path), base_seed=11,
            virtual_time=True,
        )
        paths, aborted = run_experiment(cfg)
        assert len(paths) == 2
        assert not aborted
        assert sorted(p.name for p in paths) == [
            "pipe-proxy__randomsearch__r001.csv",
            "pipe-proxy__randomsearch__r002.csv",
        ]
        for log, _ in load_run_logs(tmp_path):
            assert len(log.records) == 30

    def test_repetitions_use_fresh_random_points(self, tmp_path):
        cfg = ExperimentConfig(
            problem="pipe-proxy", solvers=("randomsearch",), repetitions=3,
            max_eval=5, rand_init=5, out_path=str(tmp_path), base_seed=0,
            virtual_time=True, problem_params={"d": 3},
        )
        run_experiment(cfg)
        logs = load_run_logs(tmp_path)
        first_points = {log.records[0].point.values for log, _ in logs}
        seeds = {log.seed for log, _ in logs}
        assert len(first_points) == 3
        assert len(seeds) == 3

    def test_rerun_is_byte_identical_in_virtual_mode(self, tmp_path):
        cfg = ExperimentConfig(
            problem="esp-proxy", solvers=("randomsearch", "forest-ucb"),
            repetitions=2, max_eval=12, rand_init=6, out_path=str(tmp_path),
            base_seed=9, virtual_time=True,
            problem_params={"n_slots": 6, "n_options": 3},
        )
        paths, _ = run_experiment(cfg)
        first = {p.name: p.read_bytes() for p in paths}
        sidecars1 = {p.name: sidecar_path(p).read_bytes() for p in paths}
        paths, _ = run_experiment(cfg)
        second = {p.name: p.read_bytes() for p in paths}
        sidecars2 = {p.name: sidecar_path(p).read_bytes() for p in paths}
        assert first == second
        assert sidecars1 == sidecars2

    def test_overrides_echoed_into_sidecar(self, tmp_path):
        cfg = ExperimentConfig(
            problem="pipe-proxy", solvers=("gp-ucb",), repetitions=1,
            max_eval=6, rand_init=5, out_path=str(tmp_path), base_seed=1,
            virtual_time=True, problem_params={"d": 3},
            overrides={"gp-ucb": {"beta": 1.5}},
        )
        paths, _ = run_experiment(cfg)
        meta = json.loads(sidecar_path(paths[0]).read_text())
        assert meta["overrides"] == {"beta": 1.5}
        assert meta["harness"]["max_eval"] == 6
        assert meta["harness"]["problem_params"] == {"d": 3}

    def test_parallel_jobs_match_sequential_output(self, tmp_path):
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        base = dict(problem="pipe-proxy", solvers=("randomsearch",),
                    repetitions=4, max_eval=10, rand_init=5, base_seed=3,
                    virtual_time=True, problem_params={"d": 3})
        paths_a, _ = run_experiment(
            ExperimentConfig(out_path=str(seq_dir), **base))
        paths_b, _ = run_experiment(
            ExperimentConfig(out_path=str(par_dir), jobs=4, **base))
        for a, b in zip(paths_a, paths_b):
            assert a.name == b.name
            assert a.read_bytes() == b.read_bytes()

    def test_noisy_runs_independent_of_solver_order_and_jobs(self, tmp_path):
        base = dict(problem="sphere", repetitions=2, max_eval=12, rand_init=4,
                    base_seed=1, virtual_time=True,
                    problem_params={"d": 2, "noise_sigma": 0.5})
        outputs = []
        for name, solvers, jobs in (("ab", ("randomsearch", "pwl-low"), 1),
                                    ("ba", ("pwl-low", "randomsearch"), 1),
                                    ("ab2", ("randomsearch", "pwl-low"), 2)):
            paths, _ = run_experiment(ExperimentConfig(
                out_path=str(tmp_path / name), solvers=solvers, jobs=jobs, **base))
            outputs.append({p.name: p.read_bytes() for p in paths})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1] == outputs[2]
        # Each run draws its own noise: the two repetitions' first objectives differ
        # from the noiseless value by different amounts.
        logs = {log.seed: log for log, _ in load_run_logs(tmp_path / "ab")
                if log.solver_id == "randomsearch"}
        problem = sphere(d=2)
        offsets = {round(log.records[0].objective
                         - problem.evaluate(log.records[0].point)[0], 12)
                   for log in logs.values()}
        assert len(offsets) == 2 and 0.0 not in offsets

    def test_virtual_budget_counts_only_evaluation_time(self, tmp_path):
        # pipe-proxy reports no evaluation cost in virtual mode, so a budget
        # is never spent however long the solver takes: both reruns stop at
        # max_eval and write the same bytes.
        base = dict(problem="pipe-proxy", solvers=("pwl-low",), max_eval=20,
                    rand_init=5, base_seed=2, virtual_time=True,
                    budget_seconds=1e-3, problem_params={"d": 3})
        runs = []
        for name in ("first", "second"):
            paths, _ = run_experiment(ExperimentConfig(out_path=str(tmp_path / name), **base))
            runs.append([p.read_bytes() for p in paths])
        assert runs[0] == runs[1]
        (log, _), = load_run_logs(tmp_path / "first")
        assert len(log.records) == 20

    def test_best_so_far_is_monotone_in_emitted_logs(self, tmp_path):
        cfg = ExperimentConfig(
            problem="hpo-proxy", solvers=("forest-ucb",), repetitions=1,
            max_eval=15, rand_init=5, out_path=str(tmp_path), base_seed=2,
            virtual_time=True,
        )
        run_experiment(cfg)
        (log, _), = load_run_logs(tmp_path)
        curve = best_so_far(log)
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestCliParsing:
    def test_canonical_invocation_form(self):
        cfg = parse_args(
            "--repetitions=7 --max-eval=1000 --rand-evals-all=24 "
            "esp-proxy randomsearch gp-ucb".split()
        )
        assert cfg.problem == "esp-proxy"
        assert cfg.solvers == ("randomsearch", "gp-ucb")
        assert cfg.repetitions == 7
        assert cfg.max_eval == 1000
        assert cfg.rand_init == 24
        # 7 repetitions x 2 solvers -> 14 run logs once executed.
        assert cfg.repetitions * len(cfg.solvers) == 14

    def test_overrides_routed_to_solver_and_problem(self):
        cfg = parse_args(
            "pipe-proxy gp-ucb gp-ucb.beta=1.0 pipe-proxy.d=4".split()
        )
        assert cfg.overrides == {"gp-ucb": {"beta": 1.0}}
        assert cfg.problem_params == {"d": 4}

    def test_alias_solver_names_accepted(self):
        cfg = parse_args("pipe-proxy random_search pwl_high_explore".split())
        assert cfg.solvers == ("randomsearch", "pwl-high")

    def test_missing_solver_is_usage_error(self):
        with pytest.raises(UsageError, match="solver"):
            parse_args(["pipe-proxy"])

    def test_unknown_problem_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown problem"):
            parse_args(["warp-drive", "randomsearch"])

    def test_unknown_solver_is_usage_error(self):
        with pytest.raises(UsageError, match="unknown solver"):
            parse_args(["pipe-proxy", "randomsearch", "annealing"])

    def test_r_exceeding_max_eval_is_usage_error(self):
        with pytest.raises(UsageError, match="exceeds max-?_?eval"):
            parse_args("--rand-evals-all=50 --max-eval=20 "
                       "pipe-proxy randomsearch".split())

    def test_out_path_env_default(self, monkeypatch):
        monkeypatch.setenv("SBOBENCH_OUT", "/tmp/sbobench-results")
        cfg = parse_args("pipe-proxy randomsearch".split())
        assert cfg.out_path == "/tmp/sbobench-results"

    def test_override_for_absent_solver_rejected(self):
        with pytest.raises(UsageError, match="not part of this experiment"):
            parse_args("pipe-proxy randomsearch gp-ucb.beta=1.0".split())


class TestCliMain:
    def test_success_exit_zero_and_paths_printed(self, tmp_path, capsys):
        code = main([
            "--repetitions=1", "--max-eval=8", "--rand-evals-all=4",
            "--virtual-time", f"--out-path={tmp_path}",
            "pipe-proxy", "randomsearch", "pipe-proxy.d=3",
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].endswith("pipe-proxy__randomsearch__r001.csv")

    def test_usage_error_exit_two(self, capsys):
        assert main(["pipe-proxy"]) == 2
        assert "solver" in capsys.readouterr().err

    def test_bad_flag_exit_two(self, capsys):
        assert main(["--max-eval=not-a-number", "pipe-proxy",
                     "randomsearch"]) == 2

    def test_abort_exit_one(self, tmp_path, capsys):
        class Exploding(Problem):
            def __init__(self):
                super().__init__("exploding", sphere(d=2).space)

            def _objective(self, point):
                raise EvaluationError("boom")

        register_problem("exploding", Exploding)
        try:
            code = main([
                "--max-eval=5", "--rand-evals-all=2",
                f"--out-path={tmp_path}", "exploding", "randomsearch",
            ])
        finally:
            unregister_problem("exploding")
        assert code == 1
        captured = capsys.readouterr()
        assert "boom" in captured.err
        meta = json.loads(
            (tmp_path / "exploding__randomsearch__r001.json").read_text())
        assert meta["aborted"] is True
        assert meta["empty"] is True

    def test_non_finite_objective_aborts_each_run_keeping_its_log(self, tmp_path, capsys):
        class NanOnFourth(Problem):
            def __init__(self):
                super().__init__("nan-fourth", sphere(d=2).space)
                self.calls = 0

            def _objective(self, point):
                self.calls += 1
                return float("nan") if self.calls == 4 else 1.0

        register_problem("nan-fourth", NanOnFourth)
        try:
            code = main([
                "--max-eval=8", "--rand-evals-all=3", "--virtual-time",
                f"--out-path={tmp_path}", "nan-fourth", "randomsearch", "forest-ucb",
            ])
        finally:
            unregister_problem("nan-fourth")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        aborted = [line for line in err if line.startswith("aborted: ")]
        assert len(aborted) == 2
        assert all("nan-fourth: objective nan is not finite" in line for line in aborted)
        for solver in ("randomsearch", "forest-ucb"):
            csv_path = tmp_path / f"nan-fourth__{solver}__r001.csv"
            assert csv_path.exists()
            meta = json.loads(sidecar_path(csv_path).read_text())
            assert meta["aborted"] is True
            assert "not finite" in meta["note"]
        logs = load_run_logs(tmp_path)
        assert [len(log.records) for log, _ in logs] == [3, 3]

    def test_nan_budget_is_usage_error(self, tmp_path, capsys):
        code = main([
            "--budget-seconds=nan", "--max-eval=5", "--rand-evals-all=2",
            "--virtual-time", f"--out-path={tmp_path}", "pipe-proxy", "randomsearch",
        ])
        assert code == 2
        assert "budget_seconds must be non-negative" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(sbobench.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sbobench.harness.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_log_filename_format():
    assert log_filename("esp-proxy", "gp-ucb", 7) == "esp-proxy__gp-ucb__r007.csv"
