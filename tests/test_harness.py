"""Harness: run loop, stop rules, file emission, CLI parsing and exit codes."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import sbobench

from sbobench.core import best_so_far
from sbobench.core.runio import load_run_logs, read_run_log, sidecar_path
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
    SphereProblem,
    register_problem,
    unregister_problem,
    with_delay,
)
from sbobench.problems.external import SubprocessProblem
from sbobench.solvers import Solver, make_solver, pwl
from sbobench.surrogates import FitError


class TestRunSingle:
    def test_stops_at_max_eval(self):
        problem = SphereProblem(d=2)
        solver = make_solver("randomsearch", problem.space, R=3, seed=1)
        log = run_single(problem, solver, max_eval=12)
        assert len(log.records) == 12
        assert not log.aborted
        assert [r.iteration for r in log.records] == list(range(1, 13))

    def test_phases_split_at_rand_init(self):
        problem = SphereProblem(d=2)
        solver = make_solver("forest-ucb", problem.space, R=4, seed=2)
        log = run_single(problem, solver, max_eval=7)
        phases = [r.phase for r in log.records]
        assert phases == ["random_init"] * 4 + ["model_guided"] * 3

    def test_zero_budget_gives_empty_log(self):
        problem = SphereProblem(d=2)
        solver = make_solver("randomsearch", problem.space, R=2, seed=0)
        log = run_single(problem, solver, max_eval=50, budget_seconds=0.0)
        assert log.empty
        assert not log.aborted

    def test_budget_crossing_evaluation_is_kept(self):
        # Virtual time: each evaluation costs 1.0 s.  Budget 2.5 s:
        # evaluations start at clock 0, 1, 2 (the last crosses the
        # line) and the check before the fourth suggestion stops the run.
        problem = with_delay(SphereProblem(d=2), 1.0)
        solver = make_solver("randomsearch", problem.space, R=2, seed=3)
        log = run_single(problem, solver, max_eval=50, budget_seconds=2.5,
                         virtual_time=True)
        assert len(log.records) == 3
        assert all(r.eval_time == pytest.approx(1.0) for r in log.records)

    def test_virtual_mode_records_zero_solver_time(self):
        problem = SphereProblem(d=3)
        solver = make_solver("gp-ucb", problem.space, R=3, seed=4)
        log = run_single(problem, solver, max_eval=6, virtual_time=True)
        assert all(r.solver_time == 0.0 for r in log.records)

    def test_real_mode_solver_time_positive_for_model_solver(self):
        problem = SphereProblem(d=2)
        solver = make_solver("gp-ucb", problem.space, R=3, seed=5)
        log = run_single(problem, solver, max_eval=6)
        assert all(r.solver_time > 0.0 for r in log.records)

    def test_wall_clock_accounting_within_five_percent(self):
        problem = with_delay(SphereProblem(d=2), 0.02)
        solver = make_solver("randomsearch", problem.space, R=2, seed=6)
        start = time.monotonic()
        log = run_single(problem, solver, max_eval=25)
        total = time.monotonic() - start
        accounted = sum(r.eval_time + r.solver_time for r in log.records)
        assert abs(total - accounted) / total < 0.05

    def test_evaluation_error_aborts_with_partial_log(self):
        class Flaky(Problem):
            def __init__(self):
                super().__init__("flaky", SphereProblem(d=2).space)
                self.calls = 0

            def _objective(self, point):
                self.calls += 1
                if self.calls > 4:
                    raise EvaluationError("simulator crashed")
                return 1.0

        problem = Flaky()
        solver = make_solver("randomsearch", problem.space, R=2, seed=7)
        log = run_single(problem, solver, max_eval=20)
        assert log.aborted
        assert len(log.records) == 4
        assert "simulator crashed" in log.note

    def test_fit_error_in_suggest_keeps_the_rows_before_it(self):
        problem = SphereProblem(d=2)
        solver = make_solver("randomsearch", problem.space, R=2, seed=8)
        suggest = solver.suggest

        def failing_fourth():
            if solver.iteration == 3:
                raise FitError("no model")
            return suggest()

        solver.suggest = failing_fourth
        log = run_single(problem, solver, max_eval=10)
        assert log.aborted
        assert len(log) == 3
        assert log.note == "FitError: no model"


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
        first_points = {log.records[0].point for log, _ in logs}
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
        problem = SphereProblem(d=2)
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


class TestConfigAliases:
    BASE = dict(problem="sphere", max_eval=8, rand_init=4, base_seed=2,
                virtual_time=True, problem_params={"d": 2})

    def _bytes(self, out, **kwargs):
        paths, _ = run_experiment(ExperimentConfig(out_path=str(out), **self.BASE, **kwargs))
        return {p.name: (p.read_bytes(), sidecar_path(p).read_bytes()) for p in paths}

    def test_alias_and_canonical_names_write_the_same_bytes(self, tmp_path):
        alias = self._bytes(tmp_path / "alias", solvers=("random_search", "pwl_low_explore"))
        canonical = self._bytes(tmp_path / "canonical", solvers=("randomsearch", "pwl-low"))
        assert list(alias) == ["sphere__randomsearch__r001.csv", "sphere__pwl-low__r001.csv"]
        assert alias == canonical

    def test_alias_keyed_override_applies(self, tmp_path):
        cfg = ExperimentConfig(out_path=".", solvers=("pwl_low_explore",),
                               overrides={"pwl_low_explore": {"n_basis": 5}}, **self.BASE)
        assert cfg.solvers == ("pwl-low",)
        assert cfg.overrides == {"pwl-low": {"n_basis": 5}}
        by_alias = self._bytes(tmp_path / "alias", solvers=("pwl-low",),
                               overrides={"pwl_low_explore": {"n_basis": 5}})
        by_kind = self._bytes(tmp_path / "kind", solvers=("pwl_low_explore",),
                              overrides={"pwl-low": {"n_basis": 5}})
        plain = self._bytes(tmp_path / "plain", solvers=("pwl-low",))
        assert by_alias == by_kind != plain

    @pytest.mark.parametrize("overrides, message", (
        ({"gp-ucb": {"beta": 1.0}}, "'gp-ucb' names no solver of this experiment"),
        ({"annealing": {"t": 1.0}}, "'annealing' names no solver of this experiment"),
        ({"sphere": {"d": 3}}, "'sphere' names no solver of this experiment"),
        ({"randomsearch": {}, "random_search": {}},
         "solver 'randomsearch' are given more than once"),
    ))
    def test_bad_override_keys_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(solvers=("randomsearch",), overrides=overrides, **self.BASE)

    def test_unknown_problem_rejected_before_any_output(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown problem 'warp-drive'; available: esp-proxy, "):
            run_experiment(ExperimentConfig(**dict(self.BASE, problem="warp-drive"),
                                            solvers=("randomsearch",), out_path=str(out)))
        assert not out.exists()


def _max_in_flight(monkeypatch, owner, name):
    """Patch ``owner.name`` to count concurrent calls; returns the running maximum."""
    original = getattr(owner, name)
    guard = threading.Lock()
    state = {"now": 0, "max": 0}

    def counted(*args, **kwargs):
        with guard:
            state["now"] += 1
            state["max"] = max(state["max"], state["now"])
        try:
            return original(*args, **kwargs)
        finally:
            with guard:
                state["now"] -= 1

    monkeypatch.setattr(owner, name, counted)
    return state


def _run_with_timeout(cfg, seconds=30.0):
    """``run_experiment(cfg)`` on a daemon thread; fails the test if it hangs."""
    result = []
    worker = threading.Thread(target=lambda: result.append(run_experiment(cfg)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "run_experiment deadlocked"
    return result[0]


class TestJobsLock:
    def test_waits_only_on_subprocesses_and_real_time_sleeps(self):
        external = SubprocessProblem("true {input}", SphereProblem(d=2).space)
        assert external.waits(True) and external.waits(False)
        assert not SphereProblem().waits(False)
        assert with_delay(SphereProblem(), 0.1).waits(False)
        assert not with_delay(SphereProblem(), 0.1).waits(True)

    def test_one_job_computes_at_a_time(self, tmp_path, monkeypatch):
        suggest = Solver.suggest

        def slow_suggest(solver):
            time.sleep(0.005)
            return suggest(solver)

        monkeypatch.setattr(Solver, "suggest", slow_suggest)
        state = _max_in_flight(monkeypatch, Solver, "suggest")
        run_experiment(ExperimentConfig(
            problem="sphere", solvers=("randomsearch", "pwl-low"), repetitions=2,
            max_eval=10, rand_init=4, out_path=str(tmp_path), virtual_time=True,
            jobs=2, problem_params={"d": 2}))
        assert state["max"] == 1

    def test_waiting_evaluations_overlap(self, tmp_path, monkeypatch):
        state = _max_in_flight(monkeypatch, Problem, "evaluate")
        register_problem("sleepy", lambda: with_delay(SphereProblem(d=2), 0.05))
        try:
            start = time.monotonic()
            paths, aborted = run_experiment(ExperimentConfig(
                problem="sleepy", solvers=("randomsearch", "pwl-low"), max_eval=8,
                rand_init=4, out_path=str(tmp_path), jobs=2))
            elapsed = time.monotonic() - start
        finally:
            unregister_problem("sleepy")
        assert len(paths) == 2 and not aborted
        assert state["max"] == 2
        assert elapsed < 2 * 8 * 0.05

    def test_evaluation_error_while_waiting_aborts_only_its_run(self, tmp_path):
        built = []

        class FailsOnThirdCall(Problem):
            # The first problem built fails on its third evaluation; the other never does.
            delay = 0.01

            def __init__(self):
                super().__init__("fails-third", SphereProblem(d=2).space)
                self.fails = not built
                self.calls = 0
                built.append(self)

            def _objective(self, point):
                self.calls += 1
                if self.fails and self.calls == 3:
                    raise EvaluationError("simulator crashed")
                return 1.0

        register_problem("fails-third", FailsOnThirdCall)
        try:
            paths, aborted = _run_with_timeout(ExperimentConfig(
                problem="fails-third", solvers=("randomsearch", "pwl-low"), max_eval=8,
                rand_init=4, out_path=str(tmp_path), jobs=2))
        finally:
            unregister_problem("fails-third")
        assert len(paths) == 2 and len(aborted) == 1
        (path, note), = aborted.items()
        assert "simulator crashed" in note
        failed, = (read_run_log(p)[0] for p in paths if p == path)
        finished, = (read_run_log(p)[0] for p in paths if p != path)
        assert len(failed) == 2 and failed.aborted
        assert len(finished) == 8 and not finished.aborted


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

    @pytest.mark.parametrize("repeat", ("randomsearch", "random_search"))
    def test_repeated_solver_is_usage_error(self, repeat):
        with pytest.raises(UsageError, match="'randomsearch' is given more than once"):
            parse_args(["sphere", "randomsearch", repeat])


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

    @pytest.mark.parametrize("repeat", ("randomsearch", "random_search"))
    def test_repeated_solver_exit_two_and_no_file(self, tmp_path, capsys, repeat):
        code = main(["--max-eval=5", "--rand-evals-all=2", "--virtual-time",
                     f"--out-path={tmp_path}", "sphere", "randomsearch", repeat])
        assert code == 2
        assert "'randomsearch' is given more than once" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_abort_exit_one(self, tmp_path, capsys):
        class Exploding(Problem):
            def __init__(self):
                super().__init__("exploding", SphereProblem(d=2).space)

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
                super().__init__("nan-fourth", SphereProblem(d=2).space)
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

    def test_fit_error_aborts_only_its_run(self, tmp_path, capsys, monkeypatch):
        fit = pwl.fit_least_squares
        calls = []

        def failing_fourth(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise FitError("normal equations could not be factorised")
            return fit(*args, **kwargs)

        monkeypatch.setattr(pwl, "fit_least_squares", failing_fourth)
        code = main([
            "--max-eval=12", "--rand-evals-all=5", "--virtual-time", "--jobs=1",
            f"--out-path={tmp_path}", "sphere", "pwl-low", "randomsearch",
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("aborted: ")] == [
            f"aborted: {tmp_path / 'sphere__pwl-low__r001.csv'}: "
            "FitError: normal equations could not be factorised"]
        (pwl_log, _), (random_log, _) = load_run_logs(tmp_path)
        # Refits start at the 5th observation, so the 4th fails on the 8th;
        # that evaluation stays as the last row.
        assert pwl_log.solver_id == "pwl-low" and len(pwl_log) == 8
        assert pwl_log.aborted
        assert pwl_log.note == "FitError: normal equations could not be factorised"
        assert random_log.solver_id == "randomsearch" and len(random_log) == 12
        assert not random_log.aborted

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
