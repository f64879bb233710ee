"""The benchmark's own tests: reduced-size workloads pass, and each output check catches a fault.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracing
from sbobench.analysis import RulesTree
from workloads import Analysis, GpEsp, MatrixPipe

from conftest import BENCH


def small_gp_esp(seed=3):
    return GpEsp(seed, max_eval=26)


def small_matrix_pipe(seed=3):
    return MatrixPipe(seed, max_eval=13)


def small_analysis(seed=3):
    return Analysis(seed, runs_per_solver=2, n_records=60, train_len=40, grid_size=12,
                    replay_checks=144)


def run_twice(workload, tmp_path):
    workload.build(tmp_path / "setup")
    rounds = []
    for i in range(2):
        rounds.append(workload.run_round(tmp_path / f"round{i}"))
        workload.check(tmp_path / f"round{i}", tmp_path / "round0" if i else None)
    return rounds


@pytest.mark.parametrize("make", [small_gp_esp, small_matrix_pipe, small_analysis],
                         ids=["gp-esp", "matrix-pipe", "analysis"])
def test_reduced_workload_runs_and_passes_its_checks(make, tmp_path):
    rounds = run_twice(make(), tmp_path)
    assert all(r.attempted > 0 and r.failed == 0 for r in rounds)
    assert rounds[0].attempted == rounds[1].attempted


@pytest.fixture(scope="module")
def esp_round(tmp_path_factory):
    out = tmp_path_factory.mktemp("esp")
    workload = small_gp_esp()
    workload.build(out)
    workload.run_round(out / "round")
    return workload, workload.log_paths(out / "round")[0]


@pytest.fixture(scope="module")
def pipe_round(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    workload = small_matrix_pipe()
    workload.build(out)
    workload.run_round(out / "round")
    return workload, workload.log_paths(out / "round")[1]


def corrupt(src, dst, edit):
    """Copy a log and its sidecar, applying ``edit`` to the CSV's data rows."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text(lines[0] + "".join(edit(lines[1:])), encoding="utf-8")
    shutil.copy(src.with_suffix(".json"), dst.with_suffix(".json"))
    return dst


def change_objective(rows, delta, row=5):
    cells = rows[row].rstrip("\n").split(",")
    cells[-3] = repr(float(cells[-3]) + delta)
    return rows[:row] + [",".join(cells) + "\n"] + rows[row + 1:]


@pytest.mark.parametrize("edit", [
    lambda rows: change_objective(rows, 0.25),
    lambda rows: rows[:7] + rows[8:],
], ids=["objective-changed", "row-dropped"])
def test_esp_check_catches_a_corrupted_log(esp_round, edit, tmp_path):
    workload, path = esp_round
    workload.check_log(path, workload.problem_obj)
    bad = corrupt(path, tmp_path / path.name, edit)
    with pytest.raises(checks.CheckError):
        workload.check_log(bad, workload.problem_obj)


@pytest.mark.parametrize("edit", [
    lambda rows: change_objective(rows, 1e-9, row=11),
    lambda rows: rows[1:],
], ids=["objective-changed", "row-dropped"])
def test_pipe_check_catches_a_corrupted_log(pipe_round, edit, tmp_path):
    workload, path = pipe_round
    workload.check_log(path, workload.problem_obj)
    bad = corrupt(path, tmp_path / path.name, edit)
    with pytest.raises(checks.CheckError):
        workload.check_log(bad, workload.problem_obj)


def test_repeated_round_check_catches_changed_bytes(esp_round, tmp_path):
    _, path = esp_round
    (tmp_path / "same").mkdir()
    checks.check_same_bytes([corrupt(path, tmp_path / "same" / path.name, list)], [path])
    bad = corrupt(path, tmp_path / path.name, lambda rows: change_objective(rows, 0.25))
    with pytest.raises(checks.CheckError):
        checks.check_same_bytes([bad], [path])


@pytest.fixture(scope="module")
def analysis_round(tmp_path_factory):
    out = tmp_path_factory.mktemp("analysis")
    workload = small_analysis()
    workload.build(out)
    workload.run_round(out / "round")
    workload.check(out / "round")
    return workload


def test_replay_check_catches_a_changed_winner(analysis_round):
    token, mine = next(iter(analysis_round.result["problems"].items()))
    grid = mine["grid"]
    runs = checks.logged_runs(analysis_round.corpus / token)
    everything = range(len(grid.cells))
    checks.check_replay(grid, runs, everything)
    k = next(i for i, cell in enumerate(grid.cells) if cell.defined)
    other = next(s for s in grid.solvers if s != grid.cells[k].winner)
    cells = list(grid.cells)
    cells[k] = dataclasses.replace(cells[k], winner=other)
    with pytest.raises(checks.CheckError):
        checks.check_replay(dataclasses.replace(grid, cells=tuple(cells)), runs, everything)


def chain_tree(depth):
    """A tree whose right spine has ``depth`` splits: depth ``depth``, ``depth + 1`` leaves."""
    feature, left, right = [], [], []
    for level in range(depth):
        node = 2 * level
        feature += [0, -1]
        left += [node + 1, -1]
        right += [node + 2, -1]
    feature.append(-1)
    left.append(-1)
    right.append(-1)
    n = len(feature)
    return RulesTree(feature=np.array(feature), threshold=np.linspace(-1.0, 1.0, n),
                     left=np.array(left), right=np.array(right),
                     label_index=np.arange(n) % 2, labels=("a", "b"))


def test_rules_check_catches_a_broken_depth_cap(analysis_round):
    X = analysis_round.result["rules_X"]
    checks.check_rules(chain_tree(5), X)
    with pytest.raises(checks.CheckError, match="depth 6"):
        checks.check_rules(chain_tree(6), X)


def test_ttest_check_catches_a_wrong_p_value(analysis_round):
    for a, b, p_value in analysis_round.result["problems"]["pipe-proxy"]["ttests"]:
        checks.check_ttest(p_value, a, b)
        with pytest.raises(checks.CheckError):
            checks.check_ttest(p_value + 1e-9, a, b)


def test_matrix_pipe_logs_do_not_depend_on_jobs(tmp_path):
    serial, parallel = small_matrix_pipe(), small_matrix_pipe()
    serial.jobs = 1
    assert parallel.jobs == 2
    for name, workload in (("serial", serial), ("parallel", parallel)):
        workload.build(tmp_path)
        workload.run_round(tmp_path / name)
        workload.check(tmp_path / name)
    checks.check_same_bytes(parallel.log_paths(tmp_path / "parallel"),
                            serial.log_paths(tmp_path / "serial"))


def test_traced_counts_repeat_and_leave_outputs_unchanged(tmp_path):
    workload = small_matrix_pipe()
    workload.build(tmp_path)
    workload.run_round(tmp_path / "plain")
    tracer = tracing.Tracer()
    counts = []
    for i in range(2):
        tracing.instrument(tracer)
        try:
            workload.run_round(tmp_path / f"traced{i}")
        finally:
            tracer.restore()
        layers = tracing.layer_metrics(tracer.take())
        counts.append({name: layers[name] for name in tracing.COUNT_METRICS})
        workload.check(tmp_path / f"traced{i}", tmp_path / "plain")
    assert counts[0] == counts[1]
    assert counts[0]["surrogates.forest.fit_calls"] == 4  # one refit per observation from the R-th
    assert counts[0]["surrogates.gp.posterior_fits"] == 0


def test_tracer_restores_every_patched_binding():
    import sbobench.core.space as space
    import sbobench.solvers.base as base

    before = (space.sample_uniform, base.sample_uniform, base.Solver.__dict__["suggest"])
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    assert base.sample_uniform is not before[1]
    tracer.restore()
    assert (space.sample_uniform, base.sample_uniform, base.Solver.__dict__["suggest"]) == before


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "gp-esp",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
