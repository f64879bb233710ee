"""The record path against its per-variable, per-record and per-cell references.

``sample_uniform``, ``write_run_log``, ``read_run_log``, the esp-proxy
objective and ``replay`` work a column, a run or a stacked table at a
time.  The references below are the loops they replaced, kept verbatim
in behaviour; every output must equal theirs exactly: values and types,
the generator's state after every draw, the bytes written, the records
read and every replay cell.
"""

import csv
import io
import json

import numpy as np
import pytest

from sbobench.analysis import replay
from sbobench.core import (
    CONTINUOUS,
    INTEGER,
    PHASE_MODEL,
    PHASE_RANDOM,
    Condition,
    EvaluationRecord,
    RunLog,
    SearchSpace,
    VariableSpec,
    make_rng,
    read_run_log,
    sample_uniform,
    space_from_jsonable,
    write_run_log,
)
from sbobench.core.records import require_one_problem
from sbobench.core.runio import _columns, sidecar_path
from sbobench.problems import make_problem
from sbobench.solvers import make_solver
from sbobench.surrogates.encoding import encode, nearest_point

from run_log_helpers import make_log


# ---------------------------------------------------------------- references

def reference_sample(space, rng):
    values = [None] * space.dimension
    for i in space._topo_order:
        v = space.variables[i]
        if v.kind == CONTINUOUS:
            values[i] = float(rng.uniform(v.lower, v.upper))
        elif v.kind == INTEGER:
            values[i] = int(rng.integers(int(v.lower), int(v.upper) + 1))
        else:
            values[i] = v.categories[int(rng.integers(0, len(v.categories)))]
    return tuple(values)


def _reference_format(kind, value):
    if kind == CONTINUOUS:
        return repr(float(value))
    if kind == INTEGER:
        return str(int(value))
    return str(value)


def reference_csv_text(log, space):
    """The CSV a per-record writer produces (results as ``repr(float(x))``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_columns(space))
    for rec in log.records:
        row = [str(rec.iteration), rec.phase]
        for v, value in zip(space.variables, rec.point):
            row.append(_reference_format(v.kind, value))
        row.extend(repr(float(x)) for x in (rec.objective, rec.eval_time, rec.solver_time))
        writer.writerow(row)
    return buf.getvalue()


def reference_read(csv_path):
    header = json.loads(sidecar_path(csv_path).read_text(encoding="utf-8"))
    space = space_from_jsonable(header["variables"])
    records = []
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            values = []
            for v, cell in zip(space.variables, row[2 : 2 + space.dimension]):
                if v.kind == CONTINUOUS:
                    values.append(float(cell))
                elif v.kind == INTEGER:
                    values.append(int(cell))
                else:
                    values.append(cell)
            objective, eval_time, solver_time = (float(c) for c in row[2 + space.dimension :])
            records.append(EvaluationRecord(int(row[0]), tuple(values),
                                            objective, eval_time, solver_time, row[1]))
    return records


def reference_esp_objective(problem, options):
    options = np.asarray(options, dtype=int)
    total = 0.0
    for w in range(problem.n_windows):
        total += problem.tables[w][tuple(options[w:w + problem.window])]
    return float(total)


def reference_replay_cells(logs, budgets, eval_times):
    """(budget, eval_time, defined, means, winner) per cell, one cell at a time."""
    logs = require_one_problem(logs)
    by_solver = {}
    for log in logs:
        solver_times = np.array([rec.solver_time for rec in log.records], dtype=float)
        by_solver.setdefault(log.solver_id, []).append((log.objectives, solver_times))
    solvers = tuple(sorted(by_solver))
    cells = []
    for budget in budgets:
        for eval_time in eval_times:
            means, defined = {}, True
            for solver in solvers:
                bests = []
                for objectives, solver_times in by_solver[solver]:
                    cumtime = np.cumsum(solver_times + eval_time)
                    n = int(np.searchsorted(cumtime, budget, side="right"))
                    if n == 0 or (n == objectives.size and cumtime[-1] < budget):
                        defined = False
                        break
                    bests.append(float(objectives[:n].min()))
                if not defined:
                    break
                means[solver] = float(np.mean(bests))
            if defined:
                winner = min(means, key=lambda s: (means[s], s))
                cells.append((budget, eval_time, True, means, winner))
            else:
                cells.append((budget, eval_time, False, {}, ""))
    return cells


# ------------------------------------------------------------------- spaces

def conditional_space():
    """Mixed kinds, a chained condition and a child declared before its parent."""
    return SearchSpace((
        VariableSpec("lr", "continuous", lower=1e-4, upper=1.0,
                     condition=Condition("model", "boosted")),
        VariableSpec("model", "categorical", categories=("boosted", "tree", "linear")),
        VariableSpec("depth", "integer", lower=1, upper=12, condition=Condition("model", "tree")),
        VariableSpec("leaf", "integer", lower=-3, upper=40, condition=Condition("split", "on")),
        VariableSpec("split", "categorical", categories=("on", "off"),
                     condition=Condition("model", "tree")),
        VariableSpec("x", "continuous", lower=-5.0, upper=5.0),
        VariableSpec("y", "continuous", lower=0.0, upper=1e-3),
    ))


SPACES = {
    "esp-proxy": lambda: make_problem("esp-proxy", seed=4).space,
    "pipe-proxy": lambda: make_problem("pipe-proxy", seed=4, d=10).space,
    "hpo-proxy": lambda: make_problem("hpo-proxy", seed=4).space,
    "box": lambda: SearchSpace(tuple(
        VariableSpec(f"x{i}", "continuous", lower=-i - 1.0, upper=2.0**i) for i in range(6))),
    "conditional": conditional_space,
    "one-continuous": lambda: SearchSpace((VariableSpec("x", "continuous", lower=-2.0, upper=3.0),)),
    "one-integer": lambda: SearchSpace((VariableSpec("k", "integer", lower=0, upper=1),)),
    "one-categorical": lambda: SearchSpace(
        (VariableSpec("c", "categorical", categories=("a", "b", "c")),)),
    "wide-integers": lambda: SearchSpace((
        VariableSpec("a", "integer", lower=0, upper=2**32),
        VariableSpec("b", "integer", lower=-(2**33), upper=2**34),
        VariableSpec("c", "integer", lower=5, upper=6),
        VariableSpec("d", "categorical", categories=("p", "q")),
        VariableSpec("e", "integer", lower=-(2**40), upper=2**40 + 2**32 - 1),
    )),
}


# ------------------------------------------------------------------ sampling

def _state(rng):
    """The bit generator's whole state (Philox counter, key and buffers) as text."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_sampler_reproduces_the_per_variable_stream(name):
    space = SPACES[name]()
    for seed in (0, 1, 2):
        rng, ref = make_rng(seed), make_rng(seed)
        if seed == 2:  # start with half of a 64-bit word buffered for 32-bit draws
            rng.integers(0, 7)
            ref.integers(0, 7)
        for _ in range(40):
            got, want = sample_uniform(space, rng), reference_sample(space, ref)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert _state(rng) == _state(ref)


def test_sampler_follows_dependency_order_in_conditional_spaces():
    space = conditional_space()
    assert space._topo_order != tuple(range(space.dimension))
    rng = make_rng(9)
    seen = {space.activity(sample_uniform(space, rng)) for _ in range(300)}
    assert len(seen) >= 3  # several activity patterns occur


# ------------------------------------------------------------- log writing

def _sampled_log(space, n, seed, rand_init=3, problem=None):
    rng = make_rng(seed)
    records = []
    for i in range(1, n + 1):
        point = sample_uniform(space, rng)
        if problem is not None:
            objective, eval_time = problem.evaluate(point, virtual=True)
        else:
            objective, eval_time = float(rng.normal() * 10.0 ** rng.integers(-20, 20)), 0.0
        solver_time = float(rng.exponential()) if i % 3 else 0.0
        records.append(EvaluationRecord(i, point, objective, eval_time, solver_time,
                                        PHASE_RANDOM if i <= rand_init else PHASE_MODEL))
    return RunLog("demo", "randomsearch", seed, min(rand_init, n), records)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_writer_bytes_and_reader_records_equal_the_references(name, tmp_path):
    space = SPACES[name]()
    # Every producer of a point gives the plain tuple of its values.
    want = reference_sample(space, make_rng(7))
    made = (sample_uniform(space, make_rng(7)), space.make_point(space.as_mapping(want)),
            nearest_point(space, encode(space, want)),
            make_solver("randomsearch", space, R=1, seed=7).suggest())
    for point in made:
        assert type(point) is tuple and point == want
    for n in (0, 1, 25):
        log = _sampled_log(space, n, seed=n + 11)
        path = write_run_log(log, space, tmp_path / f"{n}.csv")
        assert path.read_text(encoding="utf-8") == reference_csv_text(log, space)
        back, _ = read_run_log(path)
        assert list(back.records) == reference_read(path)
        assert all(type(point) is tuple for point in back.points)
        assert back.points == tuple(rec.point for rec in reference_read(path))
        assert back.records == log.records
        for got, want in zip(back.records, log.records):
            assert [type(v) for v in got.point] == [type(v) for v in want.point]
            assert space.activity(got.point) == space.activity(want.point)


def test_problem_logs_round_trip_byte_for_byte(tmp_path):
    for token, params in (("esp-proxy", {}), ("pipe-proxy", {"d": 10}), ("hpo-proxy", {})):
        problem = make_problem(token, seed=2, **params)
        log = _sampled_log(problem.space, 60, seed=5, problem=problem)
        path = write_run_log(log, problem.space, tmp_path / f"{token}.csv")
        assert path.read_text(encoding="utf-8") == reference_csv_text(log, problem.space)
        assert list(read_run_log(path)[0].records) == reference_read(path)


def test_categories_that_need_quoting_round_trip(tmp_path):
    space = SearchSpace((VariableSpec("c", "categorical", categories=('a,b', 'say "hi"', "x")),
                         VariableSpec("v", "continuous", lower=0.0, upper=1.0)))
    log = _sampled_log(space, 30, seed=3)
    path = write_run_log(log, space, tmp_path / "q.csv")
    assert path.read_text(encoding="utf-8") == reference_csv_text(log, space)
    assert read_run_log(path)[0].records == log.records


# ---------------------------------------------------------------- esp-proxy

@pytest.mark.parametrize("shape", [(49, 8, 3), (6, 3, 2), (9, 4, 4), (5, 2, 2)])
def test_esp_objective_equals_the_window_loop(shape):
    rng = make_rng(17)
    for seed in (0, 3):
        problem = make_problem("esp-proxy", seed=seed, n_slots=shape[0], n_options=shape[1],
                               window=shape[2])
        for _ in range(200):
            options = rng.integers(0, problem.n_options, size=problem.n_slots)
            got = problem.objective_of_indices(options)
            assert type(got) is float
            assert repr(got) == repr(reference_esp_objective(problem, options))
        point = sample_uniform(problem.space, rng)
        assert repr(problem.evaluate(point)[0]) == repr(
            reference_esp_objective(problem, [int(v) for v in point]))


def test_esp_all_zero_total_is_positive_zero():
    problem = make_problem("esp-proxy", seed=0, n_slots=5, n_options=2, window=2)
    problem._stacked_tables[...] = -0.0
    assert repr(problem.objective_of_indices([0, 1, 0, 1, 1])) == "0.0"


# ------------------------------------------------------------------- replay

def _assert_grid_equals_reference(logs, budgets, eval_times):
    grid = replay(logs, budgets=budgets, eval_times=eval_times)
    want = reference_replay_cells(logs, grid.budgets, grid.eval_times)
    assert len(grid.cells) == len(want)
    for cell, (budget, eval_time, defined, means, winner) in zip(grid.cells, want):
        assert (cell.budget, cell.eval_time, cell.defined, cell.winner) == (
            budget, eval_time, defined, winner)
        assert list(cell.means) == list(means)
        assert [repr(v) for v in cell.means.values()] == [repr(v) for v in means.values()]
    return grid


@pytest.mark.parametrize("runs", [1, 3, 8, 9, 17])
def test_replay_equals_the_per_cell_loop(runs):
    rng = make_rng(runs)
    logs = []
    for solver in ("gp-ucb", "randomsearch", "forest-ucb"):
        for _ in range(runs):
            n = int(rng.integers(20, 60))
            logs.append(make_log(rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n),
                                 solver_id=solver,
                                 solver_times=rng.exponential(0.5, size=n) * rng.integers(0, 2, n)))
    grid = _assert_grid_equals_reference(logs, np.geomspace(1e-3, 20.0, 23),
                                         np.geomspace(1e-4, 1.0, 11))
    assert any(c.defined for c in grid.cells) and not all(c.defined for c in grid.cells)


def test_replay_unsorted_budgets_and_exact_finish_times():
    logs = [make_log([4.0, 3.0, 5.0, 1.0], solver_times=[1.0] * 4),
            make_log([2.0, 2.0, 0.5], solver_id="gp-ucb", solver_times=[0.5, 2.0, 0.0])]
    budgets = [9.0, 2.0, 4.0, 0.5, 3.0, 8.0, 2.5, 4.0]
    _assert_grid_equals_reference(logs, budgets, [0.0, 1.0, 0.25])


def test_replay_winner_ties_go_to_the_first_name():
    logs = [make_log([2.0, 1.0], solver_id=s, solver_times=[0.1, 0.1])
            for s in ("zeta", "alpha", "mid")]
    grid = _assert_grid_equals_reference(logs, [0.15, 1.0, 5.0], [0.0, 0.1])
    assert {c.winner for c in grid.cells if c.defined} == {"alpha"}


@pytest.mark.parametrize("runs", [3, 8, 12])
def test_replay_signed_zero_ties(runs):
    """Bests of 0.0 and -0.0 keep the sign ``min`` gives them, and tie for the winner."""
    rng = make_rng(40 + runs)
    logs = []
    for solver, values in (("a", [-0.0, 1.0]), ("b", [0.0, -0.0, 0.5])):
        for _ in range(runs):
            n = int(rng.integers(12, 40))
            objectives = [1.0, *rng.choice(values, size=n - 1)]
            logs.append(make_log(objectives, solver_id=solver,
                                 solver_times=rng.choice([0.0, 0.1], size=n)))
    # Some prefix's running minimum and min() disagree on the sign of its zero.
    assert any(repr(np.minimum.accumulate(log.objectives)[k]) != repr(log.objectives[: k + 1].min())
               for log in logs for k in range(len(log.records)))
    grid = _assert_grid_equals_reference(logs, np.linspace(0.05, 4.0, 17), [0.0, 0.05, 0.2])
    tied = [c for c in grid.cells if c.defined and c.means["a"] == c.means["b"] == 0.0]
    assert tied and all(c.winner == "a" for c in tied)
    assert all(repr(v) != "-0.0" for c in grid.cells for v in c.means.values())


def test_replay_with_an_empty_run_is_undefined_everywhere():
    logs = [make_log([1.0, 2.0]), RunLog("toy", "gp-ucb", 0, 0, ())]
    grid = _assert_grid_equals_reference(logs, [1.0, 10.0], [0.1, 1.0])
    assert not any(c.defined for c in grid.cells)
