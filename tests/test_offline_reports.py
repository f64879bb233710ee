"""Offline surrogate scoring, report emission and log conversion."""

import csv
import json

import numpy as np
import pytest

from sbobench.analysis import (
    NormalisedCurve,
    ReplayCell,
    ReplayGrid,
    convert_external_csv,
    emit_report,
    fit_rules_tree,
    grow_tree,
    normalize_curves,
    offline_eval,
    read_curves_csv,
    read_grid_csv,
    replay,
    write_curves_csv,
    write_grid_csv,
    write_offline_json,
    write_rules_json,
)
from sbobench.core import (
    PHASE_MODEL,
    PHASE_RANDOM,
    SearchSpace,
    VariableSpec,
    make_rng,
    read_run_log,
    sidecar_path,
    space_to_jsonable,
)

from run_log_helpers import make_log


def _space_1d():
    return SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),))


def _sampled_log(space, objective_fn, n, solver_id="randomsearch", seed=0):
    rng = make_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=n)
    points = [space.make_point({"x": float(v)}) for v in xs]
    objectives = [objective_fn(float(v)) for v in xs]
    return make_log(objectives, solver_id=solver_id, points=points, space=space)


class TestOfflineEval:
    def test_constant_model_identity(self):
        # A zero-round boosted model predicts the train mean, so the train
        # MAE is exactly the mean absolute deviation of the targets.
        space = _space_1d()
        points = [space.make_point({"x": v}) for v in (0.1, 0.3, 0.6, 0.9)]
        log = make_log([0.0, 1.0, 2.0, 3.0], points=points, space=space)
        result = offline_eval(
            [(log, space)], family="boosted", train_len=4, test_keep=10, n_rounds=0
        )
        assert result.train_mae_mean == pytest.approx(1.0)
        assert result.test_mae_mean == pytest.approx(1.0)
        assert result.train_mae_std == 0.0
        assert result.n_runs == 1
        assert result.truncated  # only 4 points against test_keep=10

    def test_test_set_keeps_best_objectives_across_solvers(self):
        space = _space_1d()
        points = [space.make_point({"x": 0.5})] * 4
        gather = make_log([10.0, 11.0, 12.0, 13.0], points=points, space=space)
        other = make_log(
            [0.0, 1.0, 2.0, 3.0], solver_id="gp-ucb", points=points, space=space
        )
        result = offline_eval(
            [(gather, space), (other, space)],
            family="boosted",
            train_len=4,
            test_keep=4,
            n_rounds=0,
        )
        # Train mean is 11.5; the four best objectives overall are 0..3.
        expected = np.mean(np.abs(np.array([0.0, 1.0, 2.0, 3.0]) - 11.5))
        assert result.test_mae_mean == pytest.approx(expected)
        assert result.test_size == 4
        assert not result.truncated

    def test_memorising_forest_fit_params_forwarded(self):
        space = _space_1d()
        log = _sampled_log(space, lambda x: np.sin(5 * x), 30, seed=3)
        result = offline_eval(
            [(log, space)], family="forest", train_len=30, test_keep=30, n_trees=1
        )
        assert result.train_mae_mean < 1e-12

    def test_flexible_basis_overfits_towards_best_region(self):
        space = _space_1d()
        gather = _sampled_log(space, lambda x: np.sin(6 * x) + x, 40, seed=5)
        probe = _sampled_log(
            space, lambda x: np.sin(6 * x) + x, 60, solver_id="gp-ucb", seed=11
        )
        result = offline_eval(
            [(gather, space), (probe, space)],
            family="piecewise_linear",
            train_len=40,
            test_keep=60,
            n_basis=80,
            ridge=1e-8,
        )
        assert result.train_mae_mean < 1e-3
        assert result.test_mae_mean > result.train_mae_mean

    def test_averages_over_gathering_runs(self):
        space = _space_1d()
        logs = [
            _sampled_log(space, lambda x: 2.0 * x, 10, seed=s) for s in (1, 2, 3)
        ]
        result = offline_eval(
            [(log, space) for log in logs],
            family="linear",
            train_len=10,
            test_keep=30,
            ridge=1e-10,
        )
        assert result.n_runs == 3
        assert result.train_mae_mean < 1e-8  # exactly linear target

    def test_short_gathering_run_rejected(self):
        space = _space_1d()
        log = _sampled_log(space, lambda x: x, 5)
        with pytest.raises(ValueError, match="train_len"):
            offline_eval([(log, space)], family="linear", train_len=6)

    def test_missing_gathering_solver_rejected(self):
        space = _space_1d()
        log = _sampled_log(space, lambda x: x, 5, solver_id="gp-ucb")
        with pytest.raises(ValueError, match="gathering"):
            offline_eval([(log, space)], family="linear", train_len=5)

    def test_unknown_family_rejected(self):
        space = _space_1d()
        log = _sampled_log(space, lambda x: x, 5)
        with pytest.raises(ValueError, match="family"):
            offline_eval([(log, space)], family="kriging", train_len=5)


class TestReportRoundTrips:
    def _grid(self):
        # Six evaluations of 0.1 s solver time each: completions land at
        # k * (0.1 + tau), so budget 0.5 is defined for both eval times
        # while 0.05 (too early) and 50.0 (log exhausted) are not.
        rng = make_rng(51)
        logs = []
        for solver in ("randomsearch", "gp-ucb"):
            for _ in range(2):
                logs.append(
                    make_log(
                        rng.normal(size=6),
                        solver_id=solver,
                        solver_times=[0.1] * 6,
                    )
                )
        return replay(logs, budgets=[0.05, 0.5, 50.0], eval_times=[0.01, 0.2])

    def test_grid_csv_round_trip_is_exact(self, tmp_path):
        grid = self._grid()
        assert any(c.defined for c in grid.cells)
        assert any(not c.defined for c in grid.cells)
        path = write_grid_csv(grid, tmp_path / "grid.csv")
        assert read_grid_csv(path) == grid

    @staticmethod
    def _two_by_two(tmp_path):
        means = {"a": 0.5, "b": 0.75}
        cells = tuple(ReplayCell(b, e, True, means, "a")
                      for b in (1.0, 2.0) for e in (0.1, 0.2))
        grid = ReplayGrid((1.0, 2.0), (0.1, 0.2), ("a", "b"), cells)
        return write_grid_csv(grid, tmp_path / "grid.csv")

    def test_grid_csv_cut_mid_row_is_rejected(self, tmp_path):
        path = self._two_by_two(tmp_path)
        path.write_bytes(path.read_bytes()[:-12])
        with pytest.raises(ValueError, match=r"grid\.csv, line 5: 4 cells, but the header has 6"):
            read_grid_csv(path)

    def test_grid_csv_missing_row_is_rejected(self, tmp_path):
        path = self._two_by_two(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(ValueError, match=r"grid\.csv, line 4: 3 cells do not fill"):
            read_grid_csv(path)

    def test_grid_csv_bad_defined_flag_is_rejected(self, tmp_path):
        path = self._two_by_two(tmp_path)
        path.write_bytes(path.read_bytes().replace(b",true,", b",yes,", 1))
        with pytest.raises(ValueError, match=r"grid\.csv, line 2: defined is 'yes'"):
            read_grid_csv(path)

    def test_curves_csv_round_trip(self, tmp_path):
        rng = make_rng(53)
        logs = []
        for solver in ("randomsearch", "gp-ucb"):
            for _ in range(3):
                # Strictly improving objectives keep the baseline anchors apart.
                objectives = np.sort(rng.normal(size=10))[::-1]
                logs.append(make_log(objectives, solver_id=solver, rand_init=3))
        curves = normalize_curves(logs, R=3)
        path = write_curves_csv(curves, tmp_path / "curves.csv")
        assert read_curves_csv(path) == curves

    def test_rules_json_depth_zero(self, tmp_path):
        X = np.zeros((3, 4))
        y = np.array(["gp-ucb"] * 3, dtype=object)
        tree, train_acc, test_acc = fit_rules_tree(X, y)
        path = write_rules_json(tree, train_acc, test_acc, tmp_path / "rules.json")
        payload = json.loads(path.read_text())
        assert payload["tree"] == {"label": "gp-ucb"}
        assert payload["rules"] == ["always use gp-ucb"]
        assert payload["train_accuracy"] == 1.0

    def test_rules_json_nested_structure(self, tmp_path):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["a", "a", "b", "b"], dtype=object)
        tree = grow_tree(X, y)
        path = write_rules_json(tree, 1.0, 1.0, tmp_path / "rules.json")
        payload = json.loads(path.read_text())
        node = payload["tree"]
        assert set(node) == {"feature", "threshold", "left", "right"}
        assert node["left"] == {"label": "a"}
        assert node["right"] == {"label": "b"}
        assert len(payload["rules"]) == tree.n_leaves

    def test_offline_json(self, tmp_path):
        space = _space_1d()
        log = _sampled_log(space, lambda x: x, 6)
        result = offline_eval([(log, space)], family="linear", train_len=6)
        path = write_offline_json(result, tmp_path / "offline.json")
        payload = json.loads(path.read_text())
        assert payload["family"] == "linear"
        assert payload["n_runs"] == 1
        assert set(payload["train_mae"]) == {"mean", "std"}

    def test_emit_report_dispatch(self, tmp_path):
        grid = self._grid()
        assert emit_report(grid, tmp_path / "g.csv").exists()
        rng = make_rng(3)
        logs = [make_log(rng.normal(size=8), rand_init=2) for _ in range(2)]
        assert emit_report(normalize_curves(logs, R=2), tmp_path / "c.csv").exists()
        X = np.zeros((3, 4))
        y = np.array(["a"] * 3, dtype=object)
        assert emit_report(fit_rules_tree(X, y), tmp_path / "r.json").exists()
        space = _space_1d()
        log = _sampled_log(space, lambda x: x, 5)
        result = offline_eval([(log, space)], family="linear", train_len=5)
        assert emit_report(result, tmp_path / "o.json").exists()
        with pytest.raises(TypeError, match="no report writer"):
            emit_report(42, tmp_path / "x.json")


class TestConvertExternalCsv:
    def _write_foreign(self, tmp_path, with_iteration=True):
        space = SearchSpace(
            (
                VariableSpec("x", "continuous", lower=0.0, upper=1.0),
                VariableSpec("k", "integer", lower=0, upper=5),
                VariableSpec("alg", "categorical", categories=("a", "b")),
            )
        )
        src = tmp_path / "foreign.csv"
        fields = ["step", "fx", "t_eval", "t_alg", "col_x", "k", "method"]
        rows = [
            [1, 5.0, 0.5, 0.01, 0.25, 3, "a"],
            [2, 4.0, 0.6, 0.02, 0.75, 1, "b"],
            [3, 3.5, 0.4, 0.03, 0.5, 0, "a"],
        ]
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            writer.writerows(rows)
        columns = {
            "objective": "fx",
            "eval_time": "t_eval",
            "solver_time": "t_alg",
            "variables": {"x": "col_x", "alg": "method"},
        }
        if with_iteration:
            columns["iteration"] = "step"
        mapping = {
            "space": space_to_jsonable(space),
            "header": {
                "problem_id": "imported",
                "solver_id": "randomsearch",
                "seed": 0,
                "rand_init": 2,
            },
            "columns": columns,
        }
        mapping_path = tmp_path / "mapping.json"
        mapping_path.write_text(json.dumps(mapping))
        return src, mapping_path, space

    def test_converted_log_loads_natively(self, tmp_path):
        src, mapping_path, space = self._write_foreign(tmp_path)
        out = convert_external_csv(src, mapping_path, tmp_path / "native.csv")
        log, loaded_space = read_run_log(out)
        assert space_to_jsonable(loaded_space) == space_to_jsonable(space)
        assert log.problem_id == "imported"
        assert [r.objective for r in log.records] == [5.0, 4.0, 3.5]
        assert [r.eval_time for r in log.records] == [0.5, 0.6, 0.4]
        assert [r.solver_time for r in log.records] == [0.01, 0.02, 0.03]
        assert log.records[0].point.values == (0.25, 3, "a")
        assert log.records[1].point.values == (0.75, 1, "b")
        assert [r.phase for r in log.records] == [
            PHASE_RANDOM,
            PHASE_RANDOM,
            PHASE_MODEL,
        ]
        assert sidecar_path(out).exists()

    def test_row_order_supplies_iterations_when_unmapped(self, tmp_path):
        src, mapping_path, _ = self._write_foreign(tmp_path, with_iteration=False)
        out = convert_external_csv(src, mapping_path, tmp_path / "native.csv")
        log, _ = read_run_log(out)
        assert [r.iteration for r in log.records] == [1, 2, 3]

    @staticmethod
    def _set_cell(src, column, cell):
        """Overwrite ``column`` of the second data row (line 3 of the file)."""
        with open(src, newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[1][column] = cell
        with open(src, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    @pytest.mark.parametrize("column, cell, message", [
        ("k", "3.7", "k: integer variable got non-integral 3.7"),
        ("k", "6", "k out of bounds"),
        ("method", "c", "alg is not a valid category"),
    ])
    def test_bad_cells_are_rejected_with_file_and_line(self, tmp_path, column, cell, message):
        src, mapping_path, _ = self._write_foreign(tmp_path)
        self._set_cell(src, column, cell)
        with pytest.raises(ValueError) as info:
            convert_external_csv(src, mapping_path, tmp_path / "native.csv")
        assert str(info.value) == f"{src}, line 3: {message}"
        assert not (tmp_path / "native.csv").exists()

    def test_integral_float_cell_is_accepted(self, tmp_path):
        src, mapping_path, _ = self._write_foreign(tmp_path)
        self._set_cell(src, "k", "3.0")
        log, _ = read_run_log(convert_external_csv(src, mapping_path, tmp_path / "native.csv"))
        assert log.records[1].point.values == (0.75, 3, "b")
        assert type(log.records[1].point.values[1]) is int
