"""Replay grids and the rule-extraction tree."""

import numpy as np
import pytest

from sbobench.analysis import (
    ReplayCell,
    ReplayGrid,
    default_budgets,
    default_eval_times,
    fit_rules_tree,
    grow_tree,
    replay,
    replay_count,
    rule_dataset,
)
from sbobench.core import make_rng

from run_log_helpers import make_log


class TestReplayCounting:
    def test_budget_arithmetic(self):
        # solver_time 1 and eval_time 2 per step: completions at 3, 6, 9, 12.
        log = make_log([5.0, 3.0, 4.0, 1.0], solver_times=[1.0] * 4)
        grid = replay([log], budgets=[2.9, 6.0, 7.0, 12.0, 13.0], eval_times=[2.0])
        cells = {cell.budget: cell for cell in grid.cells}
        assert not cells[2.9].defined  # nothing completes
        assert cells[6.0].defined and cells[6.0].means["randomsearch"] == 3.0
        assert cells[7.0].defined and cells[7.0].means["randomsearch"] == 3.0
        # Budget met exactly by the full log: defined, all four count.
        assert cells[12.0].defined and cells[12.0].means["randomsearch"] == 1.0
        # Budget exceeds the whole log: exhausted, hence undefined.
        assert not cells[13.0].defined

    def test_crossing_evaluation_excluded(self):
        log = make_log([9.0, 1.0], solver_times=[0.0, 0.0])
        grid = replay([log], budgets=[1.5], eval_times=[1.0])
        assert grid.cells[0].means["randomsearch"] == 9.0

    def test_count_matches_sequential_simulation(self):
        rng = make_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            solver_times = rng.exponential(0.3, size=n)
            tau = float(rng.uniform(0.01, 2.0))
            budget = float(rng.uniform(0.1, 30.0))
            t, done = 0.0, 0
            for st in solver_times:
                t = t + st + tau
                if t <= budget:
                    done += 1
                else:
                    break
            assert replay_count(solver_times, tau, budget) == done


def _oracle_cell(runs_by_solver, tau, budget):
    """Event-loop reference: returns means dict or None when undefined."""
    means = {}
    for solver, runs in runs_by_solver.items():
        bests = []
        for objectives, solver_times in runs:
            t, kept = 0.0, []
            crossed = False
            for obj, st in zip(objectives, solver_times):
                t = t + st + tau
                if t <= budget:
                    kept.append(obj)
                else:
                    crossed = True
                    break
            if not kept:
                return None
            if not crossed and t < budget:
                return None  # log exhausted with budget left over
            bests.append(min(kept))
        means[solver] = float(np.mean(bests))
    return means


class TestReplayGrid:
    def _random_logs(self, seed):
        rng = make_rng(seed)
        logs = []
        for solver in ("randomsearch", "gp-ucb"):
            for _ in range(3):
                n = int(rng.integers(3, 12))
                logs.append(
                    make_log(
                        rng.normal(size=n),
                        solver_id=solver,
                        solver_times=rng.exponential(0.2, size=n),
                    )
                )
        return logs

    def test_matches_event_loop_oracle(self):
        logs = self._random_logs(31)
        runs_by_solver = {}
        for log in logs:
            runs_by_solver.setdefault(log.solver_id, []).append(
                (
                    [r.objective for r in log.records],
                    [r.solver_time for r in log.records],
                )
            )
        budgets = [0.05, 0.3, 1.0, 3.0, 10.0]
        eval_times = [0.01, 0.1, 0.5]
        grid = replay(logs, budgets=budgets, eval_times=eval_times)
        for i, budget in enumerate(budgets):
            for j, tau in enumerate(eval_times):
                cell = grid.cell(i, j)
                expected = _oracle_cell(runs_by_solver, tau, budget)
                if expected is None:
                    assert not cell.defined
                    assert cell.means == {}
                else:
                    assert cell.defined
                    for solver, mean in expected.items():
                        assert cell.means[solver] == pytest.approx(mean, rel=1e-12)
                    assert cell.winner == min(expected, key=lambda s: (expected[s], s))

    def test_mean_non_increasing_in_budget(self):
        logs = self._random_logs(47)
        budgets = sorted(float(b) for b in np.geomspace(0.05, 20.0, 12))
        grid = replay(logs, budgets=budgets, eval_times=[0.1])
        for solver in grid.solvers:
            last = None
            for i in range(len(budgets)):
                cell = grid.cell(i, 0)
                if not cell.defined:
                    continue
                if last is not None:
                    assert cell.means[solver] <= last + 1e-12
                last = cell.means[solver]

    def test_winner_tie_breaks_lexicographically(self):
        a = make_log([5.0, 1.0], solver_id="zeta", solver_times=[0.1, 0.1])
        b = make_log([5.0, 1.0], solver_id="alpha", solver_times=[0.1, 0.1])
        grid = replay([a, b], budgets=[0.6], eval_times=[0.2])
        assert grid.cells[0].winner == "alpha"

    def test_any_solver_undefined_poisons_cell(self):
        quick = make_log([1.0, 0.5], solver_times=[0.0, 0.0])
        slow = make_log([2.0], solver_id="gp-ucb", solver_times=[100.0])
        grid = replay([quick, slow], budgets=[1.0], eval_times=[0.2])
        assert not grid.cells[0].defined

    def test_cell_accessor_layout(self):
        logs = self._random_logs(5)
        budgets = [1.0, 2.0, 4.0]
        eval_times = [0.1, 0.2]
        grid = replay(logs, budgets=budgets, eval_times=eval_times)
        for i, b in enumerate(budgets):
            for j, t in enumerate(eval_times):
                cell = grid.cell(i, j)
                assert cell.budget == b
                assert cell.eval_time == t

    def test_default_axes(self):
        evals = default_eval_times()
        budgets = default_budgets()
        assert len(evals) == 10 and len(budgets) == 10
        assert evals[0] == pytest.approx(1.2e-4) and evals[-1] == pytest.approx(1.296e5)
        assert budgets[0] == pytest.approx(4.9e-4) and budgets[-1] == pytest.approx(1.296e5)
        ratios = np.diff(np.log(evals))
        assert np.allclose(ratios, ratios[0])

    def test_mixed_problems_rejected(self):
        a = make_log([1.0], problem_id="p1")
        b = make_log([1.0], problem_id="p2")
        with pytest.raises(ValueError, match="mix"):
            replay([a, b], budgets=[1.0], eval_times=[1.0])


class TestGrowTree:
    def test_single_threshold_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["a", "a", "b", "b"], dtype=object)
        tree = grow_tree(X, y)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)
        assert tree.n_leaves == 2
        assert tree.accuracy(X, y) == 1.0

    def test_tie_prefers_lowest_feature_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array(["a", "a", "b", "b"], dtype=object)
        tree = grow_tree(X, y)
        assert tree.feature[0] == 0

    def test_xor_needs_zero_gain_root_split(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array(["a", "b", "b", "a"], dtype=object)
        tree = grow_tree(X, y)
        assert tree.accuracy(X, y) == 1.0
        assert tree.depth() == 2
        assert tree.n_leaves == 4

    def test_caps_respected_on_noise(self):
        rng = make_rng(17)
        X = rng.normal(size=(200, 4))
        y = np.array([str(v) for v in rng.integers(0, 3, size=200)], dtype=object)
        tree = grow_tree(X, y)
        assert tree.n_leaves <= 6
        assert tree.depth() <= 5

    def test_pure_node_not_split(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array(["a", "a", "a"], dtype=object)
        tree = grow_tree(X, y)
        assert tree.n_leaves == 1
        assert tree.depth() == 0

    def test_prediction_follows_thresholds(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["a", "a", "b", "b"], dtype=object)
        tree = grow_tree(X, y)
        assert tree.predict_one([1.49]) == "a"
        assert tree.predict_one([1.51]) == "b"
        assert list(tree.predict([[0.2], [2.9]])) == ["a", "b"]


class TestFitRulesTree:
    def test_separable_labels_generalise(self):
        rng = make_rng(23)
        X = rng.uniform(-2.0, 2.0, size=(80, 4))
        y = np.where(X[:, 0] <= 0.3, "cheap", "pricey").astype(object)
        tree, train_acc, test_acc = fit_rules_tree(X, y, split_seed=1)
        assert train_acc == 1.0
        assert test_acc == 1.0
        assert tree.feature_names[tree.feature[0]] == "log10_budget"

    def test_xor_traits(self):
        base = np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=float
        )
        X = np.zeros((60, 4))
        X[:, 2:] = np.tile(base, (15, 1))
        y = np.array(
            ["a" if r[2] == r[3] else "b" for r in X], dtype=object
        )
        tree, train_acc, test_acc = fit_rules_tree(X, y, split_seed=3)
        assert train_acc == 1.0
        assert test_acc == 1.0

    def test_single_label_short_circuits(self):
        X = np.zeros((12, 4))
        y = np.array(["gp-ucb"] * 12, dtype=object)
        tree, train_acc, test_acc = fit_rules_tree(X, y)
        assert tree.depth() == 0
        assert (train_acc, test_acc) == (1.0, 1.0)
        assert tree.text_rules() == ("always use gp-ucb",)

    def test_deterministic_given_seed(self):
        rng = make_rng(29)
        X = rng.normal(size=(50, 4))
        y = np.array([str(v) for v in rng.integers(0, 2, size=50)], dtype=object)
        first = fit_rules_tree(X, y, split_seed=7)
        second = fit_rules_tree(X, y, split_seed=7)
        assert first[0].to_jsonable() == second[0].to_jsonable()
        assert first[1] == second[1] and first[2] == second[2]

    def test_train_accuracy_beats_majority_baseline(self):
        rng = make_rng(41)
        X = rng.normal(size=(120, 4))
        y = np.array(
            [str(v) for v in rng.integers(0, 3, size=120)], dtype=object
        )
        tree, train_acc, _ = fit_rules_tree(X, y, split_seed=2)
        _, counts = np.unique(y.astype(str), return_counts=True)
        majority = counts.max() / counts.sum()
        # Fitted on 80% only, so compare against the full-set majority
        # with a small slack for split imbalance.
        assert train_acc >= majority - 0.1

    def test_rule_dataset_extraction(self):
        cells = (
            ReplayCell(10.0, 0.1, True, {"a": 1.0, "b": 2.0}, "a"),
            ReplayCell(10.0, 1.0, False),
            ReplayCell(100.0, 0.1, True, {"a": 2.0, "b": 1.0}, "b"),
            ReplayCell(100.0, 1.0, True, {"a": 1.0, "b": 1.0}, "a"),
        )
        grid = ReplayGrid((10.0, 100.0), (0.1, 1.0), ("a", "b"), cells)
        X, y = rule_dataset({"prob": grid}, {"prob": (True, False)})
        assert X.shape == (3, 4)
        assert np.allclose(X[0], [1.0, -1.0, 1.0, 0.0])
        assert list(y) == ["a", "b", "a"]

    def test_rule_dataset_requires_defined_cells(self):
        grid = ReplayGrid((1.0,), (1.0,), ("a",), (ReplayCell(1.0, 1.0, False),))
        with pytest.raises(ValueError, match="no defined cells"):
            rule_dataset({"p": grid}, {"p": (False, False)})
