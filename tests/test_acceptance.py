"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail
line per criterion.  Each test pins its numeric tolerance and asserts
its own runtime ceiling.
"""

import time

import numpy as np
import pytest

from sbobench.analysis import (
    ReplayCell,
    ReplayGrid,
    auc,
    fit_rules_tree,
    grow_tree,
    normalize_curves,
    offline_eval,
    pairwise_ttest,
    replay,
    rule_dataset,
)
from sbobench.core import best_so_far, derive_seed, make_rng, sample_uniform, validate_point
from sbobench.core.runio import load_run_logs
from sbobench.harness import ExperimentConfig, run_experiment, run_single
from sbobench.harness.cli import main as cli_main
from sbobench.problems import EspProblem, make_problem
from sbobench.solvers import make_solver
from sbobench.solvers.acquisition import DEFAULT_BETA
from sbobench.surrogates import encode_points, fit_gp, fit_least_squares, matern52
from sbobench.surrogates.least_squares import FAMILIES

from run_log_helpers import make_log


def _elapsed_under(t0: float, limit: float, label: str) -> None:
    elapsed = time.perf_counter() - t0
    print(f"{label}: {elapsed:.2f}s (limit {limit:g}s)")
    assert elapsed < limit


def test_criterion_01_gp_matches_dense_solve():
    """Posterior mean/variance within 1e-8 of a direct dense solve."""
    t0 = time.perf_counter()
    rng = make_rng(101)
    space = make_problem("sphere", d=3).space
    points = [space.make_point({"x0": a, "x1": b, "x2": c})
              for a, b, c in rng.uniform(-5.0, 5.0, size=(25, 3))]
    targets = [float(np.sin(p.values[0]) + 0.5 * p.values[1] ** 2 - p.values[2])
               for p in points]
    model = fit_gp(space, encode_points(space, points), np.array(targets))

    X = encode_points(space, points)
    queries = rng.uniform(X.min(), X.max(), size=(15, 3))
    p = model.params
    dists = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    K = p.signal_var * matern52(dists, p.lengthscale)
    K[np.diag_indices_from(K)] += p.noise_var + model.jitter
    alpha = np.linalg.solve(K, np.array(targets))
    qd = np.sqrt(((queries[:, None, :] - X[None, :, :]) ** 2).sum(-1))
    Ks = p.signal_var * matern52(qd, p.lengthscale)
    mean_oracle = Ks @ alpha
    var_oracle = (
        p.signal_var * np.ones(len(queries))
        - np.einsum("ij,ij->i", Ks, np.linalg.solve(K, Ks.T).T)
    )
    mean, var = model.predict_variance_encoded(queries)
    assert np.max(np.abs(mean - mean_oracle)) <= 1e-8
    assert np.max(np.abs(var - var_oracle)) <= 1e-8
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * K.shape[0]
    _elapsed_under(t0, 1.0, "criterion 1")


def test_criterion_02_least_squares_normal_equation_residual():
    """Optimality residual inf-norm <= 1e-6 for all four basis families."""
    t0 = time.perf_counter()
    rng = make_rng(202)
    space = make_problem("sphere", d=4).space
    for family in FAMILIES:
        for trial in range(10):
            n = int(rng.integers(30, 90))
            points = [
                space.make_point({f"x{i}": v for i, v in enumerate(row)})
                for row in rng.uniform(-5.0, 5.0, size=(n, 4))
            ]
            targets = rng.normal(size=n)
            model = fit_least_squares(
                space,
                encode_points(space, points),
                targets,
                family=family,
                n_basis=40,
                seed=trial,
            )
            phi = model.features(encode_points(space, points))
            c = model.coefficients
            residual = phi.T @ (phi @ c - targets) + model.ridge * c
            assert np.max(np.abs(residual)) <= 1e-6, family
    _elapsed_under(t0, 5.0, "criterion 2")


def test_criterion_03_suggest_is_exact_ucb_argmax():
    """Frozen-model suggestion equals the acquisition argmax over 512 candidates."""
    t0 = time.perf_counter()
    space = make_problem("sphere", d=3).space

    for trial in range(20):
        solver = make_solver(
            "gp-ucb", space, R=5, seed=derive_seed(303, "gp", trial),
            overrides={"refine": 0, "candidates": 512},
        )
        data_rng = make_rng(derive_seed(404, "data", trial))
        for _ in range(12):
            point = sample_uniform(space, data_rng)
            solver.observe(point, float(np.sum(np.square(point.values))))
        suggestion = solver.suggest()
        audit = solver.last_proposal
        scores = -audit["means"] + DEFAULT_BETA * np.sqrt(audit["variances"])
        best = int(np.argmax(scores))
        assert audit["candidates"].shape[0] == 512
        assert audit["chosen_index"] == best
        assert np.array_equal(audit["chosen_vector"], audit["candidates"][best])
        assert validate_point(space, suggestion) is None

    for trial in range(20):
        # 256 uniform + 256 mutation candidates: 512 total by default.
        solver = make_solver(
            "forest-ucb", space, R=5, seed=derive_seed(505, "forest", trial),
        )
        data_rng = make_rng(derive_seed(606, "data", trial))
        for _ in range(12):
            point = sample_uniform(space, data_rng)
            solver.observe(point, float(np.sum(np.square(point.values))))
        suggestion = solver.suggest()
        audit = solver.last_proposal
        scores = -audit["means"] + DEFAULT_BETA * np.sqrt(audit["variances"])
        best = int(np.argmax(scores))
        assert len(audit["candidates"]) == 512
        assert audit["chosen_index"] == best
        encoded = encode_points(space, [suggestion])[0]
        assert np.array_equal(encoded, audit["candidates"][best])
    _elapsed_under(t0, 5.0, "criterion 3")


def test_criterion_04_replay_equals_event_simulation():
    """Replay grid identical to an event-loop oracle on 100 random logs."""
    t0 = time.perf_counter()
    rng = make_rng(707)
    logs = []
    for solver_idx in range(5):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            logs.append(
                make_log(
                    rng.normal(size=n),
                    solver_id=f"solver{solver_idx}",
                    solver_times=rng.exponential(0.3, size=n),
                )
            )
    assert len(logs) == 100
    budgets = sorted(float(v) for v in rng.uniform(0.05, 60.0, size=8))
    eval_times = sorted(float(v) for v in rng.uniform(0.01, 2.0, size=8))
    grid = replay(logs, budgets=budgets, eval_times=eval_times)

    runs = {}
    for log in logs:
        runs.setdefault(log.solver_id, []).append(
            ([r.objective for r in log.records], [r.solver_time for r in log.records])
        )
    for i, budget in enumerate(budgets):
        for j, tau in enumerate(eval_times):
            means = {}
            defined = True
            for solver in sorted(runs):
                bests = []
                for objectives, solver_times in runs[solver]:
                    t, kept, crossed = 0.0, [], False
                    for obj, st in zip(objectives, solver_times):
                        t = t + st + tau
                        if t <= budget:
                            kept.append(obj)
                        else:
                            crossed = True
                            break
                    if not kept or (not crossed and t < budget):
                        defined = False
                        break
                    bests.append(min(kept))
                if not defined:
                    break
                means[solver] = float(np.mean(bests))
            cell = grid.cell(i, j)
            assert cell.defined == defined
            if defined:
                assert cell.means == means
                assert cell.winner == min(means, key=lambda s: (means[s], s))
    _elapsed_under(t0, 10.0, "criterion 4")


def test_criterion_05_normalisation_endpoints():
    """r0 maps to 0 and r1 to 1 exactly; AUC endpoints are exactly 1 and 0."""
    t0 = time.perf_counter()
    problem = make_problem("sphere", d=5)
    solver = make_solver(
        "randomsearch", problem.space, R=5, seed=derive_seed(11, "randomsearch", 0)
    )
    log = run_single(problem, solver, max_eval=12, rand_init=5, seed=0, virtual_time=True)
    curve = normalize_curves([log], R=5)["randomsearch"]
    bsf = best_so_far(log)
    normalised = (bsf - curve.r0) / (curve.r1 - curve.r0)
    assert normalised[0] == 0.0
    assert normalised[4] == 1.0

    instant = make_log([0.0, 3.0, 4.0])
    stuck = make_log([10.0, 10.0, 10.0], solver_id="gp-ucb")
    scores = auc([instant, stuck], n_iterations=3)
    assert scores["randomsearch"] == (1.0, 0.0)
    assert scores["gp-ucb"] == (0.0, 0.0)
    _elapsed_under(t0, 1.0, "criterion 5")


def test_criterion_06_model_beats_random_on_pipe(tmp_path):
    """gp-ucb final bests significantly lower than random search (p < 0.05)."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        problem="pipe-proxy",
        solvers=("randomsearch", "gp-ucb"),
        repetitions=20,
        max_eval=100,
        rand_init=20,
        out_path=str(tmp_path),
        base_seed=0,
        virtual_time=True,
        problem_params={"d": 10},
    )
    run_experiment(cfg)
    finals = {"randomsearch": [], "gp-ucb": []}
    for log, _ in load_run_logs(tmp_path):
        assert len(log.records) == 100 and not log.aborted
        finals[log.solver_id].append(float(best_so_far(log)[-1]))
    mean_rs = float(np.mean(finals["randomsearch"]))
    mean_gp = float(np.mean(finals["gp-ucb"]))
    p = pairwise_ttest(finals["gp-ucb"], finals["randomsearch"])
    print(f"criterion 6: gp-ucb {mean_gp:.4f} vs randomsearch {mean_rs:.4f}, p={p:.2e}")
    assert mean_gp < mean_rs
    assert p < 0.05
    _elapsed_under(t0, 120.0, "criterion 6")


def test_criterion_07_rounded_gp_on_categorical_chain(tmp_path):
    """gp-ucb with rounding runs 200 valid iterations and matches random search."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        problem="esp-proxy",
        solvers=("randomsearch", "gp-ucb"),
        repetitions=7,
        max_eval=200,
        rand_init=20,
        out_path=str(tmp_path),
        base_seed=0,
        virtual_time=True,
    )
    run_experiment(cfg)
    problem = make_problem("esp-proxy", seed=0)
    finals = {"randomsearch": [], "gp-ucb": []}
    for log, _ in load_run_logs(tmp_path):
        assert len(log.records) == 200 and not log.aborted
        for rec in log.records:
            assert validate_point(problem.space, rec.point) is None
        finals[log.solver_id].append(float(best_so_far(log)[-1]))
    mean_rs = float(np.mean(finals["randomsearch"]))
    mean_gp = float(np.mean(finals["gp-ucb"]))
    print(f"criterion 7: gp-ucb {mean_gp:.4f} vs randomsearch {mean_rs:.4f}")
    assert mean_gp <= mean_rs
    _elapsed_under(t0, 180.0, "criterion 7")


def test_criterion_08_offline_piecewise_linear_overfits(tmp_path):
    """Interpolating hinge fit: train MAE < 1e-3, test MAE >= 10x train."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        problem="esp-proxy",
        solvers=("randomsearch",),
        repetitions=2,
        max_eval=600,
        rand_init=10,
        out_path=str(tmp_path),
        base_seed=0,
        virtual_time=True,
    )
    run_experiment(cfg)
    result = offline_eval(
        load_run_logs(tmp_path),
        family="piecewise_linear",
        train_len=500,
        test_keep=1000,
        n_basis=500,
        ridge=1e-9,
    )
    print(
        f"criterion 8: train {result.train_mae_mean:.3e}, "
        f"test {result.test_mae_mean:.3e}"
    )
    assert result.train_mae_mean < 1e-3
    assert result.test_mae_mean >= 10.0 * result.train_mae_mean
    _elapsed_under(t0, 60.0, "criterion 8")


def test_criterion_09_rules_tree_caps_and_separable_accuracy():
    """Depth <= 5 and <= 6 leaves always; perfect accuracy on separable grid."""
    t0 = time.perf_counter()
    rng = make_rng(909)
    for _ in range(30):
        n = int(rng.integers(10, 150))
        X = rng.normal(size=(n, 4))
        y = np.array([str(v) for v in rng.integers(0, 4, size=n)], dtype=object)
        tree = grow_tree(X, y)
        assert tree.depth() <= 5
        assert tree.n_leaves <= 6
        fitted, _, _ = fit_rules_tree(X, y, split_seed=int(rng.integers(1 << 30)))
        assert fitted.depth() <= 5
        assert fitted.n_leaves <= 6

    cells = []
    for budget in np.geomspace(1e-3, 1e5, 9):
        for eval_time in np.geomspace(1e-4, 1e3, 8):
            winner = "randomsearch" if budget <= 10.0 else "gp-ucb"
            means = {"randomsearch": 1.0, "gp-ucb": 2.0}
            if winner == "gp-ucb":
                means = {"randomsearch": 2.0, "gp-ucb": 1.0}
            cells.append(ReplayCell(float(budget), float(eval_time), True, means, winner))
    grid = ReplayGrid(
        tuple(float(b) for b in np.geomspace(1e-3, 1e5, 9)),
        tuple(float(t) for t in np.geomspace(1e-4, 1e3, 8)),
        ("gp-ucb", "randomsearch"),
        tuple(cells),
    )
    X, y = rule_dataset({"grid": grid}, {"grid": (False, False)})
    _, train_acc, test_acc = fit_rules_tree(X, y, split_seed=5)
    assert train_acc == 1.0
    assert test_acc == 1.0
    _elapsed_under(t0, 5.0, "criterion 9")


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    """The same virtual-time CLI invocation twice produces identical CSVs."""
    t0 = time.perf_counter()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(
            [
                "--repetitions=2",
                "--max-eval=50",
                "--rand-evals-all=10",
                "--seed=3",
                "--virtual-time",
                "--out-path",
                str(out),
                "esp-proxy",
                "randomsearch",
                "gp-ucb",
            ]
        )
        assert code == 0
    names_a = sorted(p.name for p in out_a.glob("*.csv"))
    names_b = sorted(p.name for p in out_b.glob("*.csv"))
    assert names_a == names_b
    assert len(names_a) == 4  # 2 solvers x 2 repetitions
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _elapsed_under(t0, 120.0, "criterion 10")


def test_criterion_11_chain_dp_equals_exhaustive_search():
    """DP optimum == brute force on every small instance; bounds 10k samples."""
    t0 = time.perf_counter()
    small = [
        (3, 2, 2),
        (4, 2, 2),
        (4, 2, 3),
    ]
    for n_slots, n_options, window in small:
        assert n_options**n_slots <= 20
        for seed in (0, 1, 2, 5, 7):
            problem = EspProblem(
                n_slots=n_slots, n_options=n_options, window=window, seed=seed
            )
            assert problem.known_optimum == problem.exhaustive_minimum()

    problem = EspProblem()
    assert problem.space.dimension == 49
    rng = make_rng(1111)
    for _ in range(10_000):
        options = rng.integers(0, 8, size=49)
        assert problem.objective_of_indices(options) >= problem.known_optimum
    _elapsed_under(t0, 30.0, "criterion 11")
