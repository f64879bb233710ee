"""Solver loop contracts: warm-up stream, acquisition fidelity, adapters."""

import numpy as np
import pytest

from sbobench.core import (
    SearchSpace,
    VariableSpec,
    make_rng,
    sample_uniform,
    validate_point,
)
from sbobench.core.rng import derive_seed
from sbobench.problems import esp_proxy, hpo_proxy, pipe_proxy, sphere
from sbobench.solvers import (
    RandomSearchSolver,
    available_solvers,
    canonical_kind,
    make_solver,
    ucb_score,
)
from sbobench.surrogates.encoding import encode, encoded_bounds
from sbobench.surrogates.gp import (
    GaussianProcessModel,
    _pairwise_dists,
    default_params,
    optimise_hyperparameters,
)

ALL_KINDS = ("randomsearch", "gp-ucb", "rff-local", "pwl-low", "pwl-high",
             "forest-ucb")


def drive(solver, problem, n):
    for _ in range(n):
        pt = solver.suggest()
        solver.observe(pt, problem.evaluate(pt)[0])
    return solver


class TestUcbScore:
    def test_reference_value(self):
        assert ucb_score(0.0, 1.0, 2.576) == pytest.approx(2.576)

    def test_zero_variance_is_pure_exploitation(self):
        assert ucb_score(1.25, 0.0) == -1.25

    def test_beta_zero_ranks_by_mean(self):
        rng = make_rng(0)
        means = rng.normal(size=100)
        variances = rng.uniform(size=100)
        scores = ucb_score(means, variances, beta=0.0)
        assert int(np.argmax(scores)) == int(np.argmin(means))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ucb_score(0.0, -1e-9)


class TestWarmUpPhase:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_r_suggestions_reproduce_uniform_stream(self, kind):
        problem = pipe_proxy(d=3)
        solver = make_solver(kind, problem.space, R=4, seed=123)
        reference = make_rng(123)
        for _ in range(4):
            pt = solver.suggest()
            assert pt == sample_uniform(problem.space, reference)
            solver.observe(pt, problem.evaluate(pt)[0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_model_absent_until_r_observations(self, kind):
        problem = pipe_proxy(d=2)
        solver = make_solver(kind, problem.space, R=3, seed=5)
        for i in range(5):
            pt = solver.suggest()
            solver.observe(pt, problem.evaluate(pt)[0])
            if kind == "randomsearch":
                assert solver.model is None
            elif i + 1 < 3:
                assert solver.model is None
            else:
                assert solver.model is not None

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError):
            make_solver("randomsearch", sphere(d=2).space, R=0, seed=1)


class TestLoopContracts:
    def test_history_grows_by_one_per_observation(self):
        problem = sphere(d=2)
        solver = make_solver("randomsearch", problem.space, R=2, seed=0)
        for i in range(6):
            pt = solver.suggest()
            assert solver.iteration == i
            solver.observe(pt, problem.evaluate(pt)[0])
            assert solver.iteration == i + 1

    def test_nan_objective_rejected(self):
        problem = sphere(d=2)
        solver = make_solver("randomsearch", problem.space, R=2, seed=0)
        pt = solver.suggest()
        with pytest.raises(ValueError, match="non-finite objective"):
            solver.observe(pt, float("nan"))

    def test_double_suggest_rejected(self):
        solver = make_solver("randomsearch", sphere(d=2).space, R=2, seed=0)
        solver.suggest()
        with pytest.raises(RuntimeError, match="not been observed"):
            solver.suggest()

    def test_observing_wrong_point_rejected(self):
        problem = sphere(d=2)
        solver = make_solver("randomsearch", problem.space, R=2, seed=0)
        solver.suggest()
        rogue = sample_uniform(problem.space, make_rng(99))
        with pytest.raises(ValueError, match="pending suggestion"):
            solver.observe(rogue, 1.0)

    def test_transcript_injection_without_pending(self):
        problem = sphere(d=2)
        solver = make_solver("forest-ucb", problem.space, R=2, seed=0)
        rng = make_rng(7)
        for _ in range(3):
            pt = sample_uniform(problem.space, rng)
            solver.observe(pt, problem.evaluate(pt)[0])
        assert solver.iteration == 3
        assert solver.model is not None

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic_given_seed(self, kind):
        problem = pipe_proxy(d=3)
        runs = []
        for _ in range(2):
            solver = make_solver(kind, problem.space, R=4, seed=77)
            drive(solver, problem, 10)
            runs.append([pt for pt, _ in solver.history])
        assert runs[0] == runs[1]

    def test_incumbent_is_the_cached_encoded_row(self):
        problem = hpo_proxy(seed=0)
        solver = make_solver("rff-local", problem.space, R=20, seed=3)
        drive(solver, problem, 8)
        best = min(solver.history, key=lambda pair: pair[1])[0]
        assert solver._incumbent_encoded().tolist() == encode(problem.space, best).tolist()

    def test_distinct_seeds_diverge(self):
        problem = pipe_proxy(d=3)
        a = make_solver("randomsearch", problem.space, R=2, seed=1).suggest()
        b = make_solver("randomsearch", problem.space, R=2, seed=2).suggest()
        assert a != b


class TestGpUcbAcquisition:
    def test_dense_grid_oracle_on_1d(self):
        space = SearchSpace((VariableSpec("x", "continuous",
                                          lower=0.0, upper=1.0),))
        for seed in (0, 1, 2):
            solver = make_solver("gp-ucb", space, R=2, seed=seed)
            fn = lambda v: np.sin(5.0 * v) + 0.5 * v
            for _ in range(2):
                pt = solver.suggest()
                solver.observe(pt, fn(pt[0]))
            suggestion = solver.suggest()
            grid = np.linspace(0.0, 1.0, 10_001).reshape(-1, 1)
            mean, var = solver.model.predict_variance_encoded(grid)
            scores = ucb_score(mean + solver._offset, var, solver.beta)
            best = grid[int(np.argmax(scores)), 0]
            got = suggestion[0]
            assert abs(got - best) <= 1e-3
            boundary = ucb_score(*solver.model.predict_variance_encoded(
                np.array([[got]])), solver.beta)
            assert scores.max() - float(boundary[0]) <= 1e-6

    def test_argmax_over_frozen_candidates_without_refinement(self):
        problem = pipe_proxy(d=3)
        solver = make_solver("gp-ucb", problem.space, R=5, seed=9,
                             overrides={"refine": 0})
        drive(solver, problem, 5)
        suggestion = solver.suggest()
        audit = solver.last_proposal
        # Recompute scores from the frozen model over the audited set.
        mean, var = solver.model.predict_variance_encoded(audit["candidates"])
        scores = ucb_score(mean + solver._offset, var, solver.beta)
        np.testing.assert_allclose(scores, audit["scores"], rtol=0, atol=0)
        chosen = int(np.argmax(scores))
        assert chosen == audit["chosen_index"]
        np.testing.assert_array_equal(
            encode(problem.space, suggestion),
            np.clip(audit["candidates"][chosen], 0.0, 1.0),
        )

    def test_beta_override_changes_ranking(self):
        problem = pipe_proxy(d=2)
        greedy = make_solver("gp-ucb", problem.space, R=5, seed=3,
                             overrides={"beta": 0.0, "refine": 0})
        drive(greedy, problem, 5)
        greedy.suggest()
        audit = greedy.last_proposal
        assert audit["chosen_index"] == int(np.argmin(audit["means"]))


class TestForestUcbAcquisition:
    def test_argmax_over_audited_candidates(self):
        problem = esp_proxy(n_slots=6, n_options=3, window=2, seed=1)
        solver = make_solver("forest-ucb", problem.space, R=6, seed=4)
        drive(solver, problem, 6)
        suggestion = solver.suggest()
        audit = solver.last_proposal
        mean, var = solver.model.predict_variance_encoded(audit["candidates"])
        scores = ucb_score(mean, var, solver.beta)
        np.testing.assert_array_equal(scores, audit["scores"])
        assert int(np.argmax(scores)) == audit["chosen_index"]
        np.testing.assert_array_equal(
            encode(problem.space, suggestion),
            audit["candidates"][audit["chosen_index"]],
        )

    def test_candidate_set_size(self):
        problem = sphere(d=2)
        solver = make_solver("forest-ucb", problem.space, R=4, seed=2,
                             overrides={"uniform_candidates": 32,
                                        "mutations": 16})
        drive(solver, problem, 4)
        solver.suggest()
        assert len(solver.last_proposal["candidates"]) == 48


class TestForestUcbCandidateMatrix:
    @pytest.mark.parametrize("make_problem", [lambda: hpo_proxy(seed=0),
                                              lambda: sphere(d=3)],
                             ids=["hpo-proxy", "sphere"])
    def test_uniform_block_mutants_and_decoded_choice(self, make_problem):
        problem = make_problem()
        space = problem.space
        lower, upper = encoded_bounds(space)
        discrete = np.array([v.kind != "continuous" for v in space.variables])
        solver = make_solver("forest-ucb", space, R=6, seed=21)
        drive(solver, problem, 6)
        for _ in range(3):
            X, y = solver._encoded_history()
            elites = X[np.argsort(y, kind="stable")[:4]]
            suggestion = solver.suggest()
            audit = solver.last_proposal
            candidates = audit["candidates"]
            assert candidates.shape == (512, space.dimension)
            uniform, mutants = candidates[:256], candidates[256:]
            assert np.all((uniform >= lower) & (uniform <= upper))
            assert np.array_equal(uniform[:, discrete],
                                  np.rint(uniform[:, discrete]))
            assert all(len(np.unique(column)) > 1 for column in uniform.T)
            for k, row in enumerate(mutants):
                changed = np.flatnonzero(row != elites[k % 4])
                assert len(changed) <= 1
                for j in changed:
                    assert lower[j] <= row[j] <= upper[j]
                    assert not discrete[j] or row[j] == np.rint(row[j])
            assert validate_point(space, suggestion) is None
            np.testing.assert_array_equal(
                encode(space, suggestion),
                candidates[audit["chosen_index"]],
            )
            solver.observe(suggestion, problem.evaluate(suggestion)[0])


def _reference_descent(solver, starts):
    """rff-local's bounded descent written out in full: each start's trust
    box, the stop rule and the active rows, with the surrogate's value and
    gradient spelled out from its Fourier basis.  A matrix product rounds
    a row differently depending on how many rows it is given, so a row's
    value and sines are carried from the batch that accepted it, as in
    the solver."""
    model = solver.model
    W, b, c = model.W, model.b, model.coefficients

    def phases(X):
        return X @ W.T + b

    def predict(A):
        return np.hstack([np.ones((len(A), 1)), np.cos(A)]) @ c

    radius = solver.jitter_scale * (solver._hi - solver._lo)
    lower = np.maximum(solver._lo, starts - radius)
    upper = np.minimum(solver._hi, starts + radius)
    tol = 1e-3 * np.max(radius)
    x = starts.copy()
    value = predict(phases(x))
    sines = np.sin(phases(x))
    step = np.full(len(x), np.max(radius))
    steps = np.zeros(len(x), dtype=int)
    active = np.ones(len(x), dtype=bool)
    for _ in range(solver.descent_steps):
        if not active.any():
            break
        rows = x[active]
        grad = -(c[1:] * sines[active]) @ W
        norm = np.linalg.norm(grad, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        trial = np.clip(rows - step[active, None] * grad / norm,
                        lower[active], upper[active])
        trial_phases = phases(trial)
        trial_value = predict(trial_phases)
        better = trial_value < value[active]
        move = np.max(np.abs(trial - rows), axis=1)
        accepted = np.flatnonzero(active)[better]
        x[accepted] = trial[better]
        value[accepted] = trial_value[better]
        sines[accepted] = np.sin(trial_phases[better])
        step[active] = np.where(better, step[active] * 1.1, step[active] * 0.5)
        steps[active] += 1
        active[active] = (step[active] > tol) & (move > tol)
    return x, steps


def _fitted_rff_local(problem):
    solver = make_solver("rff-local", problem.space, R=10, seed=5)
    return drive(solver, problem, 12)


class TestRffLocalDescent:
    @pytest.mark.parametrize("make_problem", [lambda: pipe_proxy(d=10),
                                              lambda: hpo_proxy(seed=0)],
                             ids=["pipe-proxy-10", "hpo-proxy"])
    def test_descent_equals_reference_loop(self, make_problem):
        solver = _fitted_rff_local(make_problem())
        rng = make_rng(8)
        for _ in range(6):
            starts = rng.uniform(solver._lo, solver._hi,
                                 size=(solver.starts, len(solver._lo)))
            got, steps = solver._descend(starts)
            want, want_steps = _reference_descent(solver, starts)
            assert got.tobytes() == want.tobytes()
            assert steps.tobytes() == want_steps.tobytes()
            assert not np.array_equal(got, starts)

    @pytest.mark.parametrize("make_problem", [lambda: pipe_proxy(d=10),
                                              lambda: hpo_proxy(seed=0)],
                             ids=["pipe-proxy-10", "hpo-proxy"])
    def test_ends_stay_in_their_trust_boxes(self, make_problem):
        solver = _fitted_rff_local(make_problem())
        radius = solver.jitter_scale * (solver._hi - solver._lo)
        rng = make_rng(9)
        for _ in range(6):
            starts = rng.uniform(solver._lo, solver._hi,
                                 size=(solver.starts, len(solver._lo)))
            ends, _ = solver._descend(starts)
            assert np.all(np.maximum(solver._lo, starts - radius) <= ends)
            assert np.all(ends <= np.minimum(solver._hi, starts + radius))
            assert np.all((solver._lo <= ends) & (ends <= solver._hi))

    def test_converged_starts_stop_early(self):
        problem = pipe_proxy(d=10)
        solver = _fitted_rff_local(problem)
        drive(solver, problem, 1)
        steps = solver.last_proposal["steps"]
        assert steps.shape == (solver.starts,)
        assert np.all((1 <= steps) & (steps <= solver.descent_steps))
        assert steps.min() < solver.descent_steps


def _reference_gp_refit(solver, params):
    """gp-ucb's refit written out with its own default parameters, box
    diagonal, distance matrix and hyperparameter search, from the
    parameters ``params`` held before the observation."""
    n = len(solver.history)
    X, y = solver._encoded_history()
    offset = float(y.mean())
    box_diag = float(np.sqrt(np.sum((solver._hi - solver._lo) ** 2)))
    if params is None or (n - solver.R) % solver.hyper_interval == 0:
        dists = _pairwise_dists(X, X)
        init = params or default_params(solver.space, y - offset)
        params = optimise_hyperparameters(
            dists, y - offset, box_diag, init,
            multistarts=solver.multistarts, steps=solver.steps,
            seed=derive_seed(solver.seed, "hyperopt", n),
        )
    return GaussianProcessModel(params, X, y - offset)


class TestGpUcbRefit:
    @pytest.mark.parametrize("make_problem", [lambda: esp_proxy(seed=0),
                                              lambda: hpo_proxy(seed=0)],
                             ids=["esp-proxy", "hpo-proxy"])
    def test_refit_equals_reference(self, make_problem):
        problem = make_problem()
        solver = make_solver("gp-ucb", problem.space, R=5, seed=9,
                             overrides={"hyper_interval": 3, "candidates": 64,
                                        "refine": 0})
        drive(solver, problem, 5)
        # n = 8, 11, 14 and 17 re-tune, warm-started from the held
        # parameters; the other steps reuse them.
        for n in range(6, 18):
            params = solver._params
            drive(solver, problem, 1)
            ref = _reference_gp_refit(solver, params)
            assert solver._params == ref.params
            assert (solver._params == params) == ((n - 5) % 3 != 0)
            assert solver.model.alpha.tobytes() == ref.alpha.tobytes()
            assert solver.model.L.tobytes() == ref.L.tobytes()


def _reference_coordinate_descent(solver, x):
    """pwl's coordinate descent written out: every coordinate's grid with
    the current value appended, the trial phases by ``np.outer`` and the
    predictions through hstacked hinge design rows."""
    model = solver.model
    W, b, c = model.W, model.b, model.coefficients
    x = x.copy()
    phases = (np.atleast_2d(x) @ W.T + b)[0]
    for _ in range(solver.sweeps):
        for j, variable in enumerate(solver.space.variables):
            if variable.kind == "continuous":
                grid = np.linspace(solver._lo[j], solver._hi[j], solver.grid)
            else:
                grid = np.arange(solver._lo[j], solver._hi[j] + 1.0)
            column = np.append(grid, x[j])
            trial_phases = phases + np.outer(column - x[j], W[:, j])
            design = np.hstack([np.ones((len(column), 1)), np.maximum(trial_phases, 0.0)])
            best = int(np.argmin(design @ c))
            x[j], phases = column[best], trial_phases[best]
    return x


class TestPwlCoordinateDescent:
    @pytest.mark.parametrize("make_problem", [lambda: pipe_proxy(d=10),
                                              lambda: hpo_proxy(seed=0)],
                             ids=["pipe-proxy-10", "hpo-proxy"])
    def test_descent_equals_reference_loop(self, make_problem):
        problem = make_problem()
        solver = drive(make_solver("pwl-high", problem.space, R=10, seed=5), problem, 12)
        rng = make_rng(8)
        starts = [solver._incumbent_encoded()]
        starts += list(rng.uniform(solver._lo, solver._hi, size=(5, len(solver._lo))))
        for start in starts:
            got = solver._coordinate_descent(start)
            assert got.tobytes() == _reference_coordinate_descent(solver, start).tobytes()
            assert not np.array_equal(got, start)


class TestPwlPair:
    def test_identical_models_on_identical_transcripts(self):
        problem = pipe_proxy(d=4)
        low = make_solver("pwl-low", problem.space, R=6, seed=11)
        high = make_solver("pwl-high", problem.space, R=6, seed=11)
        rng = make_rng(50)
        for _ in range(8):
            pt = sample_uniform(problem.space, rng)
            y = problem.evaluate(pt)[0]
            low.observe(pt, y)
            high.observe(pt, y)
        np.testing.assert_array_equal(low.model.coefficients,
                                      high.model.coefficients)
        assert low.factor == 1.0 and high.factor == 4.0

    def test_thousand_bases_on_purely_continuous_space(self):
        problem = pipe_proxy(d=10)
        solver = make_solver("pwl-high", problem.space, R=3, seed=0)
        drive(solver, problem, 3)
        assert solver.model.n_basis == 1000

    def test_fewer_bases_on_mixed_space(self):
        problem = esp_proxy(n_slots=5, n_options=3, window=2, seed=0)
        solver = make_solver("pwl-low", problem.space, R=3, seed=0)
        drive(solver, problem, 3)
        assert solver.model.n_basis == 512


class TestAdapters:
    def test_continuous_native_solver_runs_on_mixed_space(self):
        from sbobench.solvers import GpUcbSolver

        problem = esp_proxy(n_slots=5, n_options=3, window=2, seed=0)
        solver = GpUcbSolver(problem.space, R=3, seed=0, candidates=64, refine=0)
        for _ in range(5):
            pt = solver.suggest()
            assert validate_point(problem.space, pt) is None
            solver.observe(pt, problem.evaluate(pt)[0])

    def test_internal_real_suggestions_round_to_valid_values(self):
        space = SearchSpace((
            VariableSpec("k", "integer", lower=0, upper=5),
            VariableSpec("c", "categorical",
                         categories=tuple("abcdefgh")),
        ))

        class Stub(RandomSearchSolver):
            def _acquire(self):
                return self._decode(np.array([2.7, 7.9]))

        solver = Stub(space, R=1, seed=0)
        pt = solver.suggest()
        solver.observe(pt, 0.0)
        pt = solver.suggest()
        assert pt[0] == 3
        assert pt[1] == "h"

    def test_adapted_gp_produces_only_valid_points_on_esp(self):
        problem = esp_proxy(n_slots=6, n_options=4, window=3, seed=2)
        solver = make_solver("gp-ucb", problem.space, R=5, seed=8)
        for _ in range(12):
            pt = solver.suggest()
            assert validate_point(problem.space, pt) is None
            solver.observe(pt, problem.evaluate(pt)[0])


class TestMixedConditionalSpaces:
    @pytest.mark.parametrize("kind", ("randomsearch", "forest-ucb", "gp-ucb"))
    def test_solvers_run_on_conditional_space(self, kind):
        problem = hpo_proxy(seed=0)
        solver = make_solver(kind, problem.space, R=5, seed=3)
        for _ in range(10):
            pt = solver.suggest()
            assert validate_point(problem.space, pt) is None
            solver.observe(pt, problem.evaluate(pt)[0])


class TestFactory:
    def test_canonical_names_accept_aliases(self):
        assert canonical_kind("random_search") == "randomsearch"
        assert canonical_kind("gp_ucb") == "gp-ucb"
        assert canonical_kind("pwl_high_explore") == "pwl-high"
        assert canonical_kind("forest-ucb") == "forest-ucb"

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            make_solver("simulated-annealing", sphere(d=2).space, R=2, seed=0)

    def test_available_solvers_lists_all_six(self):
        assert set(available_solvers()) == set(ALL_KINDS)
