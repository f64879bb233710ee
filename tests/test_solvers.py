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
from sbobench.problems import esp_proxy, hpo_proxy, pipe_proxy, sphere
from sbobench.solvers import (
    RandomSearchSolver,
    available_solvers,
    canonical_kind,
    make_solver,
    ucb_score,
)
from sbobench.surrogates.encoding import encode

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
            runs.append([pt.values for pt, _ in solver.history])
        assert runs[0] == runs[1]

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
                solver.observe(pt, fn(pt.values[0]))
            suggestion = solver.suggest()
            grid = np.linspace(0.0, 1.0, 10_001).reshape(-1, 1)
            mean, var = solver.model.predict_variance_encoded(grid)
            scores = ucb_score(mean + solver._offset, var, solver.beta)
            best = grid[int(np.argmax(scores)), 0]
            got = suggestion.values[0]
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
        assert pt.values[0] == 3
        assert pt.values[1] == "h"

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
