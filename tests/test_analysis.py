"""Normalised curves, the pooled t-test and AUC summaries."""

import math

import numpy as np
import pytest
from scipy import integrate

from sbobench.analysis import (
    auc,
    normalize_curves,
    pairwise_ttest,
    regularized_incomplete_beta,
    student_t_sf2,
)
from sbobench.core import best_so_far, make_rng

from run_log_helpers import make_log


class TestNormalizeCurves:
    def test_affine_anchors(self):
        # Baseline best-so-far is 10 at iteration 1 and 5 at iteration R,
        # so a later best of 2.5 lands at (2.5 - 10) / (5 - 10) = 1.5.
        log = make_log([10.0, 7.0, 5.0, 2.5], rand_init=3)
        curves = normalize_curves([log], R=3)
        curve = curves["randomsearch"]
        assert curve.r0 == 10.0
        assert curve.r1 == 5.0
        assert curve.iterations == (4,)
        assert curve.mean == pytest.approx((1.5,))
        assert curve.std == pytest.approx((0.0,))

    def test_warmup_iterations_omitted(self):
        log = make_log(list(range(20, 0, -1)), rand_init=5)
        curve = normalize_curves([log], R=5)["randomsearch"]
        assert curve.iterations == tuple(range(6, 21))
        assert len(curve.mean) == 15

    def test_baseline_anchors_average_across_runs(self):
        a = make_log([10.0, 6.0, 3.0], rand_init=2)
        b = make_log([20.0, 8.0, 7.0], rand_init=2)
        curve = normalize_curves([a, b], R=2)["randomsearch"]
        assert curve.r0 == pytest.approx(15.0)
        assert curve.r1 == pytest.approx(7.0)
        assert curve.n_runs == 2

    def test_affine_invariance(self):
        rng = make_rng(7)
        raw = [rng.normal(size=12) for _ in range(3)]
        logs = [make_log(y, rand_init=4) for y in raw]
        other = [
            make_log(y + 0.3 * rng.normal(size=12), solver_id="gp-ucb", rand_init=4)
            for y in raw
        ]
        base = normalize_curves(logs + other, R=4)
        scaled_logs = [make_log(3.7 * np.array(y) - 12.0, rand_init=4) for y in raw]
        scaled_other = [
            make_log(
                3.7 * np.array([r.objective for r in log.records]) - 12.0,
                solver_id="gp-ucb",
                rand_init=4,
            )
            for log in other
        ]
        scaled = normalize_curves(scaled_logs + scaled_other, R=4)
        for solver in base:
            assert np.allclose(base[solver].mean, scaled[solver].mean)
            assert np.allclose(base[solver].std, scaled[solver].std)

    def test_ranking_preserved_at_each_iteration(self):
        rng = make_rng(3)
        logs = []
        for solver in ("randomsearch", "gp-ucb", "forest-ucb"):
            for _ in range(4):
                logs.append(
                    make_log(rng.uniform(0.0, 10.0, size=15), solver_id=solver, rand_init=3)
                )
        curves = normalize_curves(logs, R=3)
        raw_mean = {
            solver: np.mean(
                [best_so_far(l) for l in logs if l.solver_id == solver], axis=0
            )
            for solver in curves
        }
        # Lower raw objective is better and maps to a *larger* normalised
        # value (the baseline end of warm-up anchors at 1), so the quality
        # ranking must come out reversed in value and preserved in rank.
        for i, iteration in enumerate(curves["randomsearch"].iterations):
            raw_order = sorted(curves, key=lambda s: raw_mean[s][iteration - 1])
            norm_order = sorted(curves, key=lambda s: -curves[s].mean[i])
            assert raw_order == norm_order

    def test_truncates_to_shortest_run_per_solver(self):
        a = make_log(list(range(10, 0, -1)), rand_init=2)
        b = make_log(list(range(12, 0, -1)), rand_init=2)
        curve = normalize_curves([a, b], R=2)["randomsearch"]
        assert curve.iterations[-1] == 10

    def test_degenerate_baseline_rejected(self):
        log = make_log([4.0, 4.0, 4.0, 3.0], rand_init=3)
        with pytest.raises(ValueError, match="degenerate baseline"):
            normalize_curves([log], R=3)

    def test_missing_baseline_rejected(self):
        log = make_log([3.0, 2.0, 1.0], solver_id="gp-ucb", rand_init=1)
        with pytest.raises(ValueError, match="baseline"):
            normalize_curves([log], R=1)

    def test_mixed_problems_rejected(self):
        a = make_log([3.0, 1.0], problem_id="p1", rand_init=1)
        b = make_log([3.0, 1.0], problem_id="p2", rand_init=1)
        with pytest.raises(ValueError, match="mix"):
            normalize_curves([a, b], R=1)

    def test_run_shorter_than_warmup_rejected(self):
        log = make_log([3.0, 2.0], rand_init=2)
        with pytest.raises(ValueError, match="records"):
            normalize_curves([log], R=2)


def _t_pdf(x: float, df: float) -> float:
    c = math.exp(
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return c * (1.0 + x * x / df) ** (-(df + 1.0) / 2.0)


def _p_two_sided_quadrature(t: float, df: float) -> float:
    tail, _ = integrate.quad(_t_pdf, abs(t), np.inf, args=(df,))
    return 2.0 * tail


class TestPairwiseTtest:
    def test_matches_quadrature_oracle(self):
        rng = make_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            m = int(rng.integers(2, 15))
            a = rng.normal(0.0, 1.0, size=n)
            b = rng.normal(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0), size=m)
            mean_a, mean_b = a.mean(), b.mean()
            pooled = ((n - 1) * a.var(ddof=1) + (m - 1) * b.var(ddof=1)) / (n + m - 2)
            if pooled == 0.0:
                continue
            t = (mean_a - mean_b) / math.sqrt(pooled * (1 / n + 1 / m))
            expected = _p_two_sided_quadrature(t, n + m - 2)
            assert pairwise_ttest(a, b) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        rng = make_rng(5)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(2, 10)))
            b = rng.normal(1.0, 2.0, size=int(rng.integers(2, 10)))
            assert pairwise_ttest(a, b) == pytest.approx(pairwise_ttest(b, a), rel=1e-12)

    def test_identical_samples_give_p_one(self):
        assert pairwise_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_constant_samples_degenerate(self):
        assert pairwise_ttest([2.0, 2.0], [2.0, 2.0, 2.0]) == 1.0
        assert pairwise_ttest([2.0, 2.0], [3.0, 3.0]) == 0.0

    def test_textbook_value(self):
        # Equal variances, means one pooled-unit apart: t = -1 with df = 8.
        p = pairwise_ttest([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert 0.34 < p < 0.35

    def test_larger_separation_is_more_significant(self):
        rng = make_rng(9)
        base = rng.normal(size=8)
        p_small = pairwise_ttest(base, base + 0.5)
        p_large = pairwise_ttest(base, base + 3.0)
        assert p_large < p_small

    def test_requires_two_values_per_sample(self):
        with pytest.raises(ValueError, match="two values"):
            pairwise_ttest([1.0], [1.0, 2.0])


class TestRegularizedIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_arcsine_closed_form(self):
        for x in (0.1, 0.25, 0.5, 0.9):
            expected = 2.0 / math.pi * math.asin(math.sqrt(x))
            assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(
                expected, abs=1e-12
            )

    def test_complement_symmetry(self):
        rng = make_rng(2)
        for _ in range(30):
            a = float(rng.uniform(0.3, 8.0))
            b = float(rng.uniform(0.3, 8.0))
            x = float(rng.uniform(0.01, 0.99))
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)
        with pytest.raises(ValueError):
            student_t_sf2(1.0, 0.0)


class TestAuc:
    def test_instant_optimum_scores_one(self):
        hit = make_log([0.0, 3.0, 4.0])
        slow = make_log([10.0, 8.0, 6.0], solver_id="gp-ucb")
        scores = auc([hit, slow], n_iterations=3)
        assert scores["randomsearch"] == (1.0, 0.0)

    def test_stuck_at_worst_scores_zero(self):
        stuck = make_log([10.0, 10.0, 10.0])
        other = make_log([0.0, 5.0, 5.0], solver_id="gp-ucb")
        scores = auc([stuck, other], n_iterations=3)
        assert scores["randomsearch"] == (0.0, 0.0)

    def test_hand_computed_fixture(self):
        a = make_log([4.0, 2.0, 2.0])
        b = make_log([0.0, 8.0, 8.0], solver_id="gp-ucb")
        scores = auc([a, b], n_iterations=3)
        assert scores["randomsearch"][0] == pytest.approx((0.5 + 0.75 + 0.75) / 3)
        assert scores["gp-ucb"][0] == pytest.approx(1.0)

    def test_mean_and_std_across_runs(self):
        runs = [make_log([0.0, 0.0]), make_log([10.0, 10.0])]
        scores = auc(runs, n_iterations=2)
        assert scores["randomsearch"] == (pytest.approx(0.5), pytest.approx(0.5))

    def test_scores_lie_in_unit_interval(self):
        rng = make_rng(13)
        logs = []
        for solver in ("randomsearch", "gp-ucb"):
            for _ in range(5):
                logs.append(make_log(rng.normal(size=30), solver_id=solver))
        for mean, std in auc(logs, n_iterations=30).values():
            assert 0.0 <= mean <= 1.0
            assert std >= 0.0

    def test_only_first_n_iterations_count(self):
        # The late dive below everything else must not help when N = 2.
        diver = make_log([10.0, 10.0, 0.0])
        other = make_log([5.0, 5.0, 5.0], solver_id="gp-ucb")
        scores = auc([diver, other], n_iterations=2)
        assert scores["randomsearch"][0] == pytest.approx(0.0)
        assert scores["gp-ucb"][0] == pytest.approx(0.5)

    def test_matches_per_run_loop_exactly(self):
        rng = make_rng(29)
        logs = [make_log(rng.normal(size=int(rng.integers(12, 40))), solver_id=solver)
                for solver in ("randomsearch", "gp-ucb", "forest-ucb") for _ in range(4)]
        f_min = min(min(r.objective for r in log.records) for log in logs)
        f_max = max(max(r.objective for r in log.records) for log in logs)
        expected = {}
        for log in logs:
            curve = (best_so_far(log)[:12] - f_max) / (f_min - f_max)
            expected.setdefault(log.solver_id, []).append(float(curve.mean()))
        assert auc(logs, n_iterations=12) == {
            solver: (float(np.mean(v)), float(np.std(v))) for solver, v in expected.items()}

    def test_short_log_rejected(self):
        with pytest.raises(ValueError, match="records"):
            auc([make_log([1.0, 2.0])], n_iterations=3)

    def test_flat_objectives_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            auc([make_log([2.0, 2.0])], n_iterations=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no run logs"):
            auc([], n_iterations=1)
