"""Proxy problems: penalty plateaus, oracles, and registry wiring."""

import math
import time

import numpy as np
import pytest

from sbobench.core import make_rng, sample_uniform, validate_point
from sbobench.problems import (
    EspProblem,
    HpoProblem,
    PipeProblem,
    RosenbrockProblem,
    SphereProblem,
    WindWakeProblem,
    available_problems,
    make_problem,
    register_problem,
    unregister_problem,
    with_delay,
)


class TestWindWake:
    def test_overlapping_turbines_return_exact_zero(self):
        p = WindWakeProblem(n_turbines=2, seed=0)
        pt = p.space.make_point({"x0": 100.0, "y0": 100.0,
                                 "x1": 100.0, "y1": 100.0})
        obj, _ = p.evaluate(pt)
        assert obj == 0.0

    def test_just_inside_min_distance_is_penalised(self):
        p = WindWakeProblem(n_turbines=2, seed=0, rotor_diameter=50.0)
        pt = p.space.make_point({"x0": 100.0, "y0": 100.0,
                                 "x1": 199.0, "y1": 100.0})  # 99 < 100
        assert p.evaluate(pt)[0] == 0.0

    def test_two_far_crosswind_turbines_give_twice_single_power(self):
        p = WindWakeProblem(n_turbines=2, n_scenarios=1, seed=7,
                         field_side=1000.0, rotor_diameter=10.0)
        theta, speed = p.scenarios[0]
        # Place the pair exactly across-wind so neither is downstream.
        across = np.array([-math.sin(theta), math.cos(theta)])
        centre = np.array([500.0, 500.0])
        a = centre + 400.0 * across
        b = centre - 400.0 * across
        pt = p.space.make_point({"x0": a[0], "y0": a[1],
                                 "x1": b[0], "y1": b[1]})
        obj, _ = p.evaluate(pt)
        single = (speed / 10.0) ** 3
        assert obj == pytest.approx(-2.0 * single, abs=1e-12)

    def test_matches_plain_loop_reimplementation(self):
        # Straight-line re-implementation of the documented wake model.
        p = WindWakeProblem(n_turbines=4, n_scenarios=3, seed=11,
                         field_side=500.0, rotor_diameter=20.0)
        rng = make_rng(5)
        checked = 0
        while checked < 5:
            pt = sample_uniform(p.space, rng)
            obj, _ = p.evaluate(pt)
            if obj == 0.0:
                continue
            pos = [(pt[2 * i], pt[2 * i + 1]) for i in range(4)]
            powers = []
            for theta, speed in p.scenarios:
                wind = (math.cos(theta), math.sin(theta))
                total = 0.0
                for i in range(4):
                    deficit = 0.0
                    for j in range(4):
                        if i == j:
                            continue
                        dx = pos[i][0] - pos[j][0]
                        dy = pos[i][1] - pos[j][1]
                        down = dx * wind[0] + dy * wind[1]
                        cross = -dx * wind[1] + dy * wind[0]
                        if down > 0:
                            width = 0.5 * 20.0 + 0.08 * down
                            deficit += (0.6 / (1 + down / (10 * 20.0))
                                        * math.exp(-cross**2 / (2 * width**2)))
                    u = speed * (1.0 - min(deficit, 1.0))
                    total += (u / 10.0) ** 3
                powers.append(total)
            expected = -sum(powers) / len(powers)
            assert obj == pytest.approx(expected, abs=1e-12)
            checked += 1

    def test_downstream_turbine_loses_power(self):
        p = WindWakeProblem(n_turbines=2, n_scenarios=1, seed=7,
                         field_side=2000.0, rotor_diameter=30.0)
        theta, speed = p.scenarios[0]
        wind = np.array([math.cos(theta), math.sin(theta)])
        centre = np.array([1000.0, 1000.0])
        a = centre - 150.0 * wind   # upstream
        b = centre + 150.0 * wind   # directly downstream
        pt = p.space.make_point({"x0": a[0], "y0": a[1],
                                 "x1": b[0], "y1": b[1]})
        obj, _ = p.evaluate(pt)
        assert obj > -2.0 * (speed / 10.0) ** 3  # less power than isolated pair

    def test_default_space_is_ten_continuous_variables(self):
        p = WindWakeProblem()
        assert len(p.space.variables) == 10
        assert all(v.kind == "continuous" for v in p.space.variables)


class TestPipe:
    def test_centre_is_feasible_optimum(self):
        p = PipeProblem()
        centre = p.space.make_point({f"x{i}": 0.5 for i in range(10)})
        obj, _ = p.evaluate(centre)
        assert obj == pytest.approx(0.4, abs=1e-12)
        assert obj == p.known_optimum
        assert obj < 2.0

    def test_corner_is_penalised_exactly(self):
        for d in (2, 5, 10):
            p = PipeProblem(d=d)
            corner = p.space.make_point({f"x{i}": 1.0 for i in range(d)})
            assert p.evaluate(corner)[0] == 2.0

    def test_uniform_sweep_partitions_cleanly(self):
        p = PipeProblem()
        rng = make_rng(3)
        feasible = 0
        for _ in range(10_000):
            pt = sample_uniform(p.space, rng)
            obj, _ = p.evaluate(pt)
            dist = math.dist(pt, [0.5] * 10)
            if dist <= p.radius:
                assert 0.4 <= obj < 2.0
                feasible += 1
            else:
                assert obj == 2.0
        assert 0 < feasible < 10_000

    def test_objective_between_bounds_inside(self):
        p = PipeProblem(d=3)
        rng = make_rng(4)
        for _ in range(2000):
            pt = sample_uniform(p.space, rng)
            obj, _ = p.evaluate(pt)
            if obj < 2.0:
                assert 0.4 <= obj <= 1.65 + 1e-12


class TestEsp:
    def test_flat_single_variable_move_exists_and_is_exact(self):
        p = EspProblem(seed=0)
        base = p.space.make_point({v.name: "0" for v in p.space.variables})
        base_obj, _ = p.evaluate(base)
        found = False
        for v in p.space.variables:
            for option in v.categories[1:]:
                moved = dict(p.space.as_mapping(base))
                moved[v.name] = option
                obj, _ = p.evaluate(p.space.make_point(moved))
                if obj == base_obj:
                    found = True
                    break
            if found:
                break
        assert found, "no flat single-option move near the all-zeros config"

    def test_about_half_of_single_moves_are_flat(self):
        p = EspProblem(seed=0)
        rng = make_rng(1)
        flat = total = 0
        for _ in range(10):
            pt = sample_uniform(p.space, rng)
            base_obj, _ = p.evaluate(pt)
            mapping = p.space.as_mapping(pt)
            for v in p.space.variables:
                for option in v.categories:
                    if option == mapping[v.name]:
                        continue
                    moved = dict(mapping)
                    moved[v.name] = option
                    obj, _ = p.evaluate(p.space.make_point(moved))
                    total += 1
                    flat += obj == base_obj
        assert 0.25 < flat / total < 0.75

    def test_objectives_are_exact_quarter_multiples(self):
        p = EspProblem(seed=2)
        rng = make_rng(2)
        for _ in range(100):
            obj, _ = p.evaluate(sample_uniform(p.space, rng))
            assert obj == round(obj * 4.0) / 4.0

    def test_dp_equals_brute_force_on_tiny_instances(self):
        for n_slots, n_options, window, seed in [
            (4, 2, 2, 0), (4, 2, 2, 5), (3, 2, 2, 1),
            (4, 2, 3, 3), (2, 4, 2, 4),
        ]:
            if n_slots <= window:
                continue
            p = EspProblem(n_slots=n_slots, n_options=n_options,
                          window=window, seed=seed)
            assert n_options ** n_slots <= 20 or n_options ** n_slots == 256
            assert p.known_optimum == p.exhaustive_minimum()

    def test_known_optimum_lower_bounds_random_sampling(self):
        p = EspProblem(n_slots=10, n_options=4, window=3, seed=6)
        rng = make_rng(7)
        values = [p.evaluate(sample_uniform(p.space, rng))[0]
                  for _ in range(10_000)]
        assert p.known_optimum <= min(values)

    def test_default_space_shape(self):
        p = EspProblem()
        assert len(p.space.variables) == 49
        assert all(v.kind == "categorical" and len(v.categories) == 8
                   for v in p.space.variables)


class TestHpo:
    def test_default_point_is_feasible(self):
        p = HpoProblem(seed=0)
        pt = p.default_point()
        assert validate_point(p.space, pt) is None
        assert p.simulated_cost(pt) <= 8.0
        obj, _ = p.evaluate(pt)
        assert -1.0 < obj < 0.0

    def test_maximal_cost_knobs_hit_timeout_plateau(self):
        p = HpoProblem(seed=0)
        pt = p.space.make_point({
            "model": "boosted", "n_rounds": 500, "learning_rate": 0.5,
            "max_depth": 6, "min_leaf": 5, "reg": 1.0, "preproc": "pca",
        })
        assert p.simulated_cost(pt) > 8.0
        assert p.evaluate(pt)[0] == 0.0

    def test_toggling_inactive_child_changes_nothing(self):
        p = HpoProblem(seed=3)
        base = {"model": "boosted", "n_rounds": 80, "learning_rate": 0.2,
                "max_depth": 6, "min_leaf": 5, "reg": 1.0, "preproc": "none"}
        a = p.space.make_point(base)
        for twiddle in ({"max_depth": 12}, {"min_leaf": 19}, {"reg": 9.0}):
            b = p.space.make_point({**base, **twiddle})
            assert p.evaluate(a)[0] == p.evaluate(b)[0]
            assert p.simulated_cost(a) == p.simulated_cost(b)

    def test_space_mixes_all_kinds_and_has_conditionals(self):
        p = HpoProblem(seed=0)
        kinds = {v.kind for v in p.space.variables}
        assert kinds == {"continuous", "integer", "categorical"}
        gated = [v for v in p.space.variables if v.condition is not None]
        assert len(gated) >= 3

    def test_virtual_eval_time_is_capped_simulated_cost(self):
        p = HpoProblem(seed=0)
        cheap = p.default_point()
        _, t = p.evaluate(cheap, virtual=True)
        assert t == pytest.approx(p.simulated_cost(cheap))
        dear = p.space.make_point({
            "model": "boosted", "n_rounds": 500, "learning_rate": 0.5,
            "max_depth": 6, "min_leaf": 5, "reg": 1.0, "preproc": "pca",
        })
        assert p.evaluate(dear, virtual=True)[1] == 8.0

    def test_random_sampling_mostly_feasible_sometimes_not(self):
        p = HpoProblem(seed=1)
        rng = make_rng(2)
        objs = [p.evaluate(sample_uniform(p.space, rng))[0]
                for _ in range(400)]
        objs = np.asarray(objs)
        assert np.any(objs == 0.0)
        assert np.mean(objs < 0.0) > 0.5


class TestNoiseModel:
    def test_disabled_noise_is_deterministic(self):
        p = PipeProblem(d=3)
        pt = p.space.make_point({"x0": 0.5, "x1": 0.45, "x2": 0.6})
        assert p.evaluate(pt)[0] == p.evaluate(pt)[0]

    def test_gaussian_noise_perturbs_repeat_evaluations(self):
        p = SphereProblem(d=2, noise_sigma=0.1)
        pt = p.space.make_point({"x0": 1.0, "x1": 1.0})
        a = [p.evaluate(pt)[0] for _ in range(50)]
        assert len(set(a)) > 1
        assert abs(np.mean(a) - 2.0) < 0.1  # unbiased around f = 2


class TestDelayWrapper:
    def test_zero_delay_is_identity(self):
        p = SphereProblem(d=2)
        q = with_delay(p, 0.0)
        pt = p.space.make_point({"x0": 1.0, "x1": -1.0})
        assert q.evaluate(pt)[0] == p.evaluate(pt)[0]

    def test_virtual_mode_adds_delay_without_sleeping(self):
        p = SphereProblem(d=2)
        q = with_delay(p, 0.1)
        pt = p.space.make_point({"x0": 0.0, "x1": 0.0})
        base_obj, base_time = p.evaluate(pt, virtual=True)
        start = time.perf_counter()
        obj, t = q.evaluate(pt, virtual=True)
        wall = time.perf_counter() - start
        assert obj == base_obj
        assert t == pytest.approx(base_time + 0.1, abs=1e-12)
        assert wall < 0.05

    def test_real_mode_actually_sleeps(self):
        p = SphereProblem(d=2)
        q = with_delay(p, 0.05)
        pt = p.space.make_point({"x0": 0.5, "x1": 0.5})
        start = time.perf_counter()
        for _ in range(20):
            _, t = q.evaluate(pt)
            assert t >= 0.05
        assert time.perf_counter() - start >= 1.0

    def test_real_mode_reports_measured_sleep(self, monkeypatch):
        # Every sleep overruns by 30 ms; the reported time must include it.
        from sbobench.problems import base

        real_sleep = time.sleep
        monkeypatch.setattr(base.time, "sleep", lambda s: real_sleep(s + 0.03))
        q = with_delay(SphereProblem(d=2), 0.01)
        pt = q.space.make_point({"x0": 0.5, "x1": 0.5})
        _, t = q.evaluate(pt)
        assert t >= 0.04

    def test_nested_delays_add(self):
        p = SphereProblem(d=2)
        q = with_delay(with_delay(p, 0.25), 0.5)
        pt = p.space.make_point({"x0": 0.0, "x1": 0.0})
        assert q.evaluate(pt, virtual=True)[1] == pytest.approx(0.75, abs=1e-12)

    def test_original_is_left_undelayed(self):
        p = SphereProblem(d=2)
        with_delay(p, 0.5)
        pt = p.space.make_point({"x0": 0.0, "x1": 0.0})
        assert p.evaluate(pt, virtual=True)[1] == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            with_delay(SphereProblem(), -0.1)

    def test_reseeding_restarts_the_inner_noise_stream(self):
        bare = SphereProblem(d=2, noise_sigma=0.5)
        delayed = with_delay(SphereProblem(d=2, noise_sigma=0.5), 0.0)
        origin = bare.space.make_point({"x0": 0.0, "x1": 0.0})
        for _ in range(2):
            bare.seed_noise(1)
            delayed.seed_noise(1)
            assert delayed.evaluate(origin, virtual=True) == bare.evaluate(origin, virtual=True)

    def test_wrapping_keeps_the_inner_noise_stream(self):
        noisy = SphereProblem(d=2, noise_sigma=0.5)
        twin = SphereProblem(d=2, noise_sigma=0.5)
        twin.seed_noise(7)
        noisy.seed_noise(7)
        delayed = with_delay(noisy, 0.0)
        origin = twin.space.make_point({"x0": 0.0, "x1": 0.0})
        assert delayed.evaluate(origin, virtual=True) == twin.evaluate(origin, virtual=True)


class TestSynthetic:
    def test_sphere_minimum_at_origin(self):
        p = SphereProblem(d=4)
        origin = p.space.make_point({f"x{i}": 0.0 for i in range(4)})
        assert p.evaluate(origin)[0] == 0.0 == p.known_optimum

    def test_rosenbrock_minimum_at_ones(self):
        p = RosenbrockProblem(d=3)
        ones = p.space.make_point({f"x{i}": 1.0 for i in range(3)})
        assert p.evaluate(ones)[0] == 0.0
        other = p.space.make_point({"x0": 0.0, "x1": 0.0, "x2": 0.0})
        assert p.evaluate(other)[0] > 0.0


class TestRegistry:
    def test_all_tokens_construct(self):
        for token in available_problems():
            p = make_problem(token, seed=5)
            assert p.space.variables
            rng = make_rng(0)
            obj, t = p.evaluate(sample_uniform(p.space, rng))
            assert np.isfinite(obj) and t >= 0.0

    def test_expected_tokens_present(self):
        tokens = available_problems()
        for token in ("windwake-toy", "pipe-proxy", "esp-proxy",
                      "hpo-proxy", "sphere", "rosenbrock"):
            assert token in tokens

    def test_unknown_token_raises(self):
        with pytest.raises(KeyError):
            make_problem("no-such-problem")

    def test_params_forwarded(self):
        p = make_problem("pipe-proxy", d=4)
        assert len(p.space.variables) == 4

    def test_seed_reaches_a_built_in_problem(self):
        tables = make_problem("esp-proxy", seed=1).tables
        np.testing.assert_array_equal(tables, EspProblem(seed=1).tables)
        assert not np.array_equal(tables, EspProblem(seed=2).tables)

    def test_registered_factory_without_seed_ignores_it(self):
        register_problem("seedless", lambda d=2: SphereProblem(d=d))
        try:
            p = make_problem("seedless", seed=7, d=3)
        finally:
            unregister_problem("seedless")
        assert len(p.space.variables) == 3

    def test_registered_factory_with_seed_receives_it(self):
        seeds = []

        def factory(seed=0):
            seeds.append(seed)
            return SphereProblem(d=2)

        register_problem("seeded", factory)
        try:
            make_problem("seeded", seed=7)
        finally:
            unregister_problem("seeded")
        assert seeds == [7]

    def test_invalid_point_rejected(self):
        p = make_problem("pipe-proxy", d=2)
        other = make_problem("sphere", d=2)
        rng = make_rng(1)
        pt = sample_uniform(other.space, rng)  # wrong space/bounds
        with pytest.raises(ValueError):
            p.evaluate(pt)
