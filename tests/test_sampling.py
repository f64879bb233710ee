"""Uniform sampling: marginals, determinism and dependency order."""

import numpy as np

from sbobench.core import (
    Condition,
    SearchSpace,
    VariableSpec,
    make_rng,
    sample_uniform,
    validate_point,
)


def test_categorical_frequencies_are_uniform():
    space = SearchSpace((VariableSpec("c", "categorical", categories=tuple(f"opt{i}" for i in range(8))),))
    rng = make_rng(1234)
    counts = {f"opt{i}": 0 for i in range(8)}
    n = 80_000
    for _ in range(n):
        counts[sample_uniform(space, rng)[0]] += 1
    for label, count in counts.items():
        assert abs(count / n - 0.125) <= 0.01, (label, count / n)


def test_integer_range_is_covered_inclusively():
    space = SearchSpace((VariableSpec("k", "integer", lower=0, upper=3),))
    rng = make_rng(7)
    seen = {sample_uniform(space, rng)[0] for _ in range(40_000)}
    assert seen == {0, 1, 2, 3}


def test_continuous_draws_stay_in_bounds_and_look_uniform():
    space = SearchSpace((VariableSpec("x", "continuous", lower=-2.0, upper=3.0),))
    rng = make_rng(99)
    xs = np.array([sample_uniform(space, rng)[0] for _ in range(20_000)])
    assert xs.min() >= -2.0 and xs.max() <= 3.0
    # Mean of U(-2, 3) is 0.5 with sd 5/sqrt(12); the sample mean over
    # 20k draws should sit within ~5 standard errors.
    se = 5.0 / np.sqrt(12.0) / np.sqrt(len(xs))
    assert abs(xs.mean() - 0.5) < 5 * se


def test_same_seed_reproduces_the_same_stream(mixed_space):
    a = [sample_uniform(mixed_space, make_rng(42)) for _ in range(1)]
    rng1, rng2 = make_rng(42), make_rng(42)
    seq1 = [sample_uniform(mixed_space, rng1) for _ in range(50)]
    seq2 = [sample_uniform(mixed_space, rng2) for _ in range(50)]
    assert seq1 == seq2
    assert seq1[0] == a[0]


def test_reproducible_to_seventeen_significant_digits(box_space):
    first = sample_uniform(box_space, make_rng(2024))
    second = sample_uniform(box_space, make_rng(2024))
    for u, v in zip(first, second):
        assert repr(u) == repr(v)


def test_sampled_points_always_validate(mixed_space):
    rng = make_rng(5)
    for _ in range(500):
        pt = sample_uniform(mixed_space, rng)
        assert validate_point(mixed_space, pt) is None


def test_inactive_children_are_still_sampled(mixed_space):
    rng = make_rng(11)
    gi = mixed_space.index("gamma")
    saw_inactive_value = False
    for _ in range(100):
        pt = sample_uniform(mixed_space, rng)
        assert isinstance(pt[gi], float)
        if not mixed_space.activity(pt)[gi]:
            saw_inactive_value = True
    assert saw_inactive_value


def test_parents_sampled_before_children_regardless_of_declaration():
    """A child declared before its parent still gets a consistent draw."""
    space = SearchSpace(
        (
            VariableSpec(
                "child", "continuous", lower=0.0, upper=1.0,
                condition=Condition("parent", "yes"),
            ),
            VariableSpec("parent", "categorical", categories=("yes", "no")),
        )
    )
    rng = make_rng(3)
    for _ in range(50):
        pt = sample_uniform(space, rng)
        assert validate_point(space, pt) is None
        assert space.activity(pt)[0] == (pt[1] == "yes")


def test_different_seeds_give_different_first_draws(box_space):
    pts = {sample_uniform(box_space, make_rng(s)) for s in range(20)}
    assert len(pts) == 20
