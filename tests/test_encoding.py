"""Ordinal encoding and nearest-valid-point decoding."""

import numpy as np
import pytest

from sbobench.core import SearchSpace, VariableSpec, make_rng, sample_uniform, validate_point
from sbobench.problems import EspProblem, HpoProblem, PipeProblem
from sbobench.surrogates import encode, encode_points, encoded_bounds, nearest_point
from sbobench.surrogates.encoding import sample_encoded


def test_single_continuous_value_passes_through():
    space = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),))
    pt = space.make_point({"x": 0.3})
    assert encode(space, pt).tolist() == [0.3]


def test_categorical_encodes_as_index():
    space = SearchSpace((VariableSpec("c", "categorical", categories=("a", "b", "c")),))
    assert encode(space, space.make_point({"c": "b"})).tolist() == [1.0]


def test_mixed_space_is_encoded_in_declaration_order(mixed_space):
    pt = mixed_space.make_point({"alg": "c", "x": 0.25, "k": 4, "gamma": 2.5})
    assert encode(mixed_space, pt).tolist() == [2.0, 0.25, 4.0, 2.5]


def test_inactive_variables_keep_their_encoded_value(mixed_space):
    pt = mixed_space.make_point({"alg": "a", "x": 0.25, "k": 4, "gamma": 2.5})
    assert not mixed_space.activity(pt)[mixed_space.index("gamma")]
    assert encode(mixed_space, pt)[3] == 2.5


def test_encode_points_shape(mixed_space):
    rng = make_rng(0)
    pts = [sample_uniform(mixed_space, rng) for _ in range(7)]
    assert encode_points(mixed_space, pts).shape == (7, 4)


@pytest.mark.parametrize("make_problem", [EspProblem, lambda: HpoProblem(seed=0),
                                          lambda: PipeProblem(d=10)],
                         ids=["esp-proxy", "hpo-proxy", "pipe-proxy"])
def test_encode_points_equals_rowwise_reference(make_problem):
    space = make_problem().space
    rng = make_rng(11)
    pts = [sample_uniform(space, rng) for _ in range(300)]
    expected = np.array([
        [v.categories.index(x) if v.kind == "categorical" else float(x)
         for v, x in zip(space.variables, p)]
        for p in pts
    ], dtype=float)
    got = encode_points(space, pts)
    assert encode(space, pts[0]).tobytes() == expected[0].tobytes()
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_encode_points_of_no_points(mixed_space):
    assert encode_points(mixed_space, []).shape == (0, 4)


def test_sampled_rows_decode_exactly(mixed_space):
    rows = sample_encoded(mixed_space, make_rng(2), 200)
    assert rows.shape == (200, 4)
    for row in rows:
        pt = nearest_point(mixed_space, row)
        assert validate_point(mixed_space, pt) is None
        assert encode(mixed_space, pt).tolist() == row.tolist()
    # every level of the discrete columns turns up
    assert set(rows[:, 0]) == {0.0, 1.0, 2.0}
    assert set(rows[:, 2]) == {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}


def test_encoded_bounds(mixed_space):
    lower, upper = encoded_bounds(mixed_space)
    assert lower.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert upper.tolist() == [2.0, 1.0, 5.0, 10.0]


class TestNearestPoint:
    def test_integer_rounds_to_nearest(self):
        space = SearchSpace((VariableSpec("k", "integer", lower=0, upper=5),))
        assert nearest_point(space, [2.7]) == (3,)

    def test_categorical_clamps_then_rounds(self):
        space = SearchSpace(
            (VariableSpec("c", "categorical", categories=tuple("abcdefgh")),)
        )
        assert nearest_point(space, [7.9]) == ("h",)  # index 7 after clamping
        assert nearest_point(space, [-3.0]) == ("a",)

    def test_continuous_clamps_to_box(self):
        space = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),))
        assert nearest_point(space, [1.7]) == (1.0,)
        assert nearest_point(space, [0.4]) == (0.4,)

    def test_result_always_validates(self, mixed_space):
        rng = np.random.default_rng(1)
        lower, upper = encoded_bounds(mixed_space)
        for _ in range(200):
            vec = rng.uniform(lower - 2.0, upper + 2.0)
            pt = nearest_point(mixed_space, vec)
            assert validate_point(mixed_space, pt) is None

    def test_valid_vectors_decode_exactly(self, mixed_space):
        rng = make_rng(4)
        for _ in range(50):
            pt = sample_uniform(mixed_space, rng)
            assert nearest_point(mixed_space, encode(mixed_space, pt)) == pt
