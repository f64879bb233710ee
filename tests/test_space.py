"""Search-space construction and point validation."""

import pytest

from sbobench.core import (
    Condition,
    Point,
    SearchSpace,
    VariableSpec,
    validate_point,
)


class TestVariableSpec:
    def test_continuous_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            VariableSpec("x", "continuous", lower=1.0, upper=1.0)
        with pytest.raises(ValueError):
            VariableSpec("x", "continuous", lower=2.0, upper=1.0)

    def test_integer_bounds_must_be_whole(self):
        with pytest.raises(ValueError):
            VariableSpec("k", "integer", lower=0.5, upper=3)

    def test_categorical_needs_two_distinct_categories(self):
        with pytest.raises(ValueError):
            VariableSpec("c", "categorical", categories=("only",))
        with pytest.raises(ValueError):
            VariableSpec("c", "categorical", categories=("a", "a"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            VariableSpec("x", "boolean", lower=0, upper=1)


class TestSearchSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(
                (
                    VariableSpec("x", "continuous", lower=0, upper=1),
                    VariableSpec("x", "continuous", lower=0, upper=1),
                )
            )

    def test_condition_parent_must_exist_and_be_categorical(self):
        with pytest.raises(ValueError, match="does not exist"):
            SearchSpace(
                (
                    VariableSpec(
                        "x", "continuous", lower=0, upper=1,
                        condition=Condition("ghost", "a"),
                    ),
                )
            )
        with pytest.raises(ValueError, match="not categorical"):
            SearchSpace(
                (
                    VariableSpec("p", "continuous", lower=0, upper=1),
                    VariableSpec(
                        "x", "continuous", lower=0, upper=1,
                        condition=Condition("p", "a"),
                    ),
                )
            )

    def test_condition_category_must_belong_to_parent(self):
        with pytest.raises(ValueError, match="not a category"):
            SearchSpace(
                (
                    VariableSpec("p", "categorical", categories=("a", "b")),
                    VariableSpec(
                        "x", "continuous", lower=0, upper=1,
                        condition=Condition("p", "z"),
                    ),
                )
            )

    def test_chained_conditions_are_allowed(self):
        space = SearchSpace(
            (
                VariableSpec("p", "categorical", categories=("a", "b")),
                VariableSpec(
                    "q", "categorical", categories=("u", "v"),
                    condition=Condition("p", "a"),
                ),
                VariableSpec(
                    "x", "continuous", lower=0, upper=1,
                    condition=Condition("q", "u"),
                ),
            )
        )
        pt = space.make_point({"p": "b", "q": "u", "x": 0.5})
        # q is inactive because p != a, so x is inactive too.
        assert pt.active == (True, False, False)


class TestValidatePoint:
    def test_interior_point_is_valid(self, box_space):
        pt = box_space.make_point({"x": 0.25, "y": 0.0})
        assert validate_point(box_space, pt) is None

    def test_bounds_are_inclusive(self, box_space):
        pt = box_space.make_point({"x": 1.0, "y": -2.0})
        assert validate_point(box_space, pt) is None

    def test_out_of_bounds_names_the_variable(self, box_space):
        pt = box_space.make_point({"x": 1.5, "y": 0.0})
        msg = validate_point(box_space, pt)
        assert msg is not None and msg.startswith("x ")

    def test_conditional_active_iff_parent_matches(self, mixed_space):
        on = mixed_space.make_point({"alg": "b", "x": 0.5, "k": 2, "gamma": 3.0})
        off = mixed_space.make_point({"alg": "a", "x": 0.5, "k": 2, "gamma": 3.0})
        assert on.active[mixed_space.index("gamma")] is True
        assert off.active[mixed_space.index("gamma")] is False
        assert validate_point(mixed_space, on) is None
        assert validate_point(mixed_space, off) is None

    def test_wrong_activity_flag_is_reported(self, mixed_space):
        good = mixed_space.make_point({"alg": "a", "x": 0.5, "k": 2, "gamma": 3.0})
        bad = Point(values=good.values, active=(True, True, True, True))
        msg = validate_point(mixed_space, bad)
        assert msg == "gamma must be inactive"

    def test_inactive_variables_still_carry_values(self, mixed_space):
        pt = mixed_space.make_point({"alg": "a", "x": 0.5, "k": 2, "gamma": 7.25})
        assert pt.values[mixed_space.index("gamma")] == 7.25

    def test_bad_category_is_reported(self, mixed_space):
        pt = Point(values=("z", 0.5, 2, 1.0), active=(True, True, True, False))
        msg = validate_point(mixed_space, pt)
        assert msg == "alg is not a valid category"

    def test_wrong_arity_is_reported(self, box_space):
        pt = Point(values=(0.5,), active=(True,))
        assert "values" in validate_point(box_space, pt)

    def test_non_integer_value_for_integer_variable(self, mixed_space):
        pt = Point(values=("a", 0.5, 2.5, 1.0), active=(True, True, True, False))
        assert validate_point(mixed_space, pt) == "k is not an integer"

    def test_continuous_int_too_large_for_a_float_is_out_of_bounds(self, box_space):
        pt = Point(values=(10**400, 0.0), active=(True, True))
        assert validate_point(box_space, pt) == "x out of bounds"
        below = Point(values=(0.5, -(10**400)), active=(True, True))
        assert validate_point(box_space, below) == "y out of bounds"

    def test_continuous_int_bounds_are_compared_exactly(self):
        space = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=2.0**53),))
        assert validate_point(space, Point(values=(2**53,), active=(True,))) is None
        assert validate_point(space, Point(values=(2**53 + 1,), active=(True,))) == "x out of bounds"

    def test_non_finite_and_non_numeric_continuous_values(self, box_space):
        for bad in (float("nan"), float("inf"), True, "0.5", None):
            pt = Point(values=(bad, 0.0), active=(True, True))
            assert validate_point(box_space, pt) == "x is not a finite number"
