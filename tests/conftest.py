"""Shared fixtures for the test suite (run-log builders: ``run_log_helpers``)."""

import pytest

from sbobench.core import Condition, SearchSpace, VariableSpec


@pytest.fixture
def box_space():
    """Two continuous variables on different ranges."""
    return SearchSpace(
        (
            VariableSpec("x", "continuous", lower=0.0, upper=1.0),
            VariableSpec("y", "continuous", lower=-2.0, upper=3.0),
        )
    )


@pytest.fixture
def mixed_space():
    """Continuous + integer + categorical with one conditional child."""
    return SearchSpace(
        (
            VariableSpec("alg", "categorical", categories=("a", "b", "c")),
            VariableSpec("x", "continuous", lower=0.0, upper=1.0),
            VariableSpec("k", "integer", lower=0, upper=5),
            VariableSpec(
                "gamma",
                "continuous",
                lower=0.0,
                upper=10.0,
                condition=Condition(parent="alg", category="b"),
            ),
        )
    )
