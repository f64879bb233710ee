"""Subprocess problem adapter: success path and error contracts."""

import json
import sys
import time

import pytest

from sbobench.core import make_rng, sample_uniform
from sbobench.core.space import SearchSpace, VariableSpec, space_to_jsonable
from sbobench.problems import EvaluationError, subprocess_problem


@pytest.fixture
def space_file(tmp_path):
    space = SearchSpace((
        VariableSpec("x", "continuous", lower=0.0, upper=1.0),
        VariableSpec("k", "integer", lower=0, upper=3),
    ))
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"variables": space_to_jsonable(space)}))
    return path


def test_constant_command_ignoring_input(space_file):
    p = subprocess_problem(
        f"{sys.executable} -c \"print(1.5)\" {{input}}", space_file
    )
    rng = make_rng(0)
    obj, t = p.evaluate(sample_uniform(p.space, rng))
    assert obj == 1.5
    assert t >= 0.0


def test_command_reads_point_file(space_file, tmp_path):
    script = tmp_path / "eval.py"
    script.write_text(
        "import json, sys\n"
        "point = json.load(open(sys.argv[1]))\n"
        "print(point['x'] + point['k'])\n"
    )
    p = subprocess_problem(f"{sys.executable} {script} {{input}}", space_file)
    pt = p.space.make_point({"x": 0.25, "k": 2})
    obj, _ = p.evaluate(pt)
    assert obj == pytest.approx(2.25)


def test_nonzero_exit_raises(space_file):
    p = subprocess_problem(
        f"{sys.executable} -c \"import sys; sys.exit(1)\" {{input}}",
        space_file,
    )
    rng = make_rng(1)
    with pytest.raises(EvaluationError, match="status 1"):
        p.evaluate(sample_uniform(p.space, rng))


def test_unparseable_output_raises(space_file):
    p = subprocess_problem("echo not-a-number {input}", space_file)
    rng = make_rng(2)
    with pytest.raises(EvaluationError, match="single real"):
        p.evaluate(sample_uniform(p.space, rng))


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_non_finite_output_raises(space_file, text):
    p = subprocess_problem(
        f"{sys.executable} -c \"print('{text}')\" {{input}}", space_file
    )
    rng = make_rng(5)
    with pytest.raises(EvaluationError, match="not finite"):
        p.evaluate(sample_uniform(p.space, rng))


def test_timeout_raises(space_file):
    p = subprocess_problem(
        f"{sys.executable} -c \"import time; time.sleep(5)\" {{input}}",
        space_file, timeout=0.2,
    )
    rng = make_rng(3)
    with pytest.raises(EvaluationError, match="timed out"):
        p.evaluate(sample_uniform(p.space, rng))


def test_eval_time_tracks_command_duration(space_file):
    p = subprocess_problem(
        f"{sys.executable} -c \"import time; time.sleep(1.0); print(2.5)\" {{input}}",
        space_file,
    )
    rng = make_rng(4)
    obj, t = p.evaluate(sample_uniform(p.space, rng))
    assert obj == 2.5
    assert 1.0 <= t <= 1.5


def test_missing_placeholder_rejected(space_file):
    with pytest.raises(ValueError, match="placeholder"):
        subprocess_problem("echo 1.0", space_file)


def test_bare_list_space_file(tmp_path):
    space = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=2.0),))
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(space_to_jsonable(space)))
    p = subprocess_problem("echo 0.0 {input}", path)
    assert p.space.variables[0].name == "x"
    assert p.space.variables[0].upper == 2.0
