"""Records, best-so-far, and CSV + sidecar round trips."""

import json
import os

import numpy as np
import pytest

from sbobench.core import (
    PHASE_MODEL,
    PHASE_RANDOM,
    RNG_ALGORITHM,
    EvaluationRecord,
    RunLog,
    SearchSpace,
    VariableSpec,
    best_so_far,
    make_rng,
    read_run_log,
    sample_uniform,
    sidecar_path,
    write_run_log,
)

from run_log_helpers import make_log


class TestRecords:
    def test_objective_must_be_finite(self, box_space):
        pt = box_space.make_point({"x": 0.5, "y": 0.0})
        record = EvaluationRecord(1, pt, float("nan"), 0.0, 0.0, PHASE_MODEL)
        with pytest.raises(ValueError):
            RunLog("p", "s", seed=0, rand_init=0, records=(record,))

    def test_negative_times_rejected(self, box_space):
        pt = box_space.make_point({"x": 0.5, "y": 0.0})
        record = EvaluationRecord(1, pt, 1.0, -0.1, 0.0, PHASE_MODEL)
        with pytest.raises(ValueError):
            RunLog("p", "s", seed=0, rand_init=0, records=(record,))

    def test_phase_must_match_rand_init(self, box_space):
        pt = box_space.make_point({"x": 0.5, "y": 0.0})
        records = (
            EvaluationRecord(1, pt, 1.0, 0.0, 0.0, PHASE_MODEL),  # should be random_init
            EvaluationRecord(2, pt, 2.0, 0.0, 0.0, PHASE_MODEL),
        )
        with pytest.raises(ValueError, match="phase"):
            RunLog("p", "s", seed=0, rand_init=1, records=records)

    def test_iterations_must_be_consecutive(self, box_space):
        pt = box_space.make_point({"x": 0.5, "y": 0.0})
        records = (
            EvaluationRecord(1, pt, 1.0, 0.0, 0.0, PHASE_MODEL),
            EvaluationRecord(3, pt, 2.0, 0.0, 0.0, PHASE_MODEL),
        )
        with pytest.raises(ValueError, match="consecutive"):
            RunLog("p", "s", seed=0, rand_init=0, records=records)

    def test_empty_log_is_allowed_and_flagged(self):
        log = RunLog("p", "s", seed=1, rand_init=0, records=())
        assert log.empty


class TestBestSoFar:
    def test_running_minimum(self):
        log = make_log([3.0, 1.0, 2.0])
        assert best_so_far(log).tolist() == [3.0, 1.0, 1.0]

    def test_single_record(self):
        assert best_so_far(make_log([5.0])).tolist() == [5.0]

    def test_empty_log_raises(self):
        with pytest.raises(ValueError):
            best_so_far(RunLog("p", "s", seed=0, rand_init=0, records=()))

    def test_matches_scan_oracle_and_is_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            objs = rng.normal(size=rng.integers(1, 40)).tolist()
            got = best_so_far(make_log(objs))
            # Oracle: an explicit left-to-right scan.
            expected, cur = [], float("inf")
            for o in objs:
                cur = min(cur, o)
                expected.append(cur)
            assert got.tolist() == expected
            assert all(a >= b for a, b in zip(got[:-1], got[1:]))
            assert all(g <= o for g, o in zip(got, objs))

    def test_objectives_read_once_and_read_only(self):
        log = make_log([3.0, 1.0, 2.0])
        assert log.objectives.tolist() == [r.objective for r in log.records]
        assert log.objectives is log.objectives
        with pytest.raises(ValueError):
            log.objectives[0] = 0.0
        curve = best_so_far(log)
        curve[0] = -1.0  # the curve is the caller's own copy
        assert log.objectives.tolist() == [3.0, 1.0, 2.0]


class TestRoundTrip:
    def _sample_log(self, space, n=12, rand_init=4, seed=77):
        rng = make_rng(seed)
        records = []
        for i in range(1, n + 1):
            pt = sample_uniform(space, rng)
            records.append(
                EvaluationRecord(
                    iteration=i,
                    point=pt,
                    objective=float(rng.normal()),
                    eval_time=float(rng.uniform(0, 2)),
                    solver_time=float(rng.uniform(0, 0.5)),
                    phase=PHASE_RANDOM if i <= rand_init else PHASE_MODEL,
                )
            )
        return RunLog(
            problem_id="demo",
            solver_id="randomsearch",
            seed=seed,
            rand_init=rand_init,
            records=tuple(records),
            overrides={"beta": "1.5"},
        )

    def test_round_trip_is_field_for_field(self, mixed_space, tmp_path):
        log = self._sample_log(mixed_space)
        path = write_run_log(log, mixed_space, tmp_path / "run.csv")
        back, space_back = read_run_log(path)
        assert back == log
        assert space_back == mixed_space

    def test_sidecar_carries_header_fields(self, mixed_space, tmp_path):
        log = self._sample_log(mixed_space)
        write_run_log(log, mixed_space, tmp_path / "run.csv", extra={"virtual_time": True})
        header = json.loads(sidecar_path(tmp_path / "run.csv").read_text())
        assert header["problem_id"] == "demo"
        assert header["solver_id"] == "randomsearch"
        assert header["seed"] == 77
        assert header["rand_init"] == 4
        assert header["rng_algorithm"] == RNG_ALGORITHM
        assert [v["name"] for v in header["variables"]] == ["alg", "x", "k", "gamma"]
        assert header["harness"] == {"virtual_time": True}

    def test_csv_columns_are_one_per_variable(self, mixed_space, tmp_path):
        log = self._sample_log(mixed_space, n=3)
        path = write_run_log(log, mixed_space, tmp_path / "run.csv")
        head = path.read_text().splitlines()[0]
        assert head == "iteration,phase,alg,x,k,gamma,objective,eval_time_s,solver_time_s"

    def test_rewrite_is_byte_identical(self, mixed_space, tmp_path):
        log = self._sample_log(mixed_space)
        p1 = write_run_log(log, mixed_space, tmp_path / "a.csv")
        p2 = write_run_log(log, mixed_space, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_log_round_trips(self, box_space, tmp_path):
        log = RunLog("p", "randomsearch", seed=3, rand_init=0, records=())
        path = write_run_log(log, box_space, tmp_path / "empty.csv")
        back, _ = read_run_log(path)
        assert back == log
        assert json.loads(sidecar_path(path).read_text())["empty"] is True

    def test_aborted_flag_and_note_round_trip(self, tmp_path):
        space = SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),))
        log = RunLog(
            "p", "randomsearch", seed=3, rand_init=1,
            records=make_log([1.0], rand_init=1).records,
            aborted=True, note="simulator exited with status 3",
        )
        back, _ = read_run_log(write_run_log(log, space, tmp_path / "ab.csv"))
        assert back.aborted and back.note == "simulator exited with status 3"

    def test_numpy_scalar_results_are_written_as_floats(self, box_space, tmp_path):
        pt = box_space.make_point({"x": 0.25, "y": 1.0})
        log = RunLog("p", "randomsearch", seed=0, rand_init=0, records=(
            EvaluationRecord(1, pt, np.float64(0.5), np.float64(1.25), np.float32(0.5),
                             PHASE_MODEL),
        ))
        path = write_run_log(log, box_space, tmp_path / "np.csv")
        assert path.read_text().splitlines()[1] == "1,model_guided,0.25,1.0,0.5,1.25,0.5"
        back, _ = read_run_log(path)
        rec = back.records[0]
        assert (rec.objective, rec.eval_time, rec.solver_time) == (0.5, 1.25, 0.5)
        assert all(type(v) is float for v in (rec.objective, rec.eval_time, rec.solver_time))


class TestMalformedRows:
    def _written(self, box_space, tmp_path):
        log = make_log([3.0, 1.0, 2.0], space=box_space,
                       points=[box_space.make_point({"x": 0.5, "y": 0.0})] * 3)
        path = write_run_log(log, box_space, tmp_path / "run.csv")
        return path, path.read_text().splitlines(keepends=True)

    def test_short_row_names_file_line_and_counts(self, box_space, tmp_path):
        path, lines = self._written(box_space, tmp_path)
        lines[2] = "2,model_guided,0.5\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value) == f"{path}, line 3: 3 cells, but the header has 7"

    def test_long_row_names_file_line_and_counts(self, box_space, tmp_path):
        path, lines = self._written(box_space, tmp_path)
        lines[1] = lines[1].rstrip("\n") + ",9.0\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value) == f"{path}, line 2: 8 cells, but the header has 7"

    def test_truncated_last_line_is_named(self, box_space, tmp_path):
        path, lines = self._written(box_space, tmp_path)
        path.write_text("".join(lines)[:-12])
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value).startswith(f"{path}, line 4: ")
        assert str(err.value).endswith(" cells, but the header has 7")

    def _damaged(self, box_space, tmp_path, line, cells, rand_init=0):
        """The log of ``_written`` with ``line``'s cells replaced by ``cells``."""
        log = make_log([3.0, 1.0, 2.0], space=box_space, rand_init=rand_init,
                       points=[box_space.make_point({"x": 0.5, "y": 0.0})] * 3)
        path = write_run_log(log, box_space, tmp_path / "run.csv")
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("cell, message", [("abc", "objective: could not convert"),
                                               ("", "objective: could not convert")])
    def test_unparseable_cell_names_file_and_line(self, box_space, tmp_path, cell, message):
        path = self._damaged(box_space, tmp_path, 3,
                             ["2", "model_guided", "0.5", "0.0", cell, "0.0", "0.0"])
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value).startswith(f"{path}, line 3: {message}")

    def test_non_finite_objective_names_file_and_line(self, box_space, tmp_path):
        path = self._damaged(box_space, tmp_path, 4,
                             ["3", "model_guided", "0.5", "0.0", "nan", "0.0", "0.0"])
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value).startswith(f"{path}, line 4: ")
        assert "objective must be finite" in str(err.value)

    def test_negative_time_names_file_and_line(self, box_space, tmp_path):
        path = self._damaged(box_space, tmp_path, 2,
                             ["1", "model_guided", "0.5", "0.0", "3.0", "0.0", "-0.5"])
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value).startswith(f"{path}, line 2: ")
        assert "solver_time must be non-negative, not -0.5" in str(err.value)

    def test_iteration_out_of_sequence_names_file_and_line(self, box_space, tmp_path):
        path = self._damaged(box_space, tmp_path, 3,
                             ["4", "model_guided", "0.5", "0.0", "1.0", "0.0", "0.0"])
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value).startswith(f"{path}, line 3: ")
        assert "consecutive" in str(err.value)

    def test_phase_disagreeing_with_rand_init_names_file_and_line(self, box_space, tmp_path):
        path = self._damaged(box_space, tmp_path, 3,
                             ["2", "random_init", "0.5", "0.0", "1.0", "0.0", "0.0"],
                             rand_init=1)
        with pytest.raises(ValueError) as err:
            read_run_log(path)
        assert str(err.value) == (f"{path}, line 3: iteration 2: phase 'random_init', "
                                  "expected 'model_guided'")


def test_written_files_get_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w"):
        pass
    path = write_run_log(make_log([1.0]), SearchSpace(
        (VariableSpec("x", "continuous", lower=0.0, upper=1.0),)), tmp_path / "run.csv")
    want = os.stat(plain).st_mode & 0o777
    assert os.stat(path).st_mode & 0o777 == want
    assert os.stat(sidecar_path(path)).st_mode & 0o777 == want
