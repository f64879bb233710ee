"""Spans and counts at the program's layer boundaries, recorded from outside.

A :class:`Tracer` swaps a function or method of the program for a wrapper
that records one span per call (layer, start, end, parent span) plus a
work count taken at the same boundary.  A function that a module imports
by name is wrapped at every place an ``sbobench`` module binds it, since
that is where callers look it up.  A call into a layer made from inside
the same layer (``encode`` inside ``encode_points``) is not a new span, so
a layer's busy time and count are not double-counted.  Spans are kept in
memory; :meth:`Tracer.take` hands over and clears those recorded so far.

:class:`IterationTimer` is the one wrapper that stays on in untraced runs:
it times ``Solver.suggest`` plus ``Solver.observe`` per model-guided
iteration, which the harness measures but does not keep in virtual time.
"""

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    layer: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    count: int = 0
    children_s: float = 0.0  # time covered by child spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sbobench" or name.startswith("sbobench."))]


class Tracer:
    def __init__(self):
        self._spans = []
        self._local = threading.local()
        self._patches = _Patches()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer, count=None):
        """``fn`` recording a ``layer`` span; ``count(args, kwargs, result)`` gives its work."""
        spans, stack_of = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if any(s.layer == layer for s in stack):
                return fn(*args, **kwargs)
            span = Span(layer, 0.0, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.children_s += span.duration
                spans.append(span)  # one list.append: atomic under the GIL
            span.count = 1 if count is None else int(count(args, kwargs, result))
            return result

        return traced

    def patch_function(self, fn, layer, count=None):
        """Wrap ``fn`` wherever a program module binds it by name."""
        wrapper = self.wrap(fn, layer, count)
        for module in _program_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patches.set(module, name, wrapper)

    def patch_method(self, cls, name, layer, count=None):
        self._patches.set(cls, name, self.wrap(cls.__dict__[name], layer, count))

    def restore(self):
        self._patches.restore()

    def take(self):
        """Spans recorded since the last call, in completion order."""
        spans = self._spans[:]
        del self._spans[:]
        return spans


def _rows(args, kwargs, result):
    """Rows of the array argument of a ``model.predict*(X)`` call."""
    X = args[1] if len(args) > 1 else kwargs["X"]
    return 1 if getattr(X, "ndim", 1) == 1 else len(X)


def _encoded_rows(args, kwargs, result):
    return len(result) if getattr(result, "ndim", 1) == 2 else 1


def _bytes_written(args, kwargs, result):
    from sbobench.core.runio import sidecar_path

    return os.path.getsize(result) + os.path.getsize(sidecar_path(result))


def _records_read(args, kwargs, result):
    return sum(len(log.records) for log, _ in result)


def _rules_rows(args, kwargs, result):
    return len(args[0] if args else kwargs["features"])


# (layer, busy-time metric, count metric): the per-layer metrics, in order.
LAYERS = (
    ("solvers.suggest", "solvers.suggest_s", None),
    ("solvers.observe", "solvers.observe_s", None),
    ("surrogates.gp.hyperopt", "surrogates.gp.hyperopt_s", "surrogates.gp.hyperopt_calls"),
    ("surrogates.gp.posterior_fit", "surrogates.gp.posterior_fit_s", "surrogates.gp.posterior_fits"),
    ("surrogates.gp.predict", "surrogates.gp.predict_s", "surrogates.gp.predict_rows"),
    ("surrogates.forest.fit", "surrogates.forest.fit_s", "surrogates.forest.fit_calls"),
    ("surrogates.trees.build", "surrogates.trees.build_s", "surrogates.trees.nodes_built"),
    ("surrogates.forest.predict", "surrogates.forest.predict_s", "surrogates.forest.predict_rows"),
    ("surrogates.least_squares.fit", "surrogates.least_squares.fit_s",
     "surrogates.least_squares.fit_calls"),
    ("surrogates.least_squares.predict", "surrogates.least_squares.predict_s",
     "surrogates.least_squares.predict_rows"),
    ("surrogates.least_squares.gradient", "surrogates.least_squares.gradient_s",
     "surrogates.least_squares.gradient_calls"),
    ("surrogates.encoding", "surrogates.encoding.encode_s", "surrogates.encoding.encoded_rows"),
    ("core.space.sample", "core.space.sample_s", "core.space.samples"),
    ("problems.evaluate", "problems.evaluate_s", "problems.evaluate_calls"),
    ("core.runio.write", "core.runio.write_s", "core.runio.bytes_written"),
    ("core.runio.read", "core.runio.read_s", "core.runio.records_read"),
    ("harness.run_single", "harness.run_single_s", None),
    ("analysis.replay", "analysis.replay_s", "analysis.replay_cells"),
    ("analysis.rules", "analysis.rules_s", "analysis.rules_rows"),
    ("analysis.offline", "analysis.offline_s", "analysis.offline_fits"),
    ("analysis.curves", "analysis.curves_s", None),
    ("analysis.reports", "analysis.reports_s", None),
)
SELF_TIME = {"harness.run_single": "harness.self_s"}
COUNT_METRICS = tuple(c for _, _, c in LAYERS if c)
TIME_METRICS = tuple(t for _, t, _ in LAYERS) + tuple(SELF_TIME.values())


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, time_metric, count_metric in LAYERS:
        units[time_metric] = "s"
        if layer in SELF_TIME:
            units[SELF_TIME[layer]] = "s"
        if count_metric:
            units[count_metric] = "bytes" if count_metric == "core.runio.bytes_written" else "count"
    return units


def instrument(tracer):
    """Wrap every layer boundary the per-layer metrics are taken at."""
    from sbobench.analysis import (auc, emit_report, fit_rules_tree, normalize_curves,
                                   offline_eval, pairwise_ttest, replay)
    from sbobench.core import load_run_logs, sample_uniform, write_run_log
    from sbobench.harness import run_single
    from sbobench.problems import Problem
    from sbobench.solvers import Solver
    from sbobench.surrogates import (GaussianProcessModel, LeastSquaresModel,
                                     RandomForestModel, encode, encode_points,
                                     fit_forest, fit_least_squares, nearest_point)
    from sbobench.surrogates.gp import optimise_hyperparameters
    from sbobench.surrogates.trees import build_regression_tree

    tracer.patch_method(Solver, "suggest", "solvers.suggest")
    tracer.patch_method(Solver, "observe", "solvers.observe")
    tracer.patch_function(optimise_hyperparameters, "surrogates.gp.hyperopt")
    tracer.patch_method(GaussianProcessModel, "__init__", "surrogates.gp.posterior_fit")
    for name in ("predict_encoded", "predict_variance_encoded"):
        tracer.patch_method(GaussianProcessModel, name, "surrogates.gp.predict", _rows)
        tracer.patch_method(RandomForestModel, name, "surrogates.forest.predict", _rows)
    tracer.patch_function(fit_forest, "surrogates.forest.fit")
    tracer.patch_function(build_regression_tree, "surrogates.trees.build",
                          lambda a, k, tree: tree.n_nodes)
    tracer.patch_function(fit_least_squares, "surrogates.least_squares.fit")
    tracer.patch_method(LeastSquaresModel, "predict_encoded", "surrogates.least_squares.predict",
                        _rows)
    tracer.patch_method(LeastSquaresModel, "gradient_encoded", "surrogates.least_squares.gradient")
    for fn in (encode, encode_points, nearest_point):
        tracer.patch_function(fn, "surrogates.encoding", _encoded_rows)
    tracer.patch_function(sample_uniform, "core.space.sample")
    tracer.patch_method(Problem, "evaluate", "problems.evaluate")
    tracer.patch_function(write_run_log, "core.runio.write", _bytes_written)
    tracer.patch_function(load_run_logs, "core.runio.read", _records_read)
    tracer.patch_function(run_single, "harness.run_single")
    tracer.patch_function(replay, "analysis.replay", lambda a, k, grid: len(grid.cells))
    tracer.patch_function(fit_rules_tree, "analysis.rules", _rules_rows)
    tracer.patch_function(offline_eval, "analysis.offline", lambda a, k, res: res.n_runs)
    for fn in (normalize_curves, auc, pairwise_ttest):
        tracer.patch_function(fn, "analysis.curves")
    tracer.patch_function(emit_report, "analysis.reports")


def layer_metrics(spans):
    """Busy time, self time and work count per per-layer metric."""
    metrics = {name: 0.0 for name in TIME_METRICS}
    metrics.update({name: 0 for name in COUNT_METRICS})
    by_layer = {layer: (t, c) for layer, t, c in LAYERS}
    for span in spans:
        time_metric, count_metric = by_layer[span.layer]
        metrics[time_metric] += span.duration
        if count_metric:
            metrics[count_metric] += span.count
        if span.layer in SELF_TIME:
            metrics[SELF_TIME[span.layer]] += span.duration - span.children_s
    return metrics


class IterationTimer:
    """Suggest + observe time of each model-guided iteration of a model-based solver."""

    def __init__(self):
        self.samples_s = []
        self._open = {}
        self._patches = _Patches()

    def install(self):
        from sbobench.solvers import Solver

        suggest, observe = Solver.suggest, Solver.observe
        samples, open_iterations = self.samples_s, self._open

        def timed_suggest(solver):
            guided = solver.kind != "randomsearch" and len(solver.history) >= solver.R
            tick = time.perf_counter()
            point = suggest(solver)
            open_iterations[id(solver)] = (guided, time.perf_counter() - tick)
            return point

        def timed_observe(solver, point, y):
            tick = time.perf_counter()
            observe(solver, point, y)
            elapsed = time.perf_counter() - tick
            guided, suggest_s = open_iterations.pop(id(solver), (False, 0.0))
            if guided:
                samples.append(suggest_s + elapsed)

        self._patches.set(Solver, "suggest", functools.wraps(suggest)(timed_suggest))
        self._patches.set(Solver, "observe", functools.wraps(observe)(timed_observe))

    def restore(self):
        self._patches.restore()
