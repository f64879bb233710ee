"""Batched level-wise tree growth against a one-node-at-a-time heap grower.

``trees.grow`` scans every pending node of a level (and, for a forest,
of every tree) in padded batches, then numbers the nodes best-first.
The reference below grows one node at a time from a heap, scanning each
node on its own rows with the two-dimensional split scan.  Both must give
the same node arrays, byte for byte and dtype for dtype, for the forest,
boosting and rules trees; and routing all of a forest's trees in one pass
must give exactly the per-tree predictions.  Every comparison runs twice,
once with every scan batch sorting the features' integer ranks and once
with every batch sorting their float values.
"""

import functools
import heapq
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sbobench.analysis import rules
from sbobench.core import SearchSpace, VariableSpec, make_rng, sample_uniform
from sbobench.problems import EspProblem
from sbobench.surrogates import BoostedTreesModel, fit_boosted, fit_forest
from sbobench.surrogates import trees
from sbobench.surrogates.encoding import encode_points
from sbobench.surrogates.trees import (LEAF, RegressionTree, TreeStack, build_regression_tree,
                                       build_regression_trees)


def _ref_sse_cost(sums, n_left, n):
    csum, csum2 = sums
    left_sum = csum[:-1]
    left_sse = csum2[:-1] - left_sum**2 / n_left
    right_sum = csum[-1] - left_sum
    right_sse = (csum2[-1] - csum2[:-1]) - right_sum**2 / (n - n_left)
    return left_sse + right_sse


def _ref_impurity(counts, totals):
    p = counts / totals
    return 1.0 - np.sum(p * p, axis=-1)


def _ref_gini_cost(sums, n_left, n):
    counts = np.stack(sums, axis=-1)
    left = counts[:-1].astype(float)
    right = counts[-1] - left
    gain = (
        n * _ref_impurity(counts[-1, 0], n)
        - n_left * _ref_impurity(left, n_left[..., None])
        - (n - n_left) * _ref_impurity(right, (n - n_left)[..., None])
    )
    return -gain


def _ref_best_split(X, stats, cost, min_leaf=1):
    n = X.shape[0]
    if n < 2:
        return None
    order = X.argsort(axis=0, kind="stable")
    xs = X[order, np.arange(X.shape[1])]
    sums = [s[order].cumsum(axis=0) for s in stats]
    n_left = np.arange(1, n)[:, None]
    valid = xs[:-1] != xs[1:]
    if min_leaf > 1:
        valid[: min_leaf - 1] = False
        valid[n - min_leaf :] = False
    scores = np.where(valid, cost(sums, n_left, n), np.inf)
    f, i = divmod(int(scores.T.argmin()), n - 1)
    if not valid[i, f]:
        return None
    return float(scores[i, f]), f, float((xs[i, f] + xs[i + 1, f]) / 2.0)


def _ref_grow(X, y, stats, cost, value, min_leaf=1, max_depth=None, max_leaves=None):
    nodes, values, heap = [], [], []

    def add(rows, depth):
        node = len(nodes)
        nodes.append([LEAF, 0.0, LEAF, LEAF])
        ys = y[rows]
        values.append(value(ys))
        if (
            rows.size >= 2 * min_leaf
            and (ys != ys[0]).any()
            and (max_depth is None or depth < max_depth)
        ):
            node_X = X[rows]
            split = _ref_best_split(node_X, [s[rows] for s in stats], cost, min_leaf)
            if split is not None:
                score, f, thr = split
                heapq.heappush(heap, (score, node, f, thr, rows, node_X[:, f] <= thr, depth))
        return node

    add(np.arange(X.shape[0]), 0)
    n_leaves = 1
    while heap and (max_leaves is None or n_leaves < max_leaves):
        _, node, f, thr, rows, mask, depth = heapq.heappop(heap)
        nodes[node][:2] = f, thr
        nodes[node][2] = add(rows[mask], depth + 1)
        nodes[node][3] = add(rows[~mask], depth + 1)
        n_leaves += 1
    return (*zip(*nodes), values)


def _ref_tree(X, y, min_leaf=1, max_depth=None):
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    mean = lambda ys: float(ys.sum() / ys.size)  # noqa: E731
    return RegressionTree(*_ref_grow(X, y, (y, y * y), _ref_sse_cost, mean, min_leaf, max_depth))


def _ref_forest(X, y, n_trees, min_leaf, seed):
    rng = make_rng(seed)
    trees = [_ref_tree(X, y, min_leaf)]
    for _ in range(n_trees - 1):
        rows = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(_ref_tree(X[rows], y[rows], min_leaf))
    return trees


def _ref_boosted(X, y, n_rounds, learning_rate, max_depth):
    residual = y - float(y.mean())
    trees, losses = [], [float(np.mean(residual**2))]
    for _ in range(n_rounds):
        tree = _ref_tree(X, residual, 1, max_depth)
        residual = residual - learning_rate * tree.predict(X)
        trees.append(tree)
        losses.append(float(np.mean(residual**2)))
    return trees, losses


def _ref_rules_tree(X, y, max_leaves, max_depth):
    labels, y_idx = np.unique(y, return_inverse=True)
    one_hot = [y_idx == i for i in range(labels.size)]
    majority = lambda ys: int(np.bincount(ys).argmax())  # noqa: E731
    nodes = _ref_grow(X, y_idx, one_hot, _ref_gini_cost, majority, max_depth=max_depth,
                      max_leaves=max_leaves)
    return rules.RulesTree(*nodes, labels=tuple(labels.tolist()))


def assert_same_nodes(tree, reference):
    for name, _ in type(reference)._DTYPES:
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


KINDS = ("continuous", "discrete", "identical")


def on_both_sort_paths(test):
    """Run ``test`` with every scan batch sorting ranks, then with every batch sorting floats."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for radix_width in (0, np.iinfo(np.intp).max):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(trees, "_RADIX_WIDTH", radix_width)
                test(*args, **kwargs)
    return run


def _features(rng, n, d, kind):
    """Continuous, few-valued, or identical columns (the last forces ties)."""
    if kind == "continuous":
        return rng.uniform(-1.0, 1.0, size=(n, d))
    if kind == "discrete":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    return np.repeat(rng.uniform(size=(n, 1)), d, axis=1)


def _targets(rng, n):
    draw = rng.uniform()
    if draw < 0.15:
        return np.full(n, 1.5)
    if draw < 0.4:
        return rng.integers(0, 3, size=n).astype(float)
    return rng.normal(size=n)


def _space(d):
    return SearchSpace(tuple(VariableSpec(f"x{j}", "continuous", lower=-1.0, upper=1.0)
                             for j in range(d)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", (1, 7, 10, 49))
@on_both_sort_paths
def test_regression_tree_matches_heap_grower(kind, d):
    rng = make_rng(100 + d)
    for _ in range(12):
        n = int(rng.integers(1, 161))
        X, y = _features(rng, n, d, kind), _targets(rng, n)
        min_leaf = int(rng.integers(1, 4))
        max_depth = None if rng.uniform() < 0.6 else int(rng.integers(0, 6))
        assert_same_nodes(build_regression_tree(X, y, min_leaf, max_depth),
                          _ref_tree(X, y, min_leaf, max_depth))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", (1, 7, 10, 49))
@on_both_sort_paths
def test_forest_matches_tree_by_tree_growth(kind, d):
    rng = make_rng(200 + d)
    for case in range(4):
        n = int(rng.integers(1, 161 if d < 49 else 60))
        X, y = _features(rng, n, d, kind), _targets(rng, n)
        min_leaf = int(rng.integers(1, 4))
        if n < min_leaf:
            continue
        n_trees = int(rng.integers(1, 25))
        model = fit_forest(_space(d), X, y, n_trees=n_trees, min_leaf=min_leaf, seed=case)
        reference = _ref_forest(X, y, n_trees, min_leaf, case)
        assert len(model.trees) == n_trees
        for tree, ref in zip(model.trees, reference):
            assert_same_nodes(tree, ref)


@on_both_sort_paths
def test_forest_bootstrap_duplicates_and_constant_targets():
    rng = make_rng(7)
    X = np.repeat(rng.uniform(size=(6, 3)), 4, axis=0)  # every row four times
    for y in (np.repeat(rng.normal(size=6), 4), np.full(24, -0.25)):
        model = fit_forest(_space(3), X, y, n_trees=24, min_leaf=1, seed=3)
        for tree, ref in zip(model.trees, _ref_forest(X, y, 24, 1, 3)):
            assert_same_nodes(tree, ref)


@on_both_sort_paths
def test_trees_grown_together_match_trees_grown_apart():
    rng = make_rng(8)
    X, y = rng.uniform(size=(40, 5)), rng.normal(size=40)
    roots = [np.arange(40), rng.integers(0, 40, size=40), np.arange(39, -1, -1),
             rng.integers(0, 40, size=7)]
    for min_leaf in (1, 2):
        together = build_regression_trees(X, y, roots, min_leaf=min_leaf)
        for tree, rows in zip(together, roots):
            assert_same_nodes(tree, _ref_tree(X[rows], y[rows], min_leaf))


@pytest.mark.parametrize("d", (1, 7, 10))
@on_both_sort_paths
def test_boosted_matches_heap_grower(d):
    rng = make_rng(300 + d)
    for _ in range(3):
        n = int(rng.integers(2, 161))
        X, y = _features(rng, n, d, "continuous"), rng.normal(size=n)
        max_depth = int(rng.integers(1, 7))
        model = fit_boosted(_space(d), X, y, n_rounds=8, learning_rate=0.3, max_depth=max_depth)
        trees, losses = _ref_boosted(X, y, 8, 0.3, max_depth)
        assert len(model.trees) == len(trees)
        for tree, ref in zip(model.trees, trees):
            assert_same_nodes(tree, ref)
        assert model.train_losses == losses
        assert (model.base_value, model.learning_rate) == (float(y.mean()), 0.3)
        want = BoostedTreesModel(float(y.mean()), trees, 0.3, losses)
        Q = rng.uniform(-1.5, 1.5, size=(50, d))
        assert model.predict_encoded(Q).tobytes() == want.predict_encoded(Q).tobytes()


@pytest.mark.parametrize("kind", KINDS)
@on_both_sort_paths
def test_rules_tree_matches_heap_grower(kind):
    rng = make_rng(400)
    for case in range(25):
        # The first case is large enough to scan its root alone.
        n, d = (int(rng.integers(1, 161)) if case else 4096), int(rng.integers(1, 5))
        X = _features(rng, n, d, kind)
        y = rng.choice(np.array(["a", "b", "c", "d"], dtype=object)[: int(rng.integers(1, 5))],
                       size=n)
        max_leaves = int(rng.integers(1, 9))
        max_depth = None if rng.uniform() < 0.3 else int(rng.integers(0, 6))
        tree = rules.grow_tree(X, y, max_leaves=max_leaves, max_depth=max_depth)
        reference = _ref_rules_tree(X, y, max_leaves, max_depth)
        assert_same_nodes(tree, reference)
        assert tree.labels == reference.labels
        assert tree.to_jsonable() == reference.to_jsonable()


@pytest.mark.parametrize("kind", KINDS)
def test_small_batches_match_heap_grower(monkeypatch, kind):
    """Levels split over many batches, and padding run at small n."""
    monkeypatch.setattr(trees, "_BATCH_ELEMENTS", 2**6)
    for d in (1, 7, 10, 49):
        test_forest_matches_tree_by_tree_growth(kind, d)
    test_rules_tree_matches_heap_grower(kind)


def test_forest_fit_memory_stays_capped():
    """The scan batches bound the grower's memory, not the forest's size."""
    problem = EspProblem(seed=0)
    rng = make_rng(5)
    points = [sample_uniform(problem.space, rng) for _ in range(150)]
    X = encode_points(problem.space, points)
    y = np.array([problem.evaluate(p, virtual=True)[0] for p in points])
    assert X.shape == (150, 49)
    tracemalloc.start()
    try:
        fit_forest(problem.space, X, y, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("lower, upper", [
    (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),  # midpoint rounds up
    (1.0, np.nan),
    (-np.inf, np.inf),  # the midpoint is NaN
    (1e308, 1.7e308),  # the sum overflows
])
def test_threshold_stays_below_the_upper_value(lower, upper):
    X, y = np.array([[lower], [upper]]), np.array([0.0, 1.0])
    _, _, threshold = trees.best_split(X, (y, y * y), trees.sse_cost)
    assert threshold == lower
    if np.isnan(upper):  # the grower refuses a NaN feature
        with pytest.raises(ValueError, match="NaN"):
            build_regression_tree(X, y)
        return
    tree = build_regression_tree(X, y)
    assert tree.n_leaves == 2
    assert tree.predict(X).tolist() == [0.0, 1.0]


def test_rank_order_is_the_stable_value_order():
    """Ties, signed zeros, infinities and repeated rows, a NaN pad last."""
    rng = make_rng(11)
    values = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, np.nextafter(1.0, 2.0), -1.5, 5e-324])
    XT = rng.choice(values, size=(6, 300))
    XT[:, 200:] = XT[:, :100]  # repeated rows
    XT = np.hstack((XT, np.full((6, 1), np.nan)))
    keys = trees._ranks(XT)
    assert keys.dtype == np.uint16
    assert (keys.argsort(axis=-1, kind="stable")
            == XT.argsort(axis=-1, kind="stable")).all()
    for _ in range(20):  # any node's samples, in any order, with repeats
        samples = rng.integers(0, XT.shape[1], size=int(rng.integers(1, 60)))
        assert (keys[:, samples].argsort(axis=-1, kind="stable")
                == XT[:, samples].argsort(axis=-1, kind="stable")).all()
    assert trees._ranks(np.array([[0.0, -0.0, np.inf, -np.inf, np.nan]])).tolist() == [
        [1, 1, 2, 0, 3]]


@pytest.mark.parametrize("rows, dtype", [(255, np.uint8), (256, np.uint16),
                                         (65_535, np.uint16), (65_536, np.uint32)])
def test_rank_keys_take_the_smallest_unsigned_type(rows, dtype):
    XT = np.append(np.arange(rows, 0, -1) / 7.0, np.nan)[None]  # grow's layout: rows, then the pad
    keys = trees._ranks(XT)
    assert keys.dtype == dtype
    assert keys[0, -1] == rows  # the pad ranks above every row
    assert (keys[0, :-1] == np.arange(rows - 1, -1, -1)).all()


def test_nan_features_raise_instead_of_hanging():
    """A split between two NaN rows once sent every row right, forever."""
    code = """
import numpy as np
from sbobench.analysis import rules
from sbobench.surrogates import fit_boosted, fit_forest
from sbobench.surrogates.trees import build_regression_tree
X, y = np.array([[np.nan], [np.nan], [0.3], [0.1]]), np.array([1.0, 5.0, 2.0, 3.0])
for grow in (lambda: build_regression_tree(X, y), lambda: fit_forest(None, X, y),
             lambda: fit_boosted(None, X, y), lambda: rules.grow_tree(X, y)):
    try:
        grow()
    except ValueError as error:
        print(error)
"""
    source = str(Path(trees.__file__).parents[2])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (source, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=env, check=True)
    assert done.stdout.splitlines() == ["X holds a NaN"] * 4


def test_empty_root_is_refused():
    X, y = np.zeros((5, 2)), np.arange(5.0)
    with pytest.raises(ValueError, match="root 1 is empty"):
        build_regression_trees(X, y, [np.arange(5), []])


def test_root_past_the_last_row_is_refused():
    X, y = np.zeros((5, 2)), np.arange(5.0)
    with pytest.raises(ValueError, match="root 1 lists row 5"):
        build_regression_trees(X, y, [[0, 1], [2, 5, 3]])


def test_negative_root_index_is_refused():
    X, y = np.arange(10.0).reshape(5, 2), np.arange(5.0)
    with pytest.raises(ValueError, match="root 0 lists row -1"):
        build_regression_trees(X, y, [[-1, 2]])


def test_no_roots_is_refused():
    with pytest.raises(ValueError, match="need at least one root"):
        build_regression_trees(np.zeros((5, 2)), np.arange(5.0), [])


def test_bad_inputs_raise_value_errors():
    X, y = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(ValueError, match="X must be"):
        build_regression_tree(np.zeros(4), y)
    with pytest.raises(ValueError, match="X must be"):
        build_regression_tree(X, np.zeros(3))
    with pytest.raises(ValueError, match="X must be"):
        build_regression_tree(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="min_leaf"):
        build_regression_tree(X, y, min_leaf=0)
    space = _space(2)
    with pytest.raises(ValueError, match="n_trees"):
        fit_forest(space, X, y, n_trees=0)
    with pytest.raises(ValueError, match="not enough data"):
        fit_forest(space, X, y, min_leaf=5)
    with pytest.raises(ValueError, match="min_leaf must be at least 1"):
        fit_forest(space, X, y, min_leaf=0)
    with pytest.raises(ValueError, match="X must be"):
        fit_forest(space, X, np.zeros(3))


def test_stacked_routing_equals_per_tree_prediction():
    rng = make_rng(9)
    X, y = rng.uniform(size=(60, 4)), rng.normal(size=60)
    model = fit_forest(_space(4), X, y, n_trees=24, seed=2)
    Q = rng.uniform(-0.2, 1.2, size=(512, 4))
    per_tree = np.stack([t.predict(Q) for t in model.trees], axis=0)
    stacked = TreeStack(model.trees).predict(Q)
    assert stacked.dtype == per_tree.dtype and stacked.tobytes() == per_tree.tobytes()
    mean, var = model.predict_variance_encoded(Q)
    assert mean.tobytes() == per_tree.mean(axis=0).tobytes()
    assert var.tobytes() == per_tree.var(axis=0).tobytes()
    assert model.predict_encoded(Q).tobytes() == mean.tobytes()
    assert TreeStack([]).predict(Q).shape == (0, 512)


def test_stacked_routing_keeps_bare_leaf_trees():
    rng = make_rng(10)
    X, y = rng.uniform(size=(40, 3)), rng.normal(size=40)
    forest = fit_forest(_space(3), X, y, n_trees=6, seed=4).trees
    bare = [RegressionTree([LEAF], [0.0], [LEAF], [LEAF], [v]) for v in (1.5, -2.0, 0.25)]
    stack_trees = [bare[0], *forest[:3], bare[1], *forest[3:], bare[2]]
    stack = TreeStack(stack_trees)
    for k in (0, 4, len(stack_trees) - 1):
        root = stack.roots[k]
        assert stack.nodes.left[root] == LEAF and stack.nodes.right[root] == LEAF
    Q = rng.uniform(-0.2, 1.2, size=(64, 3))
    per_tree = np.stack([t.predict(Q) for t in stack_trees], axis=0)
    stacked = stack.predict(Q)
    assert stacked.dtype == per_tree.dtype and stacked.tobytes() == per_tree.tobytes()
