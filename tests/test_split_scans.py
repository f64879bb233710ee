"""The shared CART split scan against loop references, compared for equality.

The grower's batched scan, ``trees._sorted_scan``, picks a split with
one arg-min over every (feature, position) pair, for the squared-error
and the Gini criterion alike; ``best_split`` below runs it on one node.  The loop versions below scan one feature (and, for the Gini
scan, one threshold) at a time with the same arithmetic, so the results
must agree exactly, including which of several equal splits wins.
"""

import numpy as np
import pytest

from sbobench.analysis import rules
from sbobench.core import make_rng
from sbobench.surrogates import trees


def best_split(X, stats, cost, min_leaf=1):
    """Lowest-cost axis split of the rows of X as (cost, feature, threshold), or None."""
    n = X.shape[0]
    if n < 2:
        return None
    XT = np.asarray(X, dtype=float).T
    found, score, f, threshold = trees._sorted_scan(
        XT, trees._ranks(XT), np.arange(n)[None], [np.asarray(s) for s in stats], np.array([n]),
        cost, min_leaf)
    return (float(score[0]), int(f[0]), float(threshold[0])) if found[0] else None


def _sse_split_loop(X, y, min_leaf):
    n, d = X.shape
    best = None
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        total, total2 = csum[-1], csum2[-1]
        counts = np.arange(1, n)
        left_sum = csum[:-1]
        left_sse = csum2[:-1] - left_sum**2 / counts
        right_sum = total - left_sum
        right_sse = (total2 - csum2[:-1]) - right_sum**2 / (n - counts)
        sse = left_sse + right_sse
        valid = (xs[:-1] != xs[1:]) & (counts >= min_leaf) & ((n - counts) >= min_leaf)
        if not valid.any():
            continue
        sse = np.where(valid, sse, np.inf)
        i = int(np.argmin(sse))
        cand = (float(sse[i]), f, float((xs[i] + xs[i + 1]) / 2.0))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.sum(p * p))


def _gini_split_loop(X, y_idx, indices, n_labels):
    n = indices.size
    parent_counts = np.bincount(y_idx[indices], minlength=n_labels)
    parent_term = n * _gini(parent_counts)
    best = None
    for j in range(X.shape[1]):
        values = X[indices, j]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_labels = y_idx[indices][order]
        left_counts = np.zeros(n_labels)
        for i in range(n - 1):
            left_counts[sorted_labels[i]] += 1
            if sorted_values[i] == sorted_values[i + 1]:
                continue
            right_counts = parent_counts - left_counts
            gain = (
                parent_term
                - (i + 1) * _gini(left_counts)
                - (n - i - 1) * _gini(right_counts)
            )
            threshold = 0.5 * (sorted_values[i] + sorted_values[i + 1])
            key = (-gain, j, threshold)
            if best is None or key < best[0]:
                best = (key, gain, j, threshold)
    return None if best is None else (best[1], best[2], best[3])


def _features(rng, n, d, kind):
    """Continuous, few-valued, or identical columns (the last forces ties)."""
    if kind == "continuous":
        return rng.uniform(-1.0, 1.0, size=(n, d))
    if kind == "discrete":
        return rng.integers(0, 3, size=(n, d)).astype(float)
    return np.repeat(rng.uniform(size=(n, 1)), d, axis=1)


KINDS = ("continuous", "discrete", "identical")


@pytest.mark.parametrize("kind", KINDS)
def test_sse_split_matches_loop(kind):
    rng = make_rng(31)
    for _ in range(150):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        X = _features(rng, n, d, kind)
        y = rng.integers(0, 3, size=n).astype(float) if rng.uniform() < 0.3 else rng.normal(size=n)
        for min_leaf in (1, 2, 3):
            split = best_split(X, (y, y * y), trees.sse_cost, min_leaf)
            assert split == _sse_split_loop(X, y, min_leaf)


@pytest.mark.parametrize("kind", KINDS)
def test_gini_split_matches_loop(kind):
    rng = make_rng(37)
    for _ in range(150):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        n_labels = int(rng.integers(1, 5))
        X = _features(rng, n, d, kind)
        y_idx = rng.integers(0, n_labels, size=n)
        indices = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        one_hot = [y_idx[indices] == label for label in range(n_labels)]
        split = best_split(X[indices], one_hot, rules.gini_cost)
        reference = _gini_split_loop(X, y_idx, indices, n_labels)
        if reference is None:
            assert split is None
        else:
            gain, feature, threshold = reference
            assert split == (-gain, feature, threshold)


def _walk(tree, x):
    node = 0
    while tree.feature[node] != trees.LEAF:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.labels[tree.label_index[node]]


def test_rules_predict_matches_per_row_walk():
    rng = make_rng(41)
    X = rng.uniform(-1.0, 1.0, size=(1200, 4))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, "gp-ucb", np.where(X[:, 2] > 0.3, "pwl-low", "rs"))
    tree = rules.grow_tree(X, y.astype(object))
    assert tree.n_leaves > 2
    predicted = tree.predict(X)
    assert predicted.dtype == object and predicted.shape == (1200,)
    assert predicted.tolist() == [_walk(tree, row) for row in X]
    assert tree.predict([X[7]])[0] == _walk(tree, X[7])
