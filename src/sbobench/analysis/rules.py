"""Decision rules extracted from replay grids via a small CART classifier.

The classifier is the CART core of ``surrogates.trees`` with a Gini
criterion.  ``grow`` builds its level-order table under the depth cap;
``_best_first`` then renumbers the nodes in the order a best-first
grower (largest weighted impurity decrease first) would create them and
stops at the leaf cap.  Zero-gain splits of impure nodes are allowed,
so XOR-style label patterns can still be separated.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from ..core import make_rng
from ..surrogates.trees import LEAF, NodeArrays, grow
from .replay import ReplayGrid

FEATURE_NAMES = (
    "log10_budget",
    "log10_eval_time",
    "is_10d_continuous",
    "uses_cfd",
)

MAX_LEAVES = 6
MAX_DEPTH = 5


@dataclass(frozen=True, eq=False)
class RulesTree(NodeArrays):
    """Decision tree over numeric features with string labels.

    ``label_index`` holds the majority label of every node, so each
    node can act as a leaf for rendering purposes.
    """

    label_index: np.ndarray
    labels: tuple
    feature_names: tuple = FEATURE_NAMES

    _DTYPES = NodeArrays._DTYPES + (("label_index", int),)

    def predict(self, X) -> np.ndarray:
        labels = np.array(self.labels, dtype=object)
        return labels[self.label_index[self.apply(X)]]

    def accuracy(self, X, y) -> float:
        y = np.asarray(y, dtype=object)
        return float(np.mean(self.predict(X) == y))

    def to_jsonable(self, node: int = 0) -> dict:
        if self.feature[node] == LEAF:
            return {"label": self.labels[self.label_index[node]]}
        return {
            "feature": self.feature_names[self.feature[node]],
            "threshold": float(self.threshold[node]),
            "left": self.to_jsonable(self.left[node]),
            "right": self.to_jsonable(self.right[node]),
        }

    def text_rules(self) -> tuple:
        """One human-readable rule per leaf, in left-to-right order."""

        def walk(node, conditions):
            if self.feature[node] == LEAF:
                when = f"if {' and '.join(conditions)} then" if conditions else "always"
                return [f"{when} use {self.labels[self.label_index[node]]}"]
            name, value = self.feature_names[self.feature[node]], self.threshold[node]
            left = walk(self.left[node], conditions + [f"{name} <= {value:g}"])
            return left + walk(self.right[node], conditions + [f"{name} > {value:g}"])

        return tuple(walk(0, []))


def _impurity(counts, totals):
    """Gini impurity of each class-count vector (last axis) with nonzero totals."""
    p = counts / totals
    return 1.0 - np.sum(p * p, axis=-1)


def gini_cost(left, total, n_left, n):
    """Negated decrease in row-weighted Gini impurity of each candidate split.

    ``left`` holds each label's count among the rows a split sends left,
    ``total`` the node's counts, and ``n_left`` and ``n`` the row counts.
    """
    left = np.stack(left, axis=-1).astype(float)  # (splits, labels)
    total = np.stack(total, axis=-1)
    right = total - left
    gain = (
        n * _impurity(total, n[:, None])
        - n_left * _impurity(left, n_left[:, None])
        - (n - n_left) * _impurity(right, (n - n_left)[:, None])
    )
    return -gain


def _majority(targets, sizes):
    """Most frequent label index of each node, node k owning the next ``sizes[k]`` targets.

    Ties go to the lowest label index.
    """
    n_labels = int(targets.max()) + 1
    node = np.repeat(np.arange(sizes.size), sizes)
    counts = np.bincount(node * n_labels + targets, minlength=sizes.size * n_labels)
    return counts.reshape(sizes.size, n_labels).argmax(axis=1)


def _labelled(features, labels):
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=object)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("features must be (n, f) with one label per row")
    if y.size == 0:
        raise ValueError("no labelled rows supplied")
    return X, y


def _best_first(feature, threshold, left, right, values, score, max_leaves):
    """One tree's level-order table renumbered best-first, cut at ``max_leaves`` leaves.

    Replays a one-node-at-a-time heap grower: it pops the split of lowest
    (cost, position), positions being given out as nodes are created, so
    equal costs pop first-created first, and creates the popped node's
    children right after.  The q-th split's children land at positions
    2q + 1 and 2q + 2; a node the cap leaves unsplit becomes a leaf.
    """
    found, cost, child = (feature != LEAF).tolist(), score.tolist(), left.tolist()
    order, splits = [0], []
    heap = [(cost[0], 0)] if found[0] else []
    while heap and len(splits) + 1 < max_leaves:
        at = heapq.heappop(heap)[1]
        splits.append(at)
        for kid in (child[order[at]], child[order[at]] + 1):
            if found[kid]:
                heapq.heappush(heap, (cost[kid], len(order)))
            order.append(kid)
    order, splits = np.array(order, dtype=int), np.array(splits, dtype=int)
    new_left = np.full(order.size, LEAF)
    new_left[splits] = 1 + 2 * np.arange(splits.size)
    new_feature = np.full(order.size, LEAF)
    new_feature[splits] = feature[order[splits]]
    new_threshold = np.zeros(order.size)
    new_threshold[splits] = threshold[order[splits]]
    return (new_feature, new_threshold, new_left,
            np.where(new_left == LEAF, LEAF, new_left + 1), values[order])


def grow_tree(X, y, max_leaves: int = MAX_LEAVES, max_depth: int = MAX_DEPTH) -> RulesTree:
    """Best-first CART classification tree with leaf and depth caps."""
    X, y = _labelled(X, y)
    labels, y_idx = np.unique(y, return_inverse=True)
    one_hot = [y_idx == i for i in range(labels.size)]
    # A node at depth max_leaves - 1 is created with max_leaves leaves already.
    depth = max_leaves - 1 if max_depth is None else min(max_depth, max_leaves - 1)
    table = grow(X, y_idx, one_hot, gini_cost, _majority, [np.arange(y_idx.size)],
                 max_depth=depth)
    return RulesTree(*_best_first(*table, max_leaves), labels=tuple(labels.tolist()))


def rule_dataset(grids: dict, traits: dict):
    """Feature matrix and winner labels from defined replay-grid cells.

    ``grids`` maps problem_id -> ReplayGrid and ``traits`` maps
    problem_id -> (is_10d_continuous, uses_cfd).  Features are
    log10(budget), log10(eval_time) and the two binary traits.
    """
    rows = []
    labels = []
    for problem_id, grid in grids.items():
        if not isinstance(grid, ReplayGrid):
            raise TypeError(f"expected ReplayGrid for {problem_id!r}")
        is_10d, uses_cfd = traits[problem_id]
        for cell in grid.cells:
            if not cell.defined:
                continue
            rows.append(
                [
                    np.log10(cell.budget),
                    np.log10(cell.eval_time),
                    float(bool(is_10d)),
                    float(bool(uses_cfd)),
                ]
            )
            labels.append(cell.winner)
    if not rows:
        raise ValueError("no defined cells to learn from")
    return np.array(rows, dtype=float), np.array(labels, dtype=object)


def fit_rules_tree(
    features,
    labels,
    split_seed: int = 0,
    n_splits: int = 10,
    max_leaves: int = MAX_LEAVES,
    max_depth: int = MAX_DEPTH,
):
    """Fit rule trees on repeated 80/20 splits and keep the best tester.

    Runs ``n_splits`` random splits seeded from ``split_seed``, fits a
    tree on each training part and keeps the one with the highest
    held-out accuracy (first such split on ties).  Returns
    (tree, train_accuracy, test_accuracy).  A single-label dataset
    short-circuits to a depth-0 tree with both accuracies 1.0.
    """
    X, y = _labelled(features, labels)
    if len(set(y.tolist())) == 1:
        return grow_tree(X[:1], y[:1], max_leaves=max_leaves, max_depth=max_depth), 1.0, 1.0

    rng = make_rng(split_seed)
    n = y.size
    n_train = min(max(int(round(0.8 * n)), 1), n - 1)
    best = None
    for _ in range(n_splits):
        perm = rng.permutation(n)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        tree = grow_tree(X[train_idx], y[train_idx], max_leaves=max_leaves, max_depth=max_depth)
        train_acc = tree.accuracy(X[train_idx], y[train_idx])
        test_acc = tree.accuracy(X[test_idx], y[test_idx])
        if best is None or test_acc > best[2]:
            best = (tree, train_acc, test_acc)
    return best
