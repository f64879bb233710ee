"""One CART core (Breiman et al., 1984): the squared-error trees of the
forest and boosting models and the Gini classifier of ``analysis.rules``.

Splits are axis-aligned at midpoints between consecutive distinct values;
ties go to the lowest feature, then the lowest threshold, so a tree is a
pure function of its inputs.  Flat node arrays keep serialisation trivial.
"""

import heapq
from dataclasses import dataclass

import numpy as np

LEAF = -1


@dataclass(frozen=True, eq=False)
class NodeArrays:
    """Flat binary tree.

    ``feature[k] == -1`` marks node k as a leaf; an internal node sends
    rows with ``x[feature] <= threshold`` to ``left``, the rest to ``right``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray

    _DTYPES = (("feature", int), ("threshold", float), ("left", int), ("right", int))

    def __post_init__(self):
        for name, dtype in self._DTYPES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == LEAF))

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (0 for a bare leaf)."""
        depth, level = 0, np.zeros(1, dtype=int)
        while (level := level[self.feature[level] != LEAF]).size:
            level = np.concatenate((self.left[level], self.right[level]))
            depth += 1
        return depth

    def apply(self, X) -> np.ndarray:
        """Index of the leaf each row of X reaches, all rows routed at once."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        idx = np.zeros(X.shape[0], dtype=int)
        while (rows := np.flatnonzero(self.feature[idx] != LEAF)).size:
            nodes = idx[rows]
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            idx[rows] = np.where(go_left, self.left[nodes], self.right[nodes])
        return idx


@dataclass(frozen=True, eq=False)
class RegressionTree(NodeArrays):
    """Regression tree whose nodes hold the mean target of their rows."""

    value: np.ndarray

    _DTYPES = NodeArrays._DTYPES + (("value", float),)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def to_jsonable(self) -> dict:
        return {name: getattr(self, name).tolist() for name, _ in self._DTYPES}

    @classmethod
    def from_jsonable(cls, payload: dict) -> "RegressionTree":
        return cls(*(payload[name] for name, _ in cls._DTYPES))


def sse_cost(sums, n_left, n):
    """Summed squared error of both children, from running sums of y and y**2."""
    csum, csum2 = sums
    left_sum = csum[:-1]
    left_sse = csum2[:-1] - left_sum**2 / n_left
    right_sum = csum[-1] - left_sum
    right_sse = (csum2[-1] - csum2[:-1]) - right_sum**2 / (n - n_left)
    return left_sse + right_sse


def _mean(y):
    return float(y.sum() / y.size)  # == y.mean(), without its wrapper cost


def best_split(X, stats, cost, min_leaf=1):
    """Lowest-cost axis split of the rows of X as (cost, feature, threshold), or None.

    Every column is sorted once and each per-row statistic in ``stats``
    is summed down every sorted column; ``cost(sums, n_left, n)`` turns
    those running sums into the cost of a split after each position.
    One arg-min over the (feature, position) grid picks the split, so
    ties go to the lowest feature, then the lowest threshold.  Both
    children must keep at least ``min_leaf`` rows.
    """
    n = X.shape[0]
    if n < 2:
        return None
    order = X.argsort(axis=0, kind="stable")
    xs = X[order, np.arange(X.shape[1])]
    sums = [s[order].cumsum(axis=0) for s in stats]
    # Split after sorted row i: n_left = i + 1 rows go left, one column per feature.
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


def grow(X, y, stats, cost, value, min_leaf=1, max_depth=None, max_leaves=None):
    """Grow best-first, lowest split cost first; return node arrays and values.

    ``cost`` scores splits from the per-row ``stats`` of targets ``y``;
    each node stores ``value(y[rows])``.  A node stays a leaf with fewer
    than ``2 * min_leaf`` rows, equal targets, at ``max_depth``, or with
    no valid split.  Growth stops at ``max_leaves`` leaves; without that
    cap the growth order does not change the partition.
    """
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
            split = best_split(node_X, [s[rows] for s in stats], cost, min_leaf)
            if split is not None:
                score, f, thr = split
                # Node ids grow with every push, so equal costs pop first-pushed first.
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


def build_regression_tree(X: np.ndarray, y: np.ndarray, min_leaf: int = 1,
                          max_depth: int | None = None) -> RegressionTree:
    """Grow a deterministic squared-error tree to purity or the caps."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] == 0:
        raise ValueError("X must be (n, d) with matching targets")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    return RegressionTree(*grow(X, y, (y, y * y), sse_cost, _mean, min_leaf, max_depth))
