"""One CART core (Breiman et al., 1984): the squared-error trees of the
forest and boosting models and the Gini classifier of ``analysis.rules``.

Splits are axis-aligned at midpoints between consecutive distinct values;
ties go to the lowest feature, then the lowest threshold, so a tree is a
pure function of its inputs.

Trees grow one level at a time: every pending node of every tree being
grown is scanned in a few batched passes.  ``grow`` returns one
level-order node table over all the trees, and every regression tree,
single, boosted or in a forest, keeps that table as it is; only the
rules tree renumbers its nodes best-first, to apply its leaf cap.  Each
node keeps its rows in row order, and each scan batch sorts its nodes'
values of every feature stably.  A grow call ranks each feature once;
batches at least ``_RADIX_WIDTH`` rows wide sort those small integer
ranks, which numpy radix-sorts, in the order the values would sort.
"""

from dataclasses import dataclass

import numpy as np

LEAF = -1

# A scan batch pads each node's rows to the batch's width; the padded
# (nodes x features x width) block is kept to about this many elements.
_BATCH_ELEMENTS = 2**14
# Batches at least this many rows wide sort integer ranks, narrower ones
# the float values.  A stable argsort of 15k elements along rows of this
# width (numpy 2.4, one core of a Xeon VM) took, on uint8 keys against
# floats: 88 against 675 us at width 150, 180 against 279 us at 16,
# 237 against 248 us at 12, but 1,132 against 213 us at 4.
_RADIX_WIDTH = 16


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

    def route(self, X, roots) -> np.ndarray:
        """Leaf index each row of X reaches from each root, as a (roots, rows) array.

        Every (root, row) pair steps down at once; a leaf steps to itself,
        so the pairs keep in step until all have reached their leaves.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        roots = np.asarray(roots, dtype=int)
        n, d = X.shape
        leaf = self.feature == LEAF
        node = np.arange(self.n_nodes)
        feature = np.where(leaf, 0, self.feature)
        threshold = np.where(leaf, np.inf, self.threshold)
        left, right = np.where(leaf, node, self.left), np.where(leaf, node, self.right)
        values = X.ravel()
        row_start = np.tile(d * np.arange(n), roots.size)
        idx = np.repeat(roots, n)
        while not leaf[idx].all():
            go_left = values[row_start + feature[idx]] <= threshold[idx]
            idx = np.where(go_left, left[idx], right[idx])
        return idx.reshape(roots.size, n)

    def apply(self, X) -> np.ndarray:
        """Index of the leaf each row of X reaches, all rows routed at once."""
        return self.route(X, (0,))[0]


@dataclass(frozen=True, eq=False)
class RegressionTree(NodeArrays):
    """Regression tree whose nodes hold the mean target of their rows."""

    value: np.ndarray

    _DTYPES = NodeArrays._DTYPES + (("value", float),)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]


def sse_cost(left, total, n_left, n):
    """Summed squared error of both children of each candidate split.

    ``left`` holds the sums of y and y**2 over the rows each split sends
    left, ``total`` the node's sums, and ``n_left`` and ``n`` the row counts.
    """
    left_sum, left_sum2 = left
    total_sum, total_sum2 = total
    left_sse = left_sum2 - left_sum**2 / n_left
    right_sum = total_sum - left_sum
    right_sse = (total_sum2 - left_sum2) - right_sum**2 / (n - n_left)
    return left_sse + right_sse


def _means(targets, sizes):
    """Mean target of each node, node k owning the next ``sizes[k]`` targets.

    Nodes of one size share one row-sum call; each row of a C-contiguous
    matrix sums exactly as the node's own ``row.sum()`` would.
    """
    starts = np.cumsum(sizes) - sizes
    means = np.empty(sizes.size)
    for size in np.unique(sizes).tolist():
        same = (sizes == size).nonzero()[0]
        means[same] = targets[starts[same][:, None] + np.arange(size)].sum(axis=1) / size
    return means


def _scan(ks, stats, sizes, cost, min_leaf):
    """Lowest-cost split of each node of a batch: (found, cost, feature, position) arrays.

    ``ks`` is (nodes, features, width): the ranks of node k's values of
    each feature in stable sorted order, the pad's past ``sizes[k]``.
    Each per-row statistic in ``stats`` is (nodes, features, width) in the
    same order, zero past each node's size, so every real running sum and
    every node total is the node's own.  A split after sorted position i
    sends i + 1 rows left; it is valid where the value, and so the rank,
    changes there and both children keep ``min_leaf`` rows, and
    ``cost(left, total, n_left, n)`` scores the valid ones.  One arg-min
    over each node's (feature, position) grid, invalid positions scoring
    infinity, picks its split, so ties go to the lowest feature, then the
    lowest threshold.
    """
    k, d, width = ks.shape
    sums = [s.cumsum(axis=-1).ravel() for s in stats]
    position = np.arange(width - 1)
    inside = (position >= min_leaf - 1) & (position < sizes[:, None, None] - min_leaf)
    valid = (ks[..., :-1] != ks[..., 1:]) & inside
    at = np.flatnonzero(valid)
    line, i = np.divmod(at, width - 1)  # line = node * d + feature
    left = at + line  # = line * width + i; each line's last running sum is its node's total
    scores = np.full(valid.size, np.inf)
    scores[at] = cost([s.take(left) for s in sums], [s[width - 1::width].take(line) for s in sums],
                      i + 1, sizes.repeat(d).take(line))
    scores = scores.reshape(k, -1)
    best = scores.argmin(axis=1)
    f, i = np.divmod(best, width - 1)
    nodes = np.arange(k)
    valid = valid.reshape(k, -1)[nodes, best]
    return valid, scores[nodes, best], f, i


def _ranks(XT):
    """Dense rank of each value within its row of ``XT`` (features x samples).

    Equal values share a rank, -0.0 and 0.0 included, and each NaN ranks
    above every number, so a stable argsort of a feature's ranks is the
    stable argsort of its values.  The ranks are of the smallest unsigned
    type that holds the number of samples less one.
    """
    order = XT.argsort(axis=-1, kind="stable")
    ordered = np.take_along_axis(XT, order, axis=-1)
    dense = np.zeros(XT.shape, dtype=np.min_scalar_type(XT.shape[1] - 1))  # in sorted order
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=-1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=-1)
    return ranks


def _sorted_scan(XT, keys, samples, stats, sizes, cost, min_leaf):
    """Lowest-cost split of each node of a batch: (found, cost, feature, threshold) arrays.

    Row k of ``samples`` lists node k's samples (columns of ``XT``), padded
    past ``sizes[k]`` with a sample that is NaN in every feature and zero
    in every statistic.  Every feature's values of each node are sorted
    stably, so tied rows keep their order and the pad sorts last, and each
    per-row statistic in ``stats`` is taken in the same order.  A batch at
    least ``_RADIX_WIDTH`` wide sorts ``keys``, the ``_ranks`` of ``XT``,
    in place of the values.  A split's threshold is the midpoint of the
    values on either side of it.
    """
    k, width = samples.shape
    column = XT.shape[1] * np.arange(XT.shape[0])[:, None]  # where each feature's values start
    by = keys if width >= _RADIX_WIDTH else XT
    order = by.take(samples[:, None, :] + column).argsort(axis=-1, kind="stable")
    ranked = samples.take(order + width * np.arange(k)[:, None, None])  # (nodes, features, width)
    valid, score, f, i = _scan(keys.take(ranked + column), [s.take(ranked) for s in stats],
                               sizes, cost, min_leaf)
    nodes = np.arange(k)
    lower, upper = XT[f, ranked[nodes, f, i]], XT[f, ranked[nodes, f, i + 1]]
    with np.errstate(over="ignore", invalid="ignore"):  # -inf + inf, or an overflow past 1.8e308
        threshold = (lower + upper) / 2.0
    # The midpoint of adjacent floats can round up to the upper value (or
    # be NaN or inf, as above); the threshold must stay below it, or one
    # child would get every row and the tree would grow forever.
    threshold = np.where(threshold < upper, threshold, lower)
    return valid, score, f, threshold


def _batches(sizes, d):
    """Groups of nodes to scan together, as index arrays into ``sizes``.

    Nodes are taken smallest first, and each batch is padded only to its
    last, widest node; a batch ends before the node that would take it
    past ``_BATCH_ELEMENTS`` padded elements.
    """
    order = sizes.argsort(kind="stable")
    widths = sizes[order] * d
    lo = 0
    while lo < order.size:
        fits = np.arange(1, order.size - lo + 1) * widths[lo:] <= _BATCH_ELEMENTS
        hi = lo + max(1, int(np.count_nonzero(fits)))
        yield order[lo:hi]
        lo = hi


def _scan_level(XT, keys, samples, stats, starts, sizes, scan, out, cost, min_leaf):
    """Write the best split of each node listed in ``scan`` into the arrays ``out``.

    ``out`` holds (found, cost, feature, threshold) arrays over the level's
    nodes; node k owns ``samples[starts[k]:starts[k] + sizes[k]]``.  The
    last column of ``XT`` is the pad, and ``keys`` are its ``_ranks``.
    """
    pad, last = XT.shape[1] - 1, samples.size - 1
    for batch in _batches(sizes[scan], XT.shape[0]):
        nodes = scan[batch]
        position = np.arange(sizes[nodes].max())
        at = np.minimum(starts[nodes][:, None] + position, last)
        padded = np.where(position < sizes[nodes][:, None], samples[at], pad)
        result = _sorted_scan(XT, keys, padded, stats, sizes[nodes], cost, min_leaf)
        for column, part in zip(out, result):
            column[nodes] = part


def _partition(XT, samples, sizes, found, feature, threshold):
    """The next level's samples and node sizes.

    Each split node's samples are partitioned stably into its left
    child's, then its right child's, so every child keeps them in order.
    """
    keep = found.repeat(sizes)
    sizes = sizes[found]
    samples = samples[keep]
    go_right = ~(XT[feature[found].repeat(sizes), samples] <= threshold[found].repeat(sizes))
    child = (2 * np.arange(sizes.size)).repeat(sizes) + go_right
    return samples[child.argsort(kind="stable")], np.bincount(child, minlength=2 * sizes.size)


def grow(X, y, stats, cost, value, roots, min_leaf=1, max_depth=None):
    """Grow one tree per row set in ``roots``; return their level-order node table.

    Tree t is grown on rows ``roots[t]`` of X (repeats allowed, order
    kept), all trees a level at a time.  ``cost`` scores splits from the
    per-row ``stats`` of targets ``y``; ``value(targets, sizes)`` maps
    every node's targets, node by node and each node's in row order, to
    the nodes' values.  A node stays a leaf with fewer than ``2 * min_leaf``
    rows, equal targets, at ``max_depth``, or with no valid split.  A NaN
    in X, or a root that is empty or lists a row X lacks, raises
    ``ValueError``.

    The table is the arrays (feature, threshold, left, right, values,
    cost) over every node of every tree, level by level, so node t is
    tree t's root; the j-th node that splits has its children at
    ``len(roots) + 2j`` and ``len(roots) + 2j + 1``, and a leaf has
    threshold 0 and infinite cost.  ``route(X, range(len(roots)))`` on
    it routes every tree at once.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if np.isnan(X).any():
        raise ValueError("X holds a NaN")
    if not len(roots):
        raise ValueError("need at least one root")
    # Node k of a level owns the next sizes[k] entries of samples, rows of
    # X in the order its root lists them.  One more column of XT, last,
    # pads the scan batches: it is NaN in every feature, and its entry of
    # every statistic is zero.
    sizes = np.array([len(r) for r in roots], dtype=int)
    samples = np.concatenate([np.asarray(r, dtype=int) for r in roots])
    if not sizes.all():
        raise ValueError(f"root {int(sizes.argmin())} is empty")
    outside = ((samples < 0) | (samples >= X.shape[0])).nonzero()[0]
    if outside.size:
        t = int(np.searchsorted(sizes.cumsum(), outside[0], side="right"))
        raise ValueError(f"root {t} lists row {samples[outside[0]]}, "
                         f"but X has rows 0 to {X.shape[0] - 1}")
    XT = np.vstack((X, np.full(X.shape[1], np.nan))).T.copy()
    keys = _ranks(XT)
    stats = [np.append(s, 0) for s in stats]
    levels = []
    while sizes.size:
        m = sizes.size
        ends = sizes.cumsum()
        starts = ends - sizes
        targets = y[samples]
        level = (sizes, targets, np.zeros(m, dtype=bool), np.full(m, np.inf),
                 np.full(m, LEAF), np.zeros(m))
        if max_depth is None or len(levels) < max_depth:
            changes = np.concatenate(([0], (targets != targets[starts].repeat(sizes)).cumsum()))
            scan = ((sizes >= 2 * min_leaf) & (changes[ends] > changes[starts])).nonzero()[0]
            _scan_level(XT, keys, samples, stats, starts, sizes, scan, level[2:], cost,
                        min_leaf)
        levels.append(level)
        found, _, feature, threshold = level[2:]
        samples, sizes = _partition(XT, samples, sizes, found, feature, threshold)
    sizes, targets, found, score, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    left = np.where(found, len(roots) + 2 * (found.cumsum() - 1), LEAF)
    return (np.where(found, feature, LEAF), np.where(found, threshold, 0.0), left,
            np.where(found, left + 1, LEAF), value(targets, sizes), score)


def grow_regression(X, y, roots, min_leaf=1, max_depth=None):
    """Squared-error trees grown together, tree t on rows ``roots[t]`` of X and y,
    as ``grow``'s level-order table."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.size or X.shape[0] == 0:
        raise ValueError("X must be (n, d) with matching targets")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    return grow(X, y, (y, y * y), sse_cost, _means, roots, min_leaf, max_depth)


def build_regression_tree(X: np.ndarray, y: np.ndarray, min_leaf: int = 1,
                          max_depth: int | None = None) -> RegressionTree:
    """Grow a deterministic squared-error tree to purity or the caps, as its
    level-order node table."""
    # A y that does not match X's rows fails grow_regression's checks.
    *table, _ = grow_regression(X, y, [np.arange(np.size(y))], min_leaf, max_depth)
    return RegressionTree(*table)
