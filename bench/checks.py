"""Output checks, each against a computation made here or a property the method must have.

Every check raises :class:`CheckError` with a message naming what is
wrong.  None compares with a stored copy of an earlier output: the CSVs
are parsed with the ``csv`` module, objectives are recomputed from the
problem definitions, replay cells from an event loop, p-values with scipy
and rules-tree predictions from a walk of the tree's node arrays.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.stats


class CheckError(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckError(message)


def read_csv(path):
    """(header, rows) of a run-log CSV, as strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows, f"{path.name}: empty file")
    return rows[0], rows[1:]


def check_log_shape(path, n_records, rand_init, n_variables):
    """Consecutive iterations, R random-init rows then model-guided, virtual solver time 0."""
    header, rows = read_csv(path)
    require(len(header) == n_variables + 5, f"{path.name}: {len(header)} columns")
    require(len(rows) == n_records, f"{path.name}: {len(rows)} rows, expected {n_records}")
    for i, row in enumerate(rows, start=1):
        require(row[0] == str(i), f"{path.name}: row {i} has iteration {row[0]}")
        phase = "random_init" if i <= rand_init else "model_guided"
        require(row[1] == phase, f"{path.name}: row {i} has phase {row[1]}, expected {phase}")
        require(float(row[-1]) == 0.0, f"{path.name}: row {i} logs solver time in virtual mode")
    with open(Path(path).with_suffix(".json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    require(not meta["aborted"], f"{path.name}: run aborted: {meta['note']}")
    return rows


def esp_window_sum(tables, options):
    """The esp objective: window tables summed left to right."""
    window = tables[0].ndim
    total = 0.0
    for w, table in enumerate(tables):
        total += float(table[tuple(options[w:w + window])])
    return total


def check_esp_log(path, tables, n_options, n_records, rand_init):
    """Valid categorical points, objectives equal to the window sum and above its bound."""
    n_slots = len(tables) + tables[0].ndim - 1
    rows = check_log_shape(path, n_records, rand_init, n_slots)
    lower_bound = sum(float(t.min()) for t in tables)
    valid = {str(k): k for k in range(n_options)}
    for i, row in enumerate(rows, start=1):
        cells = row[2:2 + n_slots]
        require(all(c in valid for c in cells), f"{path.name}: row {i} has an invalid option")
        objective = float(row[2 + n_slots])
        expected = esp_window_sum(tables, [valid[c] for c in cells])
        require(objective == expected,
                f"{path.name}: row {i} objective {objective!r}, window sum {expected!r}")
        require(objective >= lower_bound,
                f"{path.name}: row {i} objective {objective!r} below bound {lower_bound!r}")


PIPE_PENALTY = 2.0


def pipe_objective(x):
    """The formula in the pipe-proxy docstring; ``(value, distance - radius)``."""
    d = len(x)
    radius = 0.3 * math.sqrt(d)
    z = [v - 0.5 for v in x]
    dist = math.sqrt(sum(v * v for v in z))
    ripple = sum((1.0 - math.cos(4.0 * math.pi * v)) / 2.0 for v in z) / d
    return 0.4 + 0.9 * (dist / radius) ** 2 + 0.35 * ripple, dist - radius


def check_pipe_log(path, d, n_records, rand_init):
    """Points in [0, 1]^d; objectives match the formula inside the ball, 2.0 outside."""
    rows = check_log_shape(path, n_records, rand_init, d)
    for i, row in enumerate(rows, start=1):
        x = [float(c) for c in row[2:2 + d]]
        require(all(0.0 <= v <= 1.0 for v in x), f"{path.name}: row {i} leaves the unit cube")
        objective = float(row[2 + d])
        value, outside = pipe_objective(x)
        if abs(outside) < 1e-12:  # on the boundary to rounding: either branch is right
            ok = objective == PIPE_PENALTY or abs(objective - value) <= 1e-12
        elif outside > 0:
            ok = objective == PIPE_PENALTY
        else:
            ok = abs(objective - value) <= 1e-12
        require(ok, f"{path.name}: row {i} objective {objective!r}, formula gives "
                    f"{PIPE_PENALTY if outside > 0 else value!r}")


def check_same_bytes(paths, reference_paths):
    """Each file byte-identical to its counterpart of the reference run."""
    for path, ref in zip(paths, reference_paths, strict=True):
        for a, b in ((path, ref), (Path(path).with_suffix(".json"), Path(ref).with_suffix(".json"))):
            require(Path(a).read_bytes() == Path(b).read_bytes(),
                    f"{Path(a).name} differs between repeated runs")


# -- analysis ---------------------------------------------------------------

def logged_runs(directory):
    """solver -> [(objectives, solver_times)] read straight from the CSVs, in file order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.csv")):
        with open(path.with_suffix(".json"), encoding="utf-8") as fh:
            solver = json.load(fh)["solver_id"]
        _, rows = read_csv(path)
        runs.setdefault(solver, []).append(
            ([float(r[-3]) for r in rows], [float(r[-1]) for r in rows]))
    return runs


def event_loop_cell(runs, budget, tau):
    """(defined, means) of one replay cell by advancing a clock evaluation by evaluation."""
    means = {}
    for solver in sorted(runs):
        bests = []
        for objectives, solver_times in runs[solver]:
            t, kept, crossed = 0.0, [], False
            for obj, st in zip(objectives, solver_times):
                t = t + (st + tau)
                if t > budget:
                    crossed = True
                    break
                kept.append(obj)
            if not kept or not crossed and t < budget:
                return False, {}
            bests.append(min(kept))
        means[solver] = float(np.mean(bests))
    return True, means


def check_replay(grid, runs, cell_indices):
    """Sampled cells agree with the event loop on definedness, means and winner."""
    n_t = len(grid.eval_times)
    for k in cell_indices:
        cell = grid.cells[k]
        budget, tau = grid.budgets[k // n_t], grid.eval_times[k % n_t]
        require(cell.budget == budget and cell.eval_time == tau, f"cell {k} is out of place")
        defined, means = event_loop_cell(runs, budget, tau)
        where = f"replay cell (B={budget:g}, tau={tau:g})"
        require(cell.defined == defined, f"{where}: defined={cell.defined}, event loop {defined}")
        if defined:
            require(cell.means == means, f"{where}: means {cell.means} != {means}")
            winner = min(means, key=lambda s: (means[s], s))
            require(cell.winner == winner, f"{where}: winner {cell.winner}, event loop {winner}")


def check_ttest(p_value, a, b):
    """The pooled two-sample p-value equals scipy's; degenerate samples follow the documented rule."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.var() == 0.0 and b.var() == 0.0:
        expected = 1.0 if a.mean() == b.mean() else 0.0
    else:
        expected = float(scipy.stats.ttest_ind(a, b, equal_var=True).pvalue)
    require(abs(p_value - expected) <= 1e-12, f"t-test p-value {p_value!r}, scipy {expected!r}")


def check_curve_anchors(curves, runs, R, baseline="randomsearch"):
    """r0 and r1 are the baseline's mean best at iteration 1 and at iteration R."""
    r0 = float(np.mean([objectives[0] for objectives, _ in runs[baseline]]))
    r1 = float(np.mean([min(objectives[:R]) for objectives, _ in runs[baseline]]))
    for solver, curve in curves.items():
        require(curve.r0 == r0 and curve.r1 == r1,
                f"{solver} curve anchors ({curve.r0!r}, {curve.r1!r}), logs give ({r0!r}, {r1!r})")


def check_offline(result, gathering_runs, pool_size, test_keep=1000):
    """One fit per gathering run, the documented test set, finite non-negative errors."""
    require(result.n_runs == gathering_runs,
            f"offline {result.family}: {result.n_runs} fits for {gathering_runs} gathering runs")
    require(result.test_size == min(test_keep, pool_size)
            and result.truncated == (pool_size < test_keep),
            f"offline {result.family}: test set of {result.test_size} from a pool of {pool_size}")
    errors = (result.train_mae_mean, result.train_mae_std, result.test_mae_mean,
              result.test_mae_std)
    require(all(math.isfinite(e) and e >= 0.0 for e in errors),
            f"offline {result.family}: errors {errors}")


def walk_tree(tree, x):
    """Label of the leaf that row ``x`` reaches through the node arrays."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    return tree.labels[tree.label_index[node]]


def tree_shape(tree):
    """(depth, leaves) by walking the node arrays from the root."""
    depth, leaves, frontier = 0, 0, [(0, 0)]
    while frontier:
        node, level = frontier.pop()
        depth = max(depth, level)
        if tree.feature[node] < 0:
            leaves += 1
        else:
            frontier += [(tree.left[node], level + 1), (tree.right[node], level + 1)]
    return depth, leaves


def check_rules(tree, X, max_depth=5, max_leaves=6):
    depth, leaves = tree_shape(tree)
    require(depth <= max_depth, f"rules tree depth {depth} exceeds {max_depth}")
    require(leaves <= max_leaves, f"rules tree has {leaves} leaves, cap {max_leaves}")
    predicted = tree.predict(X)
    for i, row in enumerate(X):
        require(predicted[i] == walk_tree(tree, row),
                f"rules tree predicts {predicted[i]!r} for row {i}, node walk gives "
                f"{walk_tree(tree, row)!r}")


def check_grid_csv(path, grid):
    """The emitted grid CSV re-reads, cell by cell, as the grid that was written."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    solvers = [h[len("mean_"):] for h in header[4:]]
    require(tuple(solvers) == grid.solvers, f"{path.name}: solvers {solvers}")
    require(len(rows) == len(grid.cells), f"{path.name}: {len(rows)} rows for {len(grid.cells)} cells")
    for row, cell in zip(rows, grid.cells):
        defined = row[2] == "true"
        same = (float(row[0]) == cell.budget and float(row[1]) == cell.eval_time
                and defined == cell.defined)
        if same and defined:
            same = row[3] == cell.winner and {
                s: float(v) for s, v in zip(solvers, row[4:])} == cell.means
        require(same, f"{path.name}: row {row} does not re-read as cell {cell}")
