"""Electrostatic-precipitator proxy: categorical slots scored by windows.

Each of ``n_slots`` slots takes one of ``n_options`` categorical
options.  The objective sums a seed-generated lookup table over all
sliding windows of ``window`` consecutive slots.  Table entries are
quantised to a 0.25 grid, so many single-option changes leave the
objective exactly unchanged — the landscape is covered in plateaus.
Because every entry is a multiple of 0.25, objective values are exact
in floating point and plateau equality is bit-equality.

Table entries vary smoothly with the option *index* (low-frequency
sinusoids plus a small cross-window coupling term before quantisation),
so ordinal encodings of the categories carry usable structure.

The exact optimum is computed at construction by dynamic programming
over the chain of windows: the state after slot ``i`` is the tuple of
the last ``window - 1`` option indices, and each new slot closes one
window.  The DP accumulates table entries in the same left-to-right
order as the evaluator, so its value matches evaluation bit-for-bit.
"""

import itertools

import numpy as np

from ..core import SearchSpace, VariableSpec, make_rng
from ..core.rng import derive_seed
from .base import Problem

QUANTUM = 0.25


def _generate_tables(n_windows, n_options, window, rng):
    """One quantised (n_options,)^window array per window position.

    Amplitudes are small relative to the quantum so that roughly half
    of all single-option moves leave the summed objective unchanged
    (measured empirically on the default 49x8 instance).
    """
    grids = np.indices((n_options,) * window).astype(float)
    tables = []
    for _ in range(n_windows):
        raw = np.zeros((n_options,) * window)
        for k in range(window):
            amp = rng.uniform(0.04, 0.12)
            freq = rng.integers(1, 3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            raw += amp * np.sin(2.0 * np.pi * freq * grids[k] / n_options + phase)
        coupling = rng.uniform(0.02, 0.07)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        raw += coupling * np.sin(
            np.pi * (grids[0] + grids[-1]) / n_options + phase
        )
        tables.append(np.round(raw / QUANTUM) * QUANTUM)
    return tuple(tables)


def _chain_dp_minimum(tables, n_options, window):
    """Exact minimum of sum_w tables[w][o_w..o_{w+window-1}]."""
    best = tables[0].min(axis=0)
    for table in tables[1:]:
        best = (best[..., None] + table).min(axis=0)
    return float(best.min())


class EspProblem(Problem):
    def __init__(self, n_slots=49, n_options=8, window=3, seed=0,
                 noise_sigma=0.0):
        if window < 2:
            raise ValueError("window must be at least 2")
        if n_slots <= window:
            raise ValueError("n_slots must exceed window")
        if n_options < 2:
            raise ValueError("need at least two options per slot")
        categories = tuple(str(i) for i in range(n_options))
        width = len(str(n_slots - 1))
        space = SearchSpace(
            tuple(
                VariableSpec(f"s{i:0{width}d}", "categorical",
                             categories=categories)
                for i in range(n_slots)
            )
        )
        self.n_slots = int(n_slots)
        self.n_options = int(n_options)
        self.window = int(window)
        self.n_windows = self.n_slots - self.window + 1
        rng = make_rng(derive_seed(seed, "esp-table"))
        self.tables = _generate_tables(self.n_windows, self.n_options,
                                       self.window, rng)
        self._stacked_tables = np.stack(self.tables)
        self._window_rows = np.arange(self.n_windows)
        self._window_slots = self._window_rows[:, None] + np.arange(self.window)
        optimum = _chain_dp_minimum(self.tables, self.n_options, self.window)
        super().__init__("esp-proxy", space, known_optimum=optimum,
                         noise_sigma=noise_sigma, noise_seed=seed)

    def option_indices(self, point) -> np.ndarray:
        return np.fromiter(map(int, point), dtype=int, count=len(point))

    def objective_of_indices(self, options) -> float:
        """Objective for a raw option-index vector (used by tests/DP).

        Each window's entry is gathered from the stacked tables in one
        fancy index, then the entries are added left to right from 0.0,
        the order the dynamic program uses (``np.cumsum`` is sequential;
        adding 0.0 keeps an all-zero total at 0.0 rather than -0.0).
        """
        windows = np.asarray(options, dtype=int)[self._window_slots]
        entries = self._stacked_tables[(self._window_rows, *windows.T)]
        return float(np.cumsum(entries)[-1]) + 0.0

    def _objective(self, point) -> float:
        return self.objective_of_indices(self.option_indices(point))

    def exhaustive_minimum(self) -> float:
        """Brute-force optimum; only sensible for tiny instances."""
        best = np.inf
        for combo in itertools.product(range(self.n_options),
                                       repeat=self.n_slots):
            best = min(best, self.objective_of_indices(combo))
        return float(best)


def esp_proxy(n_slots=49, n_options=8, window=3, seed=0,
              noise_sigma=0.0) -> Problem:
    """Categorical sliding-window proxy with plateaus and an exact DP optimum."""
    return EspProblem(n_slots, n_options, window, seed, noise_sigma)
