"""Solver loop state: suggest / observe with a random warm-up phase.

Every solver owns a search space, an RNG stream, and a history of
``(Point, y)`` pairs.  The first ``R`` suggestions are uniform samples
drawn directly from the state's RNG (so they reproduce the
``sample_uniform`` stream exactly); afterwards the solver's acquisition
strategy takes over.  Model-based solvers fit their surrogate lazily:
the model appears once ``R`` observations have arrived and is refit on
every later observation.

Acquisition happens in the encoded box (ordinal indices for categorical
variables).  Suggested vectors are decoded with ``nearest_point``, which
clamps and rounds to the closest valid point; on purely continuous
spaces that is just a clamp.  So every solver runs on mixed spaces:
continuous-native ones search the relaxed box, and their suggestions
are rounded to valid values.

For auditability each model-based solver records ``last_proposal`` — the
candidate set, model means/variances, acquisition scores, and the chosen
entry — refreshed on every model-guided suggestion.
"""

import math

import numpy as np

from ..core import sample_uniform
from ..core.rng import derive_seed, make_rng
from ..surrogates.encoding import encode, encoded_bounds, nearest_point


class Solver:
    """Base class holding loop state shared by every solver kind."""

    kind = "base"

    def __init__(self, space, R, seed):
        if R < 1:
            raise ValueError("R (random warm-up count) must be at least 1")
        self.space = space
        self.R = int(R)
        self.seed = int(seed)
        self.rng = make_rng(seed)
        self.history: list = []
        self._encoded_rows: list = []  # encode(point) per history entry
        self.model = None
        self.last_proposal: dict | None = None
        self._pending = None
        self._lo, self._hi = encoded_bounds(space)

    @property
    def iteration(self) -> int:
        """Number of completed (observed) iterations."""
        return len(self.history)

    def suggest(self):
        if self._pending is not None:
            raise RuntimeError("previous suggestion has not been observed yet")
        if len(self.history) < self.R:
            point = sample_uniform(self.space, self.rng)
        else:
            point = self._acquire()
        self._pending = point
        return point

    def observe(self, point, y) -> None:
        """Record an evaluated point.

        ``point`` must be the outstanding suggestion; when no suggestion
        is pending, observations are accepted as transcript injections
        (useful for replaying recorded histories into a fresh solver).
        """
        if self._pending is not None and point != self._pending:
            raise ValueError("observed point differs from the pending suggestion")
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("non-finite objective")
        self.history.append((point, y))
        self._encoded_rows.append(encode(self.space, point))
        self._pending = None
        self._refit()

    # -- hooks -----------------------------------------------------------

    def _acquire(self):
        raise NotImplementedError

    def _refit(self) -> None:
        pass

    # -- shared helpers ---------------------------------------------------

    def _fit_seed(self) -> int:
        """Deterministic per-refit seed, independent of the sampling stream."""
        return derive_seed(self.seed, "fit", len(self.history))

    def _encoded_history(self):
        X = np.array(self._encoded_rows)
        y = np.array([t for _, t in self.history])
        return X, y

    def _incumbent_encoded(self) -> np.ndarray:
        ys = [t for _, t in self.history]
        best = int(np.argmin(ys))
        return encode(self.space, self.history[best][0])

    def _decode(self, vector: np.ndarray):
        return nearest_point(self.space, vector)
