"""Ordinal encoding of points into real vectors, and the way back.

Surrogate models and acquisition routines operate on fixed-length
float vectors: continuous values pass through, integers become floats,
and categorical values are replaced by their category index.  Activity
is not encoded -- inactive variables contribute their carried value,
which keeps the encoding total and invertible.
"""

from typing import Sequence

import numpy as np

from sbobench.core.space import CATEGORICAL, CONTINUOUS, SearchSpace


def encode(space: SearchSpace, point: tuple) -> np.ndarray:
    """Encode one point as a float vector (categoricals by index)."""
    return encode_points(space, (point,))[0]


def encode_points(space: SearchSpace, points: Sequence[tuple]) -> np.ndarray:
    """Encode a sequence of points as an (n, d) matrix, one column per variable."""
    out = np.empty((len(points), space.dimension))
    columns = zip(*points)
    for i, (v, column) in enumerate(zip(space.variables, columns)):
        if v.kind == CATEGORICAL:
            index = {c: k for k, c in enumerate(v.categories)}
            out[:, i] = [index[c] for c in column]
        else:
            out[:, i] = column
    return out


def sample_encoded(space: SearchSpace, rng: np.random.Generator, m: int) -> np.ndarray:
    """Draw ``m`` uniform encoded rows, one column per variable in declaration order.

    Continuous columns are uniform on [lower, upper], integer columns
    uniform over their levels, categorical columns uniform over the
    indices 0..k-1.  Every row encodes a valid point.
    """
    out = np.empty((m, space.dimension))
    for i, v in enumerate(space.variables):
        if v.kind == CONTINUOUS:
            out[:, i] = rng.uniform(v.lower, v.upper, size=m)
        elif v.kind == CATEGORICAL:
            out[:, i] = rng.integers(0, len(v.categories), size=m)
        else:
            out[:, i] = rng.integers(int(v.lower), int(v.upper) + 1, size=m)
    return out


def encoded_bounds(space: SearchSpace) -> tuple[np.ndarray, np.ndarray]:
    """Box bounds of the encoded space (categoricals span 0..k-1)."""
    lower = np.empty(space.dimension)
    upper = np.empty(space.dimension)
    for i, v in enumerate(space.variables):
        if v.kind == CATEGORICAL:
            lower[i], upper[i] = 0.0, float(len(v.categories) - 1)
        else:
            lower[i], upper[i] = v.lower, v.upper
    return lower, upper


def nearest_point(space: SearchSpace, vector: Sequence[float]) -> tuple:
    """Map an arbitrary encoded vector to the nearest valid point.

    Each coordinate is clamped to its encoded range first, then integer
    and categorical coordinates are rounded to the nearest valid value
    or index (ties to even, IEEE ``rint``).
    """
    values = []
    for i, v in enumerate(space.variables):
        x = float(vector[i])
        if v.kind == CONTINUOUS:
            values.append(min(max(x, v.lower), v.upper))
        elif v.kind == CATEGORICAL:
            idx = int(np.rint(min(max(x, 0.0), float(len(v.categories) - 1))))
            values.append(v.categories[idx])
        else:
            values.append(int(np.rint(min(max(x, v.lower), v.upper))))
    return tuple(values)
