"""Shared surrogate-model interface and scoring."""

from abc import ABC, abstractmethod

import numpy as np


class FitError(RuntimeError):
    """A surrogate fit could not be completed."""


class SurrogateModel(ABC):
    """A fitted model mapping encoded vectors to objective predictions.

    Subclasses predict on raw encoded vectors so acquisition routines
    can query relaxed (not-yet-valid) configurations; callers encode
    points with ``encode_points``.
    """

    family: str = ""

    @abstractmethod
    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        """Predict at encoded vectors, shape (n, d) -> (n,)."""

    def predict_variance_encoded(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{self.family} does not model predictive variance")


def mae(model: SurrogateModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute error of the model at encoded rows ``X`` against targets ``y``."""
    if len(X) == 0:
        raise ValueError("mae needs at least one row")
    return float(np.mean(np.abs(model.predict_encoded(X) - y)))
