"""Shared surrogate-model interface, scoring and JSON persistence."""

import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable

import numpy as np

from sbobench.core.runio import _atomic_write
from sbobench.core.space import SearchSpace, space_from_jsonable, space_to_jsonable


class FitError(RuntimeError):
    """A surrogate fit could not be completed."""


class SurrogateModel(ABC):
    """A fitted model mapping encoded vectors to objective predictions.

    Subclasses predict on raw encoded vectors so acquisition routines
    can query relaxed (not-yet-valid) configurations; callers encode
    points with ``encode_points``.
    """

    family: str = ""

    def __init__(self, space: SearchSpace):
        self.space = space

    @abstractmethod
    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        """Predict at encoded vectors, shape (n, d) -> (n,)."""

    def predict_variance_encoded(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{self.family} does not model predictive variance")

    @abstractmethod
    def to_jsonable(self) -> dict:
        """Self-describing dict: family, hyperparameters, fitted arrays."""

    def save(self, path):
        payload = self.to_jsonable()
        payload["family"] = self.family
        payload["space"] = space_to_jsonable(self.space)
        _atomic_write(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


_LOADERS: dict = {}


def register_family(family: str, loader: Callable):
    _LOADERS[family] = loader


def load_model(path) -> SurrogateModel:
    """Load any saved surrogate back; dispatches on the family tag."""
    payload = json.loads(Path(path).read_text())
    family = payload["family"]
    if family not in _LOADERS:
        raise ValueError(f"unknown model family {family!r}")
    space = space_from_jsonable(payload["space"])
    return _LOADERS[family](space, payload)


def mae(model: SurrogateModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean absolute error of the model at encoded rows ``X`` against targets ``y``."""
    if len(X) == 0:
        raise ValueError("mae needs at least one row")
    return float(np.mean(np.abs(model.predict_encoded(X) - y)))
