"""Surrogate models over encoded points."""

from sbobench.surrogates.base import FitError, SurrogateModel, mae
from sbobench.surrogates.blas import limit_blas_threads
from sbobench.surrogates.boosted import BoostedTreesModel, fit_boosted
from sbobench.surrogates.encoding import (
    encode,
    encode_points,
    encoded_bounds,
    nearest_point,
)
from sbobench.surrogates.forest import RandomForestModel, fit_forest
from sbobench.surrogates.gp import (
    GaussianProcessModel,
    GpFactorizationError,
    MaternParams,
    fit_gp,
    matern52,
)
from sbobench.surrogates.least_squares import (
    FAMILIES,
    LeastSquaresModel,
    fit_least_squares,
)

__all__ = [
    "BoostedTreesModel",
    "FAMILIES",
    "FitError",
    "GaussianProcessModel",
    "GpFactorizationError",
    "LeastSquaresModel",
    "MaternParams",
    "RandomForestModel",
    "SurrogateModel",
    "encode",
    "encode_points",
    "encoded_bounds",
    "fit_boosted",
    "fit_forest",
    "fit_gp",
    "fit_least_squares",
    "mae",
    "matern52",
    "nearest_point",
]

limit_blas_threads()
