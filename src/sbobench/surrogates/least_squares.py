"""Ridge-regularised least-squares surrogates over fixed basis expansions.

Four basis families share one fitting path.  ``linear`` and
``quadratic`` use the monomials you would expect; ``piecewise_linear``
uses rectified hinges ``max(0, w.x + b)`` with weights drawn uniformly
from {-1, 0, 1}^d and normalised, each hinge passing through a uniform
point of the encoded box; ``random_fourier`` uses ``cos(w.x + b)`` with
Gaussian frequencies scaled by half the box widths and uniform phases.
Every family gets a constant column.

The coefficients minimise ``sum((g(x) - y)^2) + ridge * ||c||^2`` for
the (n x p) design ``phi``.  With ``ridge > 0`` and fewer points than
basis functions (n < p) the fit solves the n x n dual system
``(phi phi' + ridge I) a = y`` and returns ``c = phi' a`` (Saunders,
Gammerman & Vovk, 1998); otherwise it solves the p x p normal
equations ``(phi' phi + ridge I) c = phi' y``.  Both give the same
minimiser.  Either system is solved with a Cholesky factorisation plus
one step of iterative refinement.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from sbobench.core.rng import make_rng
from sbobench.core.space import SearchSpace
from sbobench.surrogates.base import FitError, SurrogateModel
from sbobench.surrogates.encoding import encoded_bounds

FAMILIES = ("linear", "quadratic", "piecewise_linear", "random_fourier")


def _quadratic_features(X: np.ndarray) -> np.ndarray:
    rows, cols = np.triu_indices(X.shape[1])
    return np.hstack([np.ones((X.shape[0], 1)), X, X[:, rows] * X[:, cols]])


def _draw_hinge_basis(space: SearchSpace, n_basis: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Hinge directions from {-1,0,1}^d (normalised) and box offsets."""
    lower, upper = encoded_bounds(space)
    d = space.dimension
    W = rng.integers(-1, 2, size=(n_basis, d)).astype(float)
    zero = ~W.any(axis=1)
    while zero.any():
        W[zero] = rng.integers(-1, 2, size=(int(zero.sum()), d))
        zero = ~W.any(axis=1)
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    # The stream and bits of rng.uniform(lower, upper, size=(n_basis, d)), drawn faster.
    anchor = lower + (upper - lower) * rng.random((n_basis, d))
    return W, -np.einsum("kj,kj->k", W, anchor)


def _draw_fourier_basis(space: SearchSpace, n_basis: int, rng) -> tuple[np.ndarray, np.ndarray]:
    lower, upper = encoded_bounds(space)
    scale = np.maximum((upper - lower) / 2.0, 1e-12)
    W = rng.normal(size=(n_basis, space.dimension)) / scale
    b = rng.uniform(0.0, 2.0 * np.pi, size=n_basis)
    return W, b


class LeastSquaresModel(SurrogateModel):
    """Fitted basis expansion; ``coefficients[0]`` is the constant term."""

    def __init__(self, family, coefficients, W=None, b=None, ridge=0.0):
        self.family = family
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.W = None if W is None else np.asarray(W, dtype=float)
        self.b = None if b is None else np.asarray(b, dtype=float)
        self.ridge = float(ridge)

    @property
    def n_basis(self) -> int:
        return 0 if self.W is None else self.W.shape[0]

    def phases(self, X: np.ndarray) -> np.ndarray:
        """Hinge / Fourier phases ``X W' + b`` of one vector or an (m, d) matrix, as (m, p)."""
        return np.atleast_2d(np.asarray(X, dtype=float)) @ self.W.T + self.b

    def _phase_features(self, A: np.ndarray) -> np.ndarray:
        """Design rows at phases ``A``: one (m, p + 1) array holding the
        constant column, then the basis written in place."""
        F = np.empty((A.shape[0], A.shape[1] + 1))
        F[:, 0] = 1.0
        if self.family == "piecewise_linear":
            np.maximum(A, 0.0, out=F[:, 1:])
        else:
            np.cos(A, out=F[:, 1:])
        return F

    def phase_values(self, A: np.ndarray) -> np.ndarray:
        """Predictions at phases ``A``."""
        return self._phase_features(A) @ self.coefficients

    def phase_slopes(self, A: np.ndarray) -> np.ndarray:
        """Derivative of each basis function with respect to its phase."""
        return A > 0.0 if self.family == "piecewise_linear" else -np.sin(A)

    def slope_gradient(self, slopes: np.ndarray) -> np.ndarray:
        """Gradient rows of the prediction, given ``phase_slopes`` rows."""
        return (self.coefficients[1:] * slopes) @ self.W

    def features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.family == "linear":
            return np.hstack([np.ones((X.shape[0], 1)), X])
        if self.family == "quadratic":
            return _quadratic_features(X)
        return self._phase_features(self.phases(X))

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        return self.features(X) @ self.coefficients

    def gradient_encoded(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the prediction at one encoded vector, or at each row
        of an (m, d) matrix (returned as (m, d))."""
        X = np.atleast_2d(np.asarray(x, dtype=float))
        d = X.shape[1]
        if self.family in ("linear", "quadratic"):
            grad = np.tile(self.coefficients[1 : 1 + d], (X.shape[0], 1))
            if self.family == "quadratic":
                # d/dx of sum_{i<=j} c_ij x_i x_j is Q x with Q = U + U',
                # U the upper triangle of the c_ij (so Q_ii = 2 c_ii).
                upper = np.zeros((d, d))
                upper[np.triu_indices(d)] = self.coefficients[1 + d :]
                grad += X @ (upper + upper.T)
        else:
            grad = self.slope_gradient(self.phase_slopes(self.phases(X)))
        return grad if np.ndim(x) == 2 else grad[0]


def fit_least_squares(
    space: SearchSpace,
    X: np.ndarray,
    y: np.ndarray,
    family: str = "linear",
    ridge: float = 1e-6,
    n_basis: int = 200,
    seed: int = 0,
) -> LeastSquaresModel:
    """Fit one of the four basis families on encoded rows ``X`` and targets ``y``.

    :param ridge: coefficient penalty weight; with ``ridge <= 0`` the fit
        only succeeds for full-rank designs.
    :param n_basis: number of random basis functions (hinge / Fourier
        families only; the monomial families ignore it).
    :param seed: seed for the random basis draw; the same seed gives the
        same basis.  The solvers pass ``_fit_seed()``, a fresh seed per
        refit, so each refit draws a new basis rather than reusing one.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown least-squares family {family!r}")
    if len(X) == 0:
        raise ValueError("fit needs at least one row")

    W = b = None
    if family in ("piecewise_linear", "random_fourier"):
        if n_basis < 1:
            raise ValueError("n_basis must be positive")
        rng = make_rng(seed)
        draw = _draw_hinge_basis if family == "piecewise_linear" else _draw_fourier_basis
        W, b = draw(space, n_basis, rng)

    model = LeastSquaresModel(family, np.zeros(1), W=W, b=b, ridge=ridge)
    phi = model.features(X)
    dual = ridge > 0 and phi.shape[0] < phi.shape[1]
    if dual:
        gram, rhs = phi @ phi.T, y
    else:
        gram, rhs = phi.T @ phi, phi.T @ y
    if ridge > 0:
        gram[np.diag_indices_from(gram)] += ridge
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as err:
        if ridge <= 0:
            raise FitError("regularisation required: design is rank-deficient") from err
        raise FitError(f"normal equations could not be factorised (ridge={ridge})") from err
    solution = cho_solve(factor, rhs, check_finite=False)
    # One round of iterative refinement keeps the optimality residual
    # ||phi'(phi c - y) + ridge c|| at the rounding level even for
    # ill-conditioned random bases.
    residual = rhs - gram @ solution
    solution = solution + cho_solve(factor, residual, check_finite=False)
    model.coefficients = phi.T @ solution if dual else solution
    return model
