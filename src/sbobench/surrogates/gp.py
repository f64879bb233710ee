"""Zero-mean Gaussian-process surrogate with a Matérn 5/2 kernel.

Kernel, for r the Euclidean distance between encoded vectors:

    k(r) = signal_var * (1 + sqrt(5) r / l + 5 r^2 / (3 l^2))
                      * exp(-sqrt(5) r / l)

The posterior uses the standard Cholesky route.  When the Gram matrix
cannot be factorised, a jitter ladder is climbed: starting from
``1e-10 * trace(K)/n`` and doubling until ``1e-2 * trace(K)/n``; if the
whole ladder fails the fit errors out, reporting every jitter tried.

Hyperparameters (lengthscale, signal variance, noise variance) can be
optimised by multistart gradient ascent on the log marginal likelihood
in log-parameter space, with analytic gradients, 8 starts and 200 steps
per start by default.  The lengthscale is box-constrained to
``[1e-3, 1e3]`` times the encoded box diagonal and the noise variance
floored at 1e-8.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from sbobench.core.rng import make_rng
from sbobench.core.space import SearchSpace
from sbobench.surrogates.base import FitError, SurrogateModel
from sbobench.surrogates.encoding import encoded_bounds

_SQRT5 = math.sqrt(5.0)
NOISE_FLOOR = 1e-8


class GpFactorizationError(FitError):
    """Raised when no jitter level makes the Gram matrix factorisable."""

    def __init__(self, tried):
        self.tried = list(tried)
        super().__init__(
            "kernel matrix could not be factorised; jitters tried: "
            + ", ".join(f"{j:.3e}" for j in self.tried)
        )


@dataclass(frozen=True)
class MaternParams:
    """Matérn 5/2 hyperparameters."""

    lengthscale: float
    signal_var: float
    noise_var: float

    def __post_init__(self):
        if self.lengthscale <= 0 or self.signal_var <= 0:
            raise ValueError("lengthscale and signal variance must be positive")
        if self.noise_var < 0:
            raise ValueError("noise variance must be non-negative")


def matern52(dists: np.ndarray, lengthscale: float) -> np.ndarray:
    """Unit-variance Matérn 5/2 correlation for given distances."""
    u = _SQRT5 * np.asarray(dists) / lengthscale
    return (1.0 + u + u * u / 3.0) * np.exp(-u)


def _pairwise_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.sqrt(np.maximum(sq, 0.0))


def _factorize(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky with the documented jitter ladder; returns (L, jitter)."""
    n = K.shape[0]
    base = float(np.trace(K)) / n
    tried = []
    jitter = 0.0
    while True:
        tried.append(jitter)
        try:
            L = cholesky(K + jitter * np.eye(n), lower=True, check_finite=False)
            return L, jitter
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = 1e-10 * base
            else:
                jitter *= 2.0
            if jitter > 1e-2 * base:
                raise GpFactorizationError(tried) from None


class GaussianProcessModel(SurrogateModel):
    family = "gaussian_process"

    def __init__(self, params: MaternParams, X, y):
        self.params = params
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        K = params.signal_var * matern52(_pairwise_dists(self.X, self.X), params.lengthscale)
        K[np.diag_indices_from(K)] += params.noise_var
        self.L, self.jitter = _factorize(K)
        self.alpha = cho_solve((self.L, True), self.y, check_finite=False)

    def _cross(self, X: np.ndarray) -> np.ndarray:
        return self.params.signal_var * matern52(
            _pairwise_dists(np.atleast_2d(X), self.X), self.params.lengthscale
        )

    def predict_encoded(self, X: np.ndarray) -> np.ndarray:
        return self._cross(X) @ self.alpha

    def predict_variance_encoded(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        Ks = self._cross(X)
        mean = Ks @ self.alpha
        V = solve_triangular(self.L, Ks.T, lower=True, check_finite=False)
        var = self.params.signal_var - np.sum(V * V, axis=0)
        return mean, np.maximum(var, 0.0)

    def log_marginal_likelihood(self) -> float:
        n = self.X.shape[0]
        return float(
            -0.5 * (self.y @ self.alpha)
            - np.sum(np.log(np.diag(self.L)))
            - 0.5 * n * math.log(2.0 * math.pi)
        )


def _lml(dists, y, theta):
    """Log marginal likelihood at log-parameters ``theta``.

    ``theta`` is (log lengthscale, log signal_var, log noise_var).
    Returns (lml, terms), ``terms`` being what :func:`_lml_grad` needs,
    or (None, None) when the factorisation fails.
    """
    ell, sf2, sn2 = (math.exp(t) for t in theta)
    n = y.size
    u = _SQRT5 * dists / ell
    E = np.exp(-u)
    M = (1.0 + u + u * u / 3.0) * E
    K = sf2 * M
    K[np.diag_indices_from(K)] += sn2
    try:
        L = cholesky(K, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None, None
    alpha = cho_solve((L, True), y, check_finite=False)
    lml = -0.5 * (y @ alpha) - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2 * math.pi)
    return float(lml), (L, alpha, u, E, M, sf2, sn2)


def _lml_grad(terms):
    """Gradient of the log marginal likelihood w.r.t. the log-parameters.

    Forms the O(n^3) inverse ``K^-1``, so the search calls it only for
    starts and accepted steps.
    """
    L, alpha, u, E, M, sf2, sn2 = terms
    Kinv = cho_solve((L, True), np.eye(alpha.size), check_finite=False)
    A = np.outer(alpha, alpha) - Kinv
    # dK/dlog(ell) = sf2 * u^2 (1 + u) exp(-u) / 3
    dK_ell = sf2 * (u * u * (1.0 + u) / 3.0) * E
    return np.array(
        [
            0.5 * np.sum(A * dK_ell),
            0.5 * np.sum(A * (sf2 * M)),
            0.5 * np.trace(A) * sn2,
        ]
    )


def optimise_hyperparameters(
    dists: np.ndarray,
    y: np.ndarray,
    box_diagonal: float,
    init: MaternParams | None = None,
    multistarts: int = 8,
    steps: int = 200,
    seed: int = 0,
) -> MaternParams:
    """Multistart projected gradient ascent on the log marginal likelihood."""
    y = np.asarray(y, dtype=float)
    y_var = max(float(np.var(y)), 1e-12)
    lo = np.log([1e-3 * box_diagonal, 1e-8 * y_var, NOISE_FLOOR])
    hi = np.log([1e3 * box_diagonal, 1e8 * y_var, max(4.0 * y_var, 1e-6)])

    rng = make_rng(seed)
    starts = []
    if init is not None:
        starts.append(np.log([init.lengthscale, init.signal_var, init.noise_var]))
    starts.append(np.log([0.25 * box_diagonal, y_var, 1e-4 * y_var + NOISE_FLOOR]))
    while len(starts) < multistarts:
        starts.append(rng.uniform(lo, hi))

    best_theta, best_lml = None, -np.inf
    # A repeated start would retrace an ascent already run, so each runs once.
    for theta in dict.fromkeys(tuple(np.clip(start, lo, hi)) for start in starts):
        theta = np.array(theta)
        lml, terms = _lml(dists, y, theta)
        if lml is None:
            continue
        grad = _lml_grad(terms)
        step = 0.1
        for _ in range(steps):
            proposal = np.clip(theta + step * grad, lo, hi)
            new_lml, new_terms = _lml(dists, y, proposal)
            if new_lml is not None and new_lml > lml:
                theta, lml, grad = proposal, new_lml, _lml_grad(new_terms)
                step = min(step * 1.2, 0.5)
            else:
                step *= 0.5
                if step < 1e-6:
                    break
        if lml > best_lml:
            best_theta, best_lml = theta, lml
    if best_theta is None:
        raise FitError("hyperparameter search failed at every start")
    ell, sf2, sn2 = (math.exp(t) for t in best_theta)
    return MaternParams(ell, sf2, max(sn2, NOISE_FLOOR))


def _box_diagonal(space: SearchSpace) -> float:
    lower, upper = encoded_bounds(space)
    return float(np.linalg.norm(upper - lower))


def default_params(space: SearchSpace, y: Sequence[float]) -> MaternParams:
    y_var = max(float(np.var(np.asarray(y, dtype=float))), 1e-12)
    return MaternParams(0.25 * _box_diagonal(space), y_var, 1e-4 * y_var + NOISE_FLOOR)


def fit_gp(
    space: SearchSpace,
    X: np.ndarray,
    y: np.ndarray,
    params: MaternParams | None = None,
    optimise_hypers: bool = False,
    multistarts: int = 8,
    steps: int = 200,
    seed: int = 0,
) -> GaussianProcessModel:
    """Fit the GP on encoded rows ``X`` and targets ``y``.

    ``params`` (default: :func:`default_params`) are used as they are,
    or, with ``optimise_hypers``, as the warm start of the search.
    """
    if len(X) == 0:
        raise ValueError("fit needs at least one row")
    if params is None:
        params = default_params(space, y)
    if optimise_hypers:
        params = optimise_hyperparameters(
            _pairwise_dists(X, X), y, _box_diagonal(space), init=params,
            multistarts=multistarts, steps=steps, seed=seed,
        )
    return GaussianProcessModel(params, X, y)
