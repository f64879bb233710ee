"""Gradient-boosted regression trees on squared error."""

import numpy as np
import pytest

from sbobench.core import SearchSpace, VariableSpec, make_rng, sample_uniform
from sbobench.surrogates import fit_boosted, mae
from sbobench.surrogates.encoding import encode_points


@pytest.fixture
def interval():
    return SearchSpace((VariableSpec("x", "continuous", lower=0.0, upper=1.0),))


def _dataset(space, n, seed, fn):
    rng = make_rng(seed)
    pts = [sample_uniform(space, rng) for _ in range(n)]
    X = encode_points(space, pts)
    return pts, X, fn(X)


def test_zero_rounds_predicts_mean(interval):
    _, X, y = _dataset(interval, 20, 0, lambda X: 3.0 * X[:, 0] - 1.0)
    model = fit_boosted(interval, X, y, n_rounds=0)
    pred = model.predict_encoded(X)
    np.testing.assert_allclose(pred, y.mean(), atol=1e-12)


def test_training_loss_never_increases(interval):
    _, X, y = _dataset(interval, 60, 1, lambda X: np.sin(8 * X[:, 0]) + 0.3 * X[:, 0])
    model = fit_boosted(interval, X, y, n_rounds=100, learning_rate=0.3, max_depth=6)
    losses = np.asarray(model.train_losses)
    assert len(losses) == 101  # round 0 is the mean-only model
    assert np.all(np.diff(losses) <= 1e-12)


def test_loss_sequence_matches_refit_predictions(interval):
    # train_losses[k] must equal the MSE of the first-k-rounds model.
    _, X, y = _dataset(interval, 30, 2, lambda X: X[:, 0] ** 2)
    full = fit_boosted(interval, X, y, n_rounds=25, learning_rate=0.3, max_depth=3)
    for k in (0, 5, 25):
        sub = fit_boosted(interval, X, y, n_rounds=k, learning_rate=0.3, max_depth=3)
        mse = float(np.mean((sub.predict_encoded(X) - y) ** 2))
        assert abs(full.train_losses[k] - mse) < 1e-10


def test_stumps_fit_step_function(interval):
    _, X, y = _dataset(interval, 200, 3, lambda X: (X[:, 0] > 0.4).astype(float))
    model = fit_boosted(interval, X, y, n_rounds=100, learning_rate=0.3, max_depth=1)
    assert mae(model, X, y) < 0.05


def test_deep_rounds_drive_training_error_down(interval):
    _, X, y = _dataset(interval, 80, 4, lambda X: np.sin(10 * X[:, 0]))
    model = fit_boosted(interval, X, y, n_rounds=100, learning_rate=0.3, max_depth=6)
    assert mae(model, X, y) < 1e-3


def test_learning_rate_validation(interval):
    _, X, y = _dataset(interval, 10, 5, lambda X: X[:, 0])
    with pytest.raises(ValueError):
        fit_boosted(interval, X, y, learning_rate=0.0)
    with pytest.raises(ValueError):
        fit_boosted(interval, X, y, learning_rate=1.5)
    with pytest.raises(ValueError):
        fit_boosted(interval, X, y, n_rounds=-1)
    with pytest.raises(ValueError):
        fit_boosted(interval, X[:1], y[:1])


def test_mae_helper_oracle(interval):
    # mae() against a hand-rolled loop on a model with known outputs.
    _, X, y = _dataset(interval, 15, 7, lambda X: 2.0 * X[:, 0])
    model = fit_boosted(interval, X, y, n_rounds=0)  # predicts the mean
    expected = float(np.mean(np.abs(y.mean() - y)))
    assert abs(mae(model, X, y) - expected) < 1e-12
