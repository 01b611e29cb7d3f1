"""Unit tests for the regression model zoo (repro.models)."""

import numpy as np
import pytest

from repro.models import (
    Bagging,
    GaussianProcess,
    KFold,
    LeastMedianSquares,
    LinearRegression,
    MultilayerPerceptron,
    RBFNetwork,
    RandomSubspace,
    RegressionByDiscretization,
    RegressionTree,
    UserFunction,
    cross_val_score,
    default_model_zoo,
    rmse,
    select_best_model,
)
from repro.models.base import NotFittedError

RNG = np.random.default_rng(1234)

ALL_MODELS = [
    LinearRegression,
    LeastMedianSquares,
    GaussianProcess,
    lambda: MultilayerPerceptron(epochs=120),
    RBFNetwork,
    RegressionTree,
    Bagging,
    RandomSubspace,
    RegressionByDiscretization,
]


def linear_data(n=60, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5, 5, size=(n, 3))
    y = 2.0 * X[:, 0] - 1.5 * X[:, 1] + 0.3 * X[:, 2] + 4.0
    return X, y + rng.normal(0, noise, n)


def nonlinear_data(n=120, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 4, size=(n, 2))
    y = np.sin(X[:, 0]) * 3 + X[:, 1] ** 2
    return X, y


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_fit_predict_shapes(factory):
    X, y = linear_data()
    model = factory().fit(X, y)
    preds = model.predict(X)
    assert preds.shape == (len(y),)
    assert np.all(np.isfinite(preds))


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_predict_before_fit_raises(factory):
    with pytest.raises(NotFittedError):
        factory().predict([[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_feature_count_mismatch_raises(factory):
    X, y = linear_data()
    model = factory().fit(X, y)
    with pytest.raises(ValueError):
        model.predict(np.ones((4, 5)))


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_training_fit_is_reasonable(factory):
    """Every model should beat the constant-mean predictor on its train set."""
    X, y = nonlinear_data()
    model = factory().fit(X, y)
    baseline = rmse(y, np.full_like(y, y.mean()))
    assert rmse(y, model.predict(X)) < baseline


def test_sample_count_mismatch_raises():
    with pytest.raises(ValueError):
        LinearRegression().fit(np.ones((5, 2)), np.ones(4))


def test_zero_samples_raises():
    with pytest.raises(ValueError):
        LinearRegression().fit(np.empty((0, 2)), np.empty(0))


def test_linear_regression_recovers_coefficients():
    X, y = linear_data(noise=0.0)
    model = LinearRegression().fit(X, y)
    np.testing.assert_allclose(model.coef_[:3], [2.0, -1.5, 0.3], atol=1e-8)
    assert model.coef_[3] == pytest.approx(4.0, abs=1e-8)


def test_lms_robust_to_outliers():
    """LMS should ignore gross outliers that wreck plain OLS."""
    X, y = linear_data(n=100, noise=0.05, seed=3)
    y_corrupt = y.copy()
    y_corrupt[::5] += 500.0  # 20% gross outliers
    clean_grid = np.random.default_rng(9).uniform(-5, 5, size=(50, 3))
    truth = 2.0 * clean_grid[:, 0] - 1.5 * clean_grid[:, 1] + 0.3 * clean_grid[:, 2] + 4.0
    ols_err = rmse(truth, LinearRegression().fit(X, y_corrupt).predict(clean_grid))
    lms_err = rmse(truth, LeastMedianSquares().fit(X, y_corrupt).predict(clean_grid))
    assert lms_err < ols_err / 5


def test_gp_interpolates_training_points():
    X = np.linspace(0, 10, 25).reshape(-1, 1)
    y = np.sin(X.ravel())
    model = GaussianProcess(noise=1e-6).fit(X, y)
    assert rmse(y, model.predict(X)) < 0.05


def test_mlp_learns_nonlinear_function():
    X, y = nonlinear_data(n=200)
    model = MultilayerPerceptron(epochs=300, seed=2).fit(X, y)
    assert rmse(y, model.predict(X)) < 0.5


def test_rbf_network_centers_bounded_by_samples():
    X, y = linear_data(n=6)
    model = RBFNetwork(n_centers=50).fit(X, y)
    assert model._centers.shape[0] <= 6


def test_tree_respects_max_depth():
    X, y = nonlinear_data(n=300)
    tree = RegressionTree(max_depth=3).fit(X, y)
    assert tree.depth() <= 3


def test_tree_perfectly_fits_constant_target():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    y = np.full(20, 7.0)
    tree = RegressionTree().fit(X, y)
    np.testing.assert_allclose(tree.predict(X), 7.0)


def test_bagging_reduces_variance_vs_single_tree():
    X, y = nonlinear_data(n=150, seed=5)
    rng = np.random.default_rng(6)
    X_test = rng.uniform(0, 4, size=(100, 2))
    y_test = np.sin(X_test[:, 0]) * 3 + X_test[:, 1] ** 2
    tree_err = rmse(y_test, RegressionTree(max_depth=10).fit(X, y).predict(X_test))
    bag_err = rmse(y_test, Bagging(n_estimators=25, max_depth=10).fit(X, y).predict(X_test))
    assert bag_err <= tree_err * 1.1


def test_random_subspace_uses_feature_subsets():
    X, y = linear_data(n=80)
    model = RandomSubspace(n_estimators=10, subspace_fraction=0.5).fit(X, y)
    sizes = {len(f) for f in model._subspaces}
    assert sizes == {2}  # round(0.5 * 3) == 2


def test_random_subspace_rejects_bad_fraction():
    with pytest.raises(ValueError):
        RandomSubspace(subspace_fraction=0.0)


def test_discretization_outputs_bin_means():
    X, y = linear_data(n=100)
    model = RegressionByDiscretization(n_bins=5).fit(X, y)
    preds = set(np.round(model.predict(X), 9))
    assert preds <= set(np.round(model._bin_means, 9))
    assert len(model._bin_means) <= 5


def test_user_function_wraps_closed_form():
    model = UserFunction(lambda row: 2.0 * row[0] + 1.0)
    np.testing.assert_allclose(model.predict([[1.0], [2.0]]), [3.0, 5.0])


def test_predict_one_returns_scalar():
    X, y = linear_data()
    model = LinearRegression().fit(X, y)
    value = model.predict_one([1.0, 1.0, 1.0])
    assert isinstance(value, float)


def test_1d_input_promoted_to_column():
    X = np.linspace(0, 1, 30)
    y = 2 * X
    model = LinearRegression().fit(X, y)
    assert model.n_features_ == 1


# -- cross-validation machinery -------------------------------------------


def test_kfold_partitions_all_indices():
    kf = KFold(n_splits=4, seed=0)
    seen = []
    for train, test in kf.split(23):
        assert set(train) & set(test) == set()
        seen.extend(test)
    assert sorted(seen) == list(range(23))


def test_kfold_rejects_single_split():
    with pytest.raises(ValueError):
        KFold(n_splits=1)


def test_kfold_rejects_too_few_samples():
    with pytest.raises(ValueError):
        list(KFold(n_splits=5).split(3))


def test_cross_val_score_positive():
    X, y = linear_data()
    score = cross_val_score(LinearRegression, X, y)
    assert score >= 0


def test_select_best_model_prefers_linear_on_linear_data():
    X, y = linear_data(n=100, noise=0.01)
    _, winner, scores = select_best_model(X, y)
    assert scores[winner] == min(scores.values())
    # On exactly-linear data the linear fits must be near the top.
    assert scores["LinearRegression"] < np.median(list(scores.values()))


def test_select_best_model_tiny_dataset_falls_back():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model, winner, scores = select_best_model(X, y)
    assert winner == "LinearRegression"
    assert scores == {}


def test_identical_feature_rows_score_finite_for_every_model():
    """A recurring workflow re-runs on the same inputs: a pair's feature rows
    coincide, and RBFNetwork's width used to be the mean of nothing."""
    import warnings

    X = np.tile([[11.5, 4.6, 2.2, 1.6]], (6, 1))
    y = np.array([2.30, 2.31, 2.29, 2.33, 2.30, 2.32])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, winner, scores = select_best_model(X, y)
    assert set(scores) == set(default_model_zoo())
    assert all(np.isfinite(score) for score in scores.values()), scores
    assert scores[winner] == min(scores.values())


def test_a_model_scoring_nan_never_wins_wherever_it_sits_in_the_zoo():
    class Undefined(LinearRegression):
        def _predict(self, X):
            return np.full(X.shape[0], np.nan)

    X, y = linear_data(n=20)
    for zoo in ({"Undefined": Undefined, "LinearRegression": LinearRegression},
                {"LinearRegression": LinearRegression, "Undefined": Undefined}):
        _, winner, scores = select_best_model(X, y, zoo=zoo)
        assert winner == "LinearRegression"
        assert scores["Undefined"] == float("inf")


def test_select_best_model_builds_its_folds_once(monkeypatch):
    from repro.models import validation

    splits = []
    original = validation.KFold.split

    def counting(self, n):
        splits.append(n)
        return original(self, n)

    monkeypatch.setattr(validation.KFold, "split", counting)
    X, y = linear_data(n=20)
    zoo = {"a": LinearRegression, "b": LinearRegression, "c": RegressionTree}
    _, _, scores = select_best_model(X, y, zoo=zoo)
    assert splits == [20]
    assert scores["a"] == scores["b"] == cross_val_score(LinearRegression, X, y)


class PerLayerAdamMLP(MultilayerPerceptron):
    """The reference: one Adam update per layer and per weights/biases, the
    way the network was trained before its parameters shared one vector."""

    def _fit(self, X, y):
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        sizes = [X.shape[1], *self.hidden, 1]
        self._weights, self._biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))
        m_w = [np.zeros_like(W) for W in self._weights]
        v_w = [np.zeros_like(W) for W in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        batch = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                out, acts = self._forward(X[idx])
                delta = (out.ravel() - y[idx]).reshape(-1, 1) * (2.0 / len(idx))
                grads_w = [None] * len(self._weights)
                grads_b = [None] * len(self._biases)
                for layer in range(len(self._weights) - 1, -1, -1):
                    grads_w[layer] = (acts[layer].T @ delta
                                      + self.l2 * self._weights[layer])
                    grads_b[layer] = delta.sum(axis=0)
                    if layer > 0:
                        delta = (delta @ self._weights[layer].T) * (1 - acts[layer] ** 2)
                step += 1
                for layer in range(len(self._weights)):
                    for params, grads, ms, vs in (
                        (self._weights, grads_w, m_w, v_w),
                        (self._biases, grads_b, m_b, v_b),
                    ):
                        ms[layer] = beta1 * ms[layer] + (1 - beta1) * grads[layer]
                        vs[layer] = beta2 * vs[layer] + (1 - beta2) * grads[layer] ** 2
                        m_hat = ms[layer] / (1 - beta1**step)
                        v_hat = vs[layer] / (1 - beta2**step)
                        params[layer] -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


@pytest.mark.parametrize("n", [5, 9, 40])
@pytest.mark.parametrize("config", [
    dict(epochs=40), dict(hidden=(16,), epochs=30, batch_size=64),
    dict(epochs=15, batch_size=7)])
def test_mlp_one_vector_training_equals_per_layer_training(n, config):
    """The arithmetic is unchanged, so the predictions are equal, not close."""
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, 4))
    y = X.sum(axis=1) + rng.normal(size=n) * 0.1
    probe = rng.normal(size=(13, 4))
    assert np.array_equal(
        MultilayerPerceptron(**config).fit(X, y).predict(probe),
        PerLayerAdamMLP(**config).fit(X, y).predict(probe))


def test_default_zoo_has_all_paper_models():
    names = set(default_model_zoo())
    assert names == {
        "GaussianProcess",
        "MultilayerPerceptron",
        "LinearRegression",
        "LeastMedianSquares",
        "Bagging",
        "RandomSubspace",
        "RegressionByDiscretization",
        "RBFNetwork",
    }
