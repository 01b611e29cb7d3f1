"""Cross-validation and model selection.

The paper keeps "the model that best fits the available data" via k-fold
cross-validation (D3.3 §2.2.1, citing Kohavi 1995).  :func:`select_best_model`
scores every candidate in the zoo and returns the winner fitted on all data.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.models.base import Model, as_1d, as_2d
from repro.models.discretize import RegressionByDiscretization
from repro.models.ensemble import Bagging, RandomSubspace
from repro.models.gaussian_process import GaussianProcess
from repro.models.linear import LeastMedianSquares, LinearRegression
from repro.models.mlp import MultilayerPerceptron
from repro.models.rbf import RBFNetwork


def rmse(y_true, y_pred) -> float:
    """Root mean squared error."""
    y_true = as_1d(y_true)
    y_pred = as_1d(y_pred)
    return float(np.sqrt(np.mean((y_true - y_pred) ** 2)))


class KFold:
    """Shuffled k-fold splitter over ``n`` samples."""

    def __init__(self, n_splits: int = 5, seed: int = 23) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.seed = seed

    def split(self, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) per fold."""
        if n < self.n_splits:
            raise ValueError(f"cannot split {n} samples into {self.n_splits} folds")
        rng = np.random.default_rng(self.seed)
        order = rng.permutation(n)
        folds = np.array_split(order, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


Folds = list[tuple[np.ndarray, np.ndarray]]


def cv_folds(n: int, n_splits: int = 5, seed: int = 23) -> Folds:
    """The (train, test) index pairs :func:`cross_val_score` scores on.

    Small sample sets get fewer folds, so every test fold holds >= 2 rows.
    """
    return list(KFold(n_splits=min(n_splits, max(2, n // 2)), seed=seed).split(n))


def cross_val_score(
    model_factory: Callable[[], Model],
    X,
    y,
    n_splits: int = 5,
    seed: int = 23,
    folds: Folds | None = None,
) -> float:
    """Mean RMSE of a model class across k folds (lower is better).

    ``folds`` (from :func:`cv_folds`) lets a caller scoring several models
    on the same data build the split once.
    """
    X = as_2d(X)
    y = as_1d(y)
    if folds is None:
        folds = cv_folds(len(y), n_splits, seed)
    scores = []
    for train, test in folds:
        model = model_factory()
        model.fit(X[train], y[train])
        scores.append(rmse(y[test], model.predict(X[test])))
    return float(np.mean(scores))


def default_model_zoo() -> dict[str, Callable[[], Model]]:
    """Factories for every approximation technique the paper lists."""
    return {
        "GaussianProcess": GaussianProcess,
        "MultilayerPerceptron": lambda: MultilayerPerceptron(epochs=150),
        "LinearRegression": LinearRegression,
        "LeastMedianSquares": LeastMedianSquares,
        "Bagging": Bagging,
        "RandomSubspace": RandomSubspace,
        "RegressionByDiscretization": RegressionByDiscretization,
        "RBFNetwork": RBFNetwork,
    }


def fast_model_zoo() -> dict[str, Callable[[], Model]]:
    """Cheaper configurations of the same techniques, for frequent retraining.

    Online refinement retrains after (batches of) executions; this zoo trades
    a little accuracy for an order of magnitude less fitting time.
    """
    return {
        "GaussianProcess": GaussianProcess,
        "MultilayerPerceptron": lambda: MultilayerPerceptron(
            hidden=(16,), epochs=60, batch_size=64
        ),
        "LinearRegression": LinearRegression,
        "LeastMedianSquares": lambda: LeastMedianSquares(n_trials=60),
        "Bagging": lambda: Bagging(n_estimators=8, max_depth=6),
        "RBFNetwork": RBFNetwork,
    }


def select_best_model(
    X,
    y,
    zoo: dict[str, Callable[[], Model]] | None = None,
    n_splits: int = 5,
    seed: int = 23,
) -> tuple[Model, str, dict[str, float]]:
    """Cross-validate every candidate model and fit the winner on all data.

    Returns ``(fitted_model, winner_name, {name: cv_rmse})``.  With fewer
    than four samples CV is meaningless, so the linear baseline is used.
    """
    X = as_2d(X)
    y = as_1d(y)
    if zoo is None:
        zoo = default_model_zoo()
    if len(y) < 4:
        model = LinearRegression().fit(X, y)
        return model, "LinearRegression", {}
    folds = cv_folds(len(y), n_splits, seed)
    scores: dict[str, float] = {}
    for name, factory in zoo.items():
        try:
            score = cross_val_score(factory, X, y, folds=folds)
        except (np.linalg.LinAlgError, ValueError):
            score = float("inf")
        # a model that cannot be scored (NaN included) never wins, wherever
        # it sits in the zoo: min() would keep a NaN it met first
        scores[name] = score if np.isfinite(score) else float("inf")
    winner = min(scores, key=scores.get)
    model = zoo[winner]().fit(X, y)
    return model, winner, scores
