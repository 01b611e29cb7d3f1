"""Regression model zoo used by the IReS profiler/modeler.

The paper delegates operator performance modeling to WEKA and lists the
approximation techniques it uses (D3.3 §2.2.1).  This package provides
from-scratch numpy implementations of each of them:

- :class:`GaussianProcess` — GP regression with an RBF kernel.
- :class:`MultilayerPerceptron` — a feed-forward neural network.
- :class:`LeastMedianSquares` — robust linear regression (Rousseeuw).
- :class:`Bagging` — bootstrap-aggregated regression trees (Breiman).
- :class:`RandomSubspace` — trees over random feature subsets (Ho).
- :class:`RegressionByDiscretization` — classify into y-bins, predict means.
- :class:`RBFNetwork` — radial basis function network (Broomhead & Lowe).

Plus the plain :class:`LinearRegression` baseline and the cross-validation
machinery (:func:`cross_val_score`, :func:`select_best_model`) the paper uses
to "maintain the model that best fits the available data".
"""

from repro.models.base import Model, UserFunction
from repro.models.linear import LeastMedianSquares, LinearRegression
from repro.models.gaussian_process import GaussianProcess
from repro.models.mlp import MultilayerPerceptron
from repro.models.rbf import RBFNetwork
from repro.models.tree import RegressionTree
from repro.models.ensemble import Bagging, RandomSubspace
from repro.models.discretize import RegressionByDiscretization
from repro.models.validation import (
    KFold,
    cross_val_score,
    cv_folds,
    default_model_zoo,
    fast_model_zoo,
    rmse,
    select_best_model,
)

__all__ = [
    "Model",
    "UserFunction",
    "LinearRegression",
    "LeastMedianSquares",
    "GaussianProcess",
    "MultilayerPerceptron",
    "RBFNetwork",
    "RegressionTree",
    "Bagging",
    "RandomSubspace",
    "RegressionByDiscretization",
    "KFold",
    "cross_val_score",
    "cv_folds",
    "default_model_zoo",
    "fast_model_zoo",
    "rmse",
    "select_best_model",
]
