"""Radial basis function network (Broomhead & Lowe)."""

from __future__ import annotations

import numpy as np

from repro.models.base import Model
from repro.models.gaussian_process import rbf_kernel


def _kmeans_centers(
    X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 25
) -> np.ndarray:
    """Lightweight k-means used only to place RBF centers."""
    n = X.shape[0]
    centers = X[rng.choice(n, size=k, replace=False)].copy()
    for _ in range(iters):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        assign = d2.argmin(axis=1)
        moved = False
        for j in range(k):
            members = X[assign == j]
            if len(members):
                new_center = members.mean(axis=0)
                if not np.allclose(new_center, centers[j]):
                    centers[j] = new_center
                    moved = True
        if not moved:
            break
    return centers


class RBFNetwork(Model):
    """RBF network (WEKA ``RBFNetwork``): k-means centers + ridge output layer."""

    def __init__(self, n_centers: int = 10, ridge: float = 1e-3, seed: int = 5) -> None:
        super().__init__()
        self.n_centers = n_centers
        self.ridge = ridge
        self.seed = seed
        self._centers: np.ndarray | None = None
        self._width = 1.0
        self._coef: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        k = min(self.n_centers, X.shape[0])
        self._centers = _kmeans_centers(X, k, rng)
        # Width = average inter-center distance (classic heuristic); 1.0
        # when no two centers differ — a recurring workflow re-runs on the
        # same inputs, so every sample of its pair can be the same point.
        d2 = ((self._centers[:, None, :] - self._centers[None, :, :]) ** 2).sum(-1)
        apart = d2[d2 > 0]
        self._width = float(np.sqrt(apart.mean())) if apart.size else 1.0
        Phi = rbf_kernel(X, self._centers, self._width)
        Phi = np.hstack([Phi, np.ones((Phi.shape[0], 1))])
        A = Phi.T @ Phi + self.ridge * np.eye(Phi.shape[1])
        self._coef = np.linalg.solve(A, Phi.T @ y)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        Phi = rbf_kernel(X, self._centers, self._width)
        Phi = np.hstack([Phi, np.ones((Phi.shape[0], 1))])
        return Phi @ self._coef
