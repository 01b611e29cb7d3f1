"""Multilayer perceptron regressor trained with Adam (numpy backprop)."""

from __future__ import annotations

import numpy as np

from repro.models.base import Model


class MultilayerPerceptron(Model):
    """Feed-forward network (WEKA ``MultilayerPerceptron``): tanh hidden layers.

    A small fully-connected network trained by mini-batch Adam on the
    standardized profiling samples.  Sized for the small, low-dimensional
    datasets the IReS profiler produces.
    """

    def __init__(
        self,
        hidden: tuple[int, ...] = (32, 16),
        epochs: int = 400,
        lr: float = 0.01,
        batch_size: int = 32,
        l2: float = 1e-4,
        seed: int = 11,
    ) -> None:
        super().__init__()
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.lr = lr
        self.batch_size = batch_size
        self.l2 = l2
        self.seed = seed
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []

    def _init_params(self, n_in: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the initial weights; returns the flat parameter vector.

        Every layer's weights and biases live in one vector and
        ``_weights`` / ``_biases`` are views into it, so an optimizer step
        updates the whole network with one set of array operations.
        """
        sizes = [n_in, *self.hidden, 1]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        theta = np.zeros(sum(i * o + o for i, o in shapes))
        self._weights, self._biases = self._views(theta, shapes)
        for W, (fan_in, fan_out) in zip(self._weights, shapes):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        return theta

    @staticmethod
    def _views(
        flat: np.ndarray, shapes: list[tuple[int, int]]
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into one flat vector."""
        weights, biases = [], []
        at = 0
        for fan_in, fan_out in shapes:
            weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
            at += fan_in * fan_out
            biases.append(flat[at : at + fan_out])
            at += fan_out
        return weights, biases

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        activations = [X]
        h = X
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ W + b
            h = z if i == len(self._weights) - 1 else np.tanh(z)
            activations.append(h)
        return h, activations

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        theta = self._init_params(X.shape[1], rng)
        grad = np.zeros_like(theta)
        grads_w, grads_b = self._views(grad, [W.shape for W in self._weights])
        # Adam state.
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        batch = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                xb, yb = X[idx], y[idx]
                out, acts = self._forward(xb)
                delta = (out.ravel() - yb).reshape(-1, 1) * (2.0 / len(idx))
                for layer in range(len(self._weights) - 1, -1, -1):
                    a_prev = acts[layer]
                    grads_w[layer][...] = a_prev.T @ delta + self.l2 * self._weights[layer]
                    grads_b[layer][...] = delta.sum(axis=0)
                    if layer > 0:
                        delta = (delta @ self._weights[layer].T) * (1 - acts[layer] ** 2)
                step += 1
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad**2
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                theta -= self.lr * m_hat / (np.sqrt(v_hat) + eps)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out, _ = self._forward(X)
        return out.ravel()
