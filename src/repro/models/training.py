"""A small numpy MLP regressor + Adam optimiser.

Used to train the Ithemal-style learned throughput predictor on
measured data.  Deterministic given a seed; no external ML framework
(the offline environment ships only numpy/scipy).

The parameters live in one flat vector θ = [W1 | b1 | W2 | b2], and
the weight matrices and biases are reshaped views of it.  Backward
writes the four gradients into views of one flat gradient vector, and
Adam keeps one ``m`` and one ``v`` and steps all of θ at once.  The
training sets are tiny (an epoch is often a single batch), so a step
costs numpy call overhead, not arithmetic; Adam's operations are
elementwise, so one update over the concatenation gives every element
the bits four per-parameter updates would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


@dataclass
class TrainingConfig:
    hidden: int = 64
    epochs: int = 500
    batch_size: int = 64
    learning_rate: float = 2e-3
    weight_decay: float = 5e-4
    seed: int = 0


@dataclass
class _Standardizer:
    mean: np.ndarray = field(default_factory=lambda: np.zeros(1))
    std: np.ndarray = field(default_factory=lambda: np.ones(1))

    def fit(self, x: np.ndarray) -> None:
        self.mean = x.mean(axis=0)
        self.std = x.std(axis=0)
        self.std[self.std < 1e-9] = 1.0

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


def _unflatten(flat: np.ndarray, d: int, h: int) -> tuple:
    """(W1 (d,h), b1 (h,), W2 (h,1), b2 (1,)) as views of ``flat``."""
    w2_at = d * h + h
    return (flat[:d * h].reshape(d, h), flat[d * h:w2_at],
            flat[w2_at:w2_at + h].reshape(h, 1), flat[w2_at + h:])


class MlpRegressor:
    """Two-layer MLP: standardize → ReLU hidden → linear output."""

    def __init__(self, config: Optional[TrainingConfig] = None):
        self.config = config if config is not None else TrainingConfig()
        self._scaler = _Standardizer()
        self._w1: Optional[np.ndarray] = None
        self._losses: List[float] = []

    @property
    def is_fitted(self) -> bool:
        return self._w1 is not None

    @property
    def training_losses(self) -> List[float]:
        return list(self._losses)

    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MlpRegressor":
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._scaler.fit(x)
        xs = self._scaler.transform(x)
        n, d = xs.shape
        h = cfg.hidden
        # θ = [W1 | b1 | W2 | b2]; the four parameters and their
        # gradients are views into one flat vector each.
        theta = np.zeros(d * h + h + h + 1)
        grad = np.empty_like(theta)
        w1, b1, w2, b2 = self._w1, self._b1, self._w2, self._b2 = \
            _unflatten(theta, d, h)
        g_w1, g_b1, g_w2, g_b2 = _unflatten(grad, d, h)
        w1[...] = rng.normal(0, np.sqrt(2.0 / d), size=(d, h))
        w2[...] = rng.normal(0, np.sqrt(1.0 / h), size=(h, 1))

        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        wd = cfg.weight_decay
        step = 0
        target = y.reshape(-1, 1)
        self._losses = []
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb, yb = xs[idx], target[idx]
                # Forward.
                z1 = xb @ w1 + b1
                a1 = np.maximum(z1, 0.0)
                out = a1 @ w2 + b2
                err = out - yb
                epoch_loss += float((err ** 2).sum())
                # Backward, into the views of ``grad``.
                g_out = 2.0 * err / len(idx)
                np.add(a1.T @ g_out, wd * w2, out=g_w2)
                g_out.sum(axis=0, out=g_b2)
                g_z1 = (g_out @ w2.T) * (z1 > 0)
                np.add(xb.T @ g_z1, wd * w1, out=g_w1)
                g_z1.sum(axis=0, out=g_b1)
                # One Adam step over θ: elementwise, so each element
                # gets the bits a per-parameter update would give it.
                step += 1
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad * grad
                m_hat = m / (1 - beta1 ** step)
                v_hat = v / (1 - beta2 ** step)
                theta -= cfg.learning_rate * m_hat \
                    / (np.sqrt(v_hat) + eps)
            self._losses.append(epoch_loss / n)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self.is_fitted:
            raise RuntimeError("model is not fitted")
        xs = self._scaler.transform(np.atleast_2d(x))
        a1 = np.maximum(xs @ self._w1 + self._b1, 0.0)
        return (a1 @ self._w2 + self._b2).ravel()
