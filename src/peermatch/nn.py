"""Single-hidden-layer neural regressor, the drop-in alternative to the GP.

One tanh hidden layer, squared-error loss, full-batch gradient descent with
seeded initialization. Being a point predictor, it reports variance 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .gp import FitError, Prediction
from .writer import write_file


@dataclass(frozen=True)
class MlpConfig:
    hidden: int = 16
    learning_rate: float = 0.2
    iters: int = 6000
    seed: int = 0


@dataclass(frozen=True, eq=False)
class FittedMlp:
    """Trained weights of the one-hidden-layer network and its last training loss."""

    W1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: float
    final_loss: float

    def predict(self, x: np.ndarray) -> Prediction:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.W1.shape[0],):
            raise ValueError(f"query has shape {x.shape}, expected ({self.W1.shape[0]},)")
        h = np.tanh(x @ self.W1 + self.b1)
        return Prediction(mean=float(h @ self.w2 + self.b2), variance=0.0)

    def save(self, path: str | Path) -> None:
        payload = {
            "format": "mlp-snapshot/1",
            "W1": self.W1.tolist(),
            "b1": self.b1.tolist(),
            "w2": self.w2.tolist(),
            "b2": self.b2,
            "final_loss": self.final_loss,
        }
        write_file(path, json.dumps(payload))


class MlpRegressor:
    def __init__(self, config: MlpConfig = MlpConfig()):
        self.config = config

    @one_blas_thread()
    def fit(self, X: np.ndarray, y: np.ndarray) -> FittedMlp:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise FitError(f"X must be non-empty 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise FitError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        n, d = X.shape
        rng = np.random.default_rng(self.config.seed)
        W1 = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, self.config.hidden))
        b1 = np.zeros(self.config.hidden)
        w2 = rng.normal(0.0, 1.0 / math.sqrt(self.config.hidden), size=self.config.hidden)
        b2 = 0.0
        lr = self.config.learning_rate
        loss = math.inf
        for _ in range(self.config.iters):
            H = np.tanh(X @ W1 + b1)
            pred = H @ w2 + b2
            resid = pred - y
            with np.errstate(over="ignore", invalid="ignore"):
                loss = float(np.mean(resid**2))
            if not math.isfinite(loss):
                raise FitError("training loss became non-finite")
            d_pred = (2.0 / n) * resid
            grad_w2 = H.T @ d_pred
            grad_b2 = float(d_pred.sum())
            dH = np.outer(d_pred, w2) * (1.0 - H**2)
            grad_W1 = X.T @ dH
            grad_b1 = dH.sum(axis=0)
            W1 -= lr * grad_W1
            b1 -= lr * grad_b1
            w2 -= lr * grad_w2
            b2 -= lr * grad_b2
        return FittedMlp(W1=W1, b1=b1, w2=w2, b2=b2, final_loss=loss)
