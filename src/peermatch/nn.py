"""Single-hidden-layer neural regressor, the drop-in alternative to the GP.

One tanh hidden layer, squared-error loss, full-batch gradient descent with
seeded initialization. Being a point predictor, it reports variance 0.

A fit allocates its weights, activations, residuals and gradients once and
runs every step in those buffers through ``out=`` ufuncs and ``np.matmul``.
Each step keeps the floating-point operations, and their order, of the plain
loop with one fresh array per expression (``H = np.tanh(X @ W1 + b1)``, ...,
``W1 -= lr * grad_W1``), so the weights and the final loss are bit for bit
that loop's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .gp import FitError, Prediction, check_types, training_arrays
from .writer import write_file


@dataclass(frozen=True)
class MlpConfig:
    """Network and training settings, checked when built."""

    hidden: int = 16
    learning_rate: float = 0.2
    iters: int = 6000
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(self, "MlpConfig", FitError)
        for name, low in (("hidden", 1), ("iters", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise FitError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.learning_rate > 0.0:
            raise FitError(f"learning_rate must be a finite positive real, got {self.learning_rate!r}")


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
        X, y = training_arrays(X, y, FitError)
        cfg = self.config
        n, d = X.shape
        h = cfg.hidden
        rng = np.random.default_rng(cfg.seed)
        # W1, b1 and w2 are views into one vector and their gradients into another,
        # so that an update is one multiply and one subtract. Each view starts an
        # even number of elements in, so it is as aligned as a fresh array.
        o1 = d * h + d * h % 2
        o2 = o1 + h + h % 2
        params, grads = np.zeros(o2 + h), np.zeros(o2 + h)
        W1, b1, w2 = params[:d * h].reshape(d, h), params[o1:o1 + h], params[o2:]
        g_W1, g_b1, g_w2 = grads[:d * h].reshape(d, h), grads[o1:o1 + h], grads[o2:]
        W1[...] = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, h))
        w2[...] = rng.normal(0.0, 1.0 / math.sqrt(h), size=h)
        b2 = 0.0
        lr = cfg.learning_rate
        scale = 2.0 / n
        H, dH, slope = np.empty((n, h)), np.empty((n, h)), np.empty((n, h))  # slope: 1 - H**2
        pred, resid, sq = np.empty(n), np.empty(n), np.empty(n)
        XT, HT, d_col = X.T, H.T, resid[:, None]
        # a diverging fit overflows before its loss turns non-finite; the loss check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.iters):
                np.matmul(X, W1, out=H)
                np.add(H, b1, out=H)
                np.tanh(H, out=H)
                np.matmul(H, w2, out=pred)
                np.add(pred, b2, out=pred)
                np.subtract(pred, y, out=resid)
                loss = float(np.add.reduce(np.square(resid, out=sq))) / n  # np.mean's sum, then its divide
                if not math.isfinite(loss):
                    raise FitError("training loss became non-finite")
                np.multiply(scale, resid, out=resid)  # resid now holds d(loss)/d(pred)
                np.matmul(HT, resid, out=g_w2)
                g_b2 = float(np.add.reduce(resid))
                np.multiply(d_col, w2, out=dH)
                np.square(H, out=slope)
                np.subtract(1.0, slope, out=slope)
                np.multiply(dH, slope, out=dH)
                np.matmul(XT, dH, out=g_W1)
                np.add.reduce(dH, axis=0, out=g_b1)
                params -= np.multiply(lr, grads, out=grads)
                b2 -= lr * g_b2
        return FittedMlp(W1=W1.copy(), b1=b1.copy(), w2=w2.copy(), b2=b2, final_loss=loss)
