"""Independent reference implementations used only to check the library.

These deliberately take the naive route: dense matrix inverses and
determinants for the GP quantities, central finite differences for the
gradient, and a full double-loop dominance scan for the Pareto front.
"""

from __future__ import annotations

import numpy as np

from peermatch.gp import KernelParams
from peermatch.pareto import ScoreVector, dominates


def dense_covariance(X: np.ndarray, p: KernelParams) -> np.ndarray:
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d2 = float(np.sum((X[i] - X[j]) ** 2))
            K[i, j] = p.signal_variance * np.exp(-d2 / (2.0 * p.lengthscale**2))
            if i == j:
                K[i, j] = p.signal_variance + p.noise_variance
    return K


def dense_mll(X: np.ndarray, y: np.ndarray, p: KernelParams) -> float:
    K = dense_covariance(X, p)
    K_inv = np.linalg.inv(K)
    _, logdet = np.linalg.slogdet(K)
    n = y.shape[0]
    return float(-0.5 * y @ K_inv @ y - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi))


def dense_predict(X: np.ndarray, y: np.ndarray, p: KernelParams, x_star: np.ndarray) -> tuple[float, float]:
    K_inv = np.linalg.inv(dense_covariance(X, p))
    k_star = np.array(
        [p.signal_variance * np.exp(-float(np.sum((x_star - xi) ** 2)) / (2.0 * p.lengthscale**2)) for xi in X]
    )
    mean = float(k_star @ K_inv @ y)
    variance = float(p.signal_variance - k_star @ K_inv @ k_star + p.noise_variance)
    return mean, variance


def dense_mll_gradient(X: np.ndarray, y: np.ndarray, p: KernelParams, jitter: float = 0.0) -> np.ndarray:
    """GPML eq. 5.9 over (log sf2, log lengthscale, log sn2), through a dense inverse.

    ``jitter`` is added to the diagonal of K before inverting, as the
    library's factorization does, and does not enter dK/dtheta.
    """
    n = X.shape[0]
    K = dense_covariance(X, p)
    noise_free = K - p.noise_variance * np.eye(n)
    D2 = np.array([[float(np.sum((X[i] - X[j]) ** 2)) for j in range(n)] for i in range(n)])
    K_inv = np.linalg.inv(K + jitter * np.eye(n))
    alpha = K_inv @ y
    W = np.outer(alpha, alpha) - K_inv
    derivatives = (noise_free, noise_free * D2 / p.lengthscale**2, p.noise_variance * np.eye(n))
    return np.array([0.5 * np.trace(W @ dK) for dK in derivatives])


def finite_difference_gradient(X: np.ndarray, y: np.ndarray, p: KernelParams, h: float = 1e-5) -> np.ndarray:
    theta = p.log_vector()
    grad = np.zeros(3)
    for j in range(3):
        plus, minus = theta.copy(), theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (
            dense_mll(X, y, KernelParams.from_log_vector(plus))
            - dense_mll(X, y, KernelParams.from_log_vector(minus))
        ) / (2.0 * h)
    return grad


def brute_force_front(candidates: list[ScoreVector], anchor: str) -> set[str]:
    pool = [c for c in candidates if c.learner_id != anchor]
    keep = set()
    for c in pool:
        if not any(dominates(other, c) for other in pool if other is not c):
            keep.add(c.learner_id)
    return keep
