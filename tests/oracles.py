"""Independent reference implementations used only to check the library.

These deliberately take the naive route: dense matrix inverses and
determinants for the GP quantities, central finite differences for the
gradient, and a full double-loop dominance scan for the Pareto front.
``reference_mlp_fit`` and ``reference_objective`` are the plain-expression
forms of the NN step loop and the GP ascent's objective and gradient, one
temporary per operation, ``reference_factor`` climbs the jitter ladder with
``np.linalg.cholesky`` on a fresh copy per rung, and ``reference_embed``
hashes every n-gram into a NumPy vector with no memo, and
``reference_mock_answer`` applies the mock backend's answer rule with the
clamp and the wrong labels computed afresh on every call; the library's
versions must match them bit for bit. ``covariance_matrix`` is the one
exception: it builds the library's own noisy covariance, bits included, for
tests that need it as a matrix. ``front_ids`` reads a front's member ids.
"""

from __future__ import annotations

import math

import numpy as np

from peermatch import gp
from peermatch.backends import mock_correct_label
from peermatch.blas import cho_solve, dpotri, one_blas_thread
from peermatch.gp import JITTER_LADDER, FitError, KernelParams, SingularMatrixError
from peermatch.hashing import stable_u64, unit_uniform
from peermatch.nn import FittedMlp, MlpConfig
from peermatch.pareto import ParetoFront, ScoreVector, dominates


def covariance_matrix(X: np.ndarray, p: KernelParams) -> np.ndarray:
    """The GP's noisy covariance at p: its kernel matrix plus noise_variance on the diagonal."""
    X = np.asarray(X, dtype=np.float64)
    K = gp._kernel_matrix(gp._Distances(gp.pairwise_sqdist(X, X)), p)
    K[np.diag_indices_from(K)] += p.noise_variance
    return K


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


def front_ids(front: ParetoFront) -> tuple[str, ...]:
    return tuple(m.learner_id for m in front.members)


def brute_force_front(candidates: list[ScoreVector], anchor: str) -> set[str]:
    pool = [c for c in candidates if c.learner_id != anchor]
    keep = set()
    for c in pool:
        if not any(dominates(other, c) for other in pool if other is not c):
            keep.add(c.learner_id)
    return keep


@one_blas_thread()
def reference_mlp_fit(X: np.ndarray, y: np.ndarray, config: MlpConfig) -> FittedMlp:
    """Full-batch gradient descent on the one-hidden-layer tanh network, a fresh array per expression."""
    n, d = X.shape
    rng = np.random.default_rng(config.seed)
    W1 = rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, config.hidden))
    b1 = np.zeros(config.hidden)
    w2 = rng.normal(0.0, 1.0 / math.sqrt(config.hidden), size=config.hidden)
    b2 = 0.0
    lr = config.learning_rate
    loss = math.inf
    for _ in range(config.iters):
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


def _plus_diagonal(K: np.ndarray, value: float) -> np.ndarray:
    K = K.copy()
    K[np.diag_indices_from(K)] += value
    return K


@one_blas_thread()
def reference_factor(K: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float]:
    """(L, jitter, alpha, mll) for the noisy covariance K, as GPML Alg. 2.1 with the library's jitter ladder.

    L is ``np.linalg.cholesky`` of a jittered copy of K, C-ordered, and
    alpha comes from a finite-checked Fortran-ordered copy of it.
    """
    for jitter in JITTER_LADDER:
        try:
            L = np.linalg.cholesky(_plus_diagonal(K, jitter) if jitter else K)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise SingularMatrixError("covariance not positive definite at any jitter")
    alpha = cho_solve(np.asarray_chkfinite(L, order="F"), y)
    mll = float(-0.5 * y @ alpha - np.log(np.diag(L)).sum() - 0.5 * y.shape[0] * math.log(2.0 * math.pi))
    return L, jitter, alpha, mll


@one_blas_thread()
def reference_objective(D2: np.ndarray, y: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """MLL at log parameters theta and its GPML eq. 5.9 gradient, a fresh array per expression."""
    params = KernelParams.from_log_vector(theta)
    Krbf = params.signal_variance * np.exp(-D2 / (2.0 * params.lengthscale**2))
    np.fill_diagonal(Krbf, params.signal_variance)
    L, _, alpha, value = reference_factor(_plus_diagonal(Krbf, params.noise_variance), y)
    Kinv_lower = np.array(L, order="F")
    assert dpotri(Kinv_lower) == 0
    Kinv_diag = np.diag(Kinv_lower)

    def half_trace_w(M: np.ndarray) -> float:
        kinv_dot_m = 2.0 * np.sum(Kinv_lower * M) - Kinv_diag @ np.diag(M)
        return 0.5 * (alpha @ (M @ alpha) - kinv_dot_m)

    gradient = np.array(
        [
            half_trace_w(Krbf),
            half_trace_w(Krbf * (D2 / params.lengthscale**2)),
            0.5 * (alpha @ alpha - Kinv_diag.sum()) * params.noise_variance,
        ]
    )
    return value, gradient


def reference_embed(text: str, dim: int = 32) -> np.ndarray:
    """Signed feature hashing of the text's 1-, 2- and 3-grams, every hash computed afresh."""
    vec = np.zeros(dim, dtype=np.float64)
    for n in (1, 2, 3):
        for i in range(len(text) - n + 1):
            h = stable_u64("ngram", "0", str(n), text[i : i + n])
            sign = 1.0 if h & 1 else -1.0
            vec[(h >> 1) % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def reference_mock_answer(
    seed: int,
    base_difficulty: float,
    complementarity_bonus: float,
    stem: str,
    labels: tuple[str, ...],
    complementary: int,
    decode_seed: int | None,
) -> str:
    """The mock backend's reply to a prompt that shows options, every quantity computed on this call."""
    belief = mock_correct_label(stem, labels)
    prob = base_difficulty + complementarity_bonus * complementary
    prob = min(1.0, max(0.0, prob))
    seed, key = str(seed), f"t=0.0|n=256|s={decode_seed}"
    if unit_uniform("draw", seed, key, stem) < prob:
        choice = belief
    else:
        wrong = [lab for lab in labels if lab != belief]
        choice = wrong[stable_u64("miss", seed, key, stem) % len(wrong)]
    return f"Weighing the listed claims against the stated assumptions, option {choice} holds up best.\nAnswer: {choice}"
