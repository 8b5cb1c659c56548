"""Gaussian-process regression with an isotropic squared-exponential kernel.

The kernel is k(a, b) = signal_variance * exp(-|a - b|^2 / (2 * lengthscale^2)),
observation noise is additive Gaussian with variance ``noise_variance``, and
the prior mean is zero (gain labels are centered near zero by construction).
Hyperparameters are fitted by maximizing the log marginal likelihood with
gradient ascent in log-parameter space. Every linear solve goes through a
lower-triangular Cholesky factor of the noisy covariance matrix. A fit holds
its kernel matrix and one column-major LAPACK buffer: each evaluation writes
the covariance's lower triangle into that buffer, factors it in place
(``dpotrf``) and solves with it as it is (``dpotrs``). The one inverse
formed, K^-1 for the gradient, overwrites the factor in the same buffer
(``dpotri``), and the gradient is computed only at points the ascent accepts
and continues from. Predictions solve with the factor (``dtrtrs``). Fits,
reloads and predictions run with the bundled BLAS at one thread, so their
digits do not depend on the host's thread settings.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .blas import cho_solve, dpotrf, dpotri, one_blas_thread, solve_lower
from .writer import write_file

SNAPSHOT_FORMAT = "gp-snapshot/1"
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
STEP0 = 0.1  # first ascent step, in log-parameter space
STEP_GROWTH = 1.3  # factor an accepted step grows by
MAX_HALVINGS = 30  # step halvings tried before a start stops


class FitError(RuntimeError):
    """Hyperparameter optimization failed to produce a finite objective."""


class SingularMatrixError(FitError):
    """Covariance stayed non-factorizable even at the largest jitter."""


class NonFiniteCovarianceError(FitError, ValueError):
    """The covariance holds an inf or NaN; a ``ValueError`` too, as NumPy's finiteness check raises."""


# a field's annotation -> the types check_types accepts for it; a bool is no number
_CHECKED_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float)}


def check_types(config, where: str, error: type[Exception]) -> None:
    """Raise ``error`` for a dataclass field whose value is not of its annotated type, or a ``float`` that is not finite.

    Fields annotated otherwise, such as a tuple, are left to their owner's checks.
    """
    for f in fields(config):
        kind, value = _CHECKED_TYPES.get(f.type), getattr(config, f.name)
        if kind is not None and (not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool)):
            raise error(f"{where}: {f.name} must be {f.type}, got {value!r}")
        # json.load reads NaN and Infinity, and an int beyond the float range overflows once used as one
        if f.type == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
            raise error(f"{where}: {f.name} must be a finite float, got {value!r}")


def training_arrays(X, y, error: type[Exception]) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float64 arrays; raises ``error`` unless X is non-empty 2-D, y has one entry per row, and both are finite."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise error(f"X must be non-empty 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise error(f"y has shape {y.shape}, expected ({X.shape[0]},)")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise error("training data contains non-finite values")
    return X, y


@dataclass(frozen=True)
class KernelParams:
    """Kernel and noise hyperparameters; all strictly positive and finite."""

    signal_variance: float
    lengthscale: float
    noise_variance: float

    def __post_init__(self) -> None:
        for name in ("signal_variance", "lengthscale", "noise_variance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a finite positive real, got {value!r}")

    def log_vector(self) -> np.ndarray:
        return np.log([self.signal_variance, self.lengthscale, self.noise_variance])

    @classmethod
    def from_log_vector(cls, theta: np.ndarray) -> "KernelParams":
        """exp of log parameters; ``FloatingPointError`` where one overflows or underflows."""
        with np.errstate(over="raise", under="raise"):
            sf2, ls, sn2 = np.exp(np.asarray(theta, dtype=np.float64))
        return cls(float(sf2), float(ls), float(sn2))


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and variance at one query point."""

    mean: float
    variance: float


class FittedRegressor(Protocol):
    def predict(self, x: np.ndarray) -> Prediction: ...


_SQDIST_ROWS = 8  # rows of A per block of differences


def pairwise_sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances via explicit differences, a block of A's rows at a time.

    Each block goes through the ``einsum`` the whole n x m x d difference
    tensor would, which sums each (i, j) over d on its own, so the result has
    the same bits while the temporary holds 8 rows of differences, not n.
    """
    out = np.empty((A.shape[0], B.shape[0]))
    for start in range(0, A.shape[0], _SQDIST_ROWS):
        diff = A[start : start + _SQDIST_ROWS, None, :] - B[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start : start + _SQDIST_ROWS])
    return out


class _Distances:
    """The squared distances between X's rows, and the n x n buffers its factorizations and gradients reuse."""

    def __init__(self, D2: np.ndarray):
        self.D2 = D2
        self.kernel = np.empty_like(D2)  # the noise-free kernel matrix Krbf
        # column-major LAPACK buffer: its lower triangle takes the noisy
        # covariance, then its Cholesky factor, then K^-1; the upper one stays zero
        self.factor = np.zeros(D2.shape, order="F")
        self.upper = ~np.tri(D2.shape[0], dtype=bool)  # strictly above the diagonal
        self.scaled = np.empty_like(D2)  # Krbf * D2 / lengthscale^2, the lengthscale derivative
        self.product = np.empty_like(D2)  # K^-1 * M, elementwise


def _kernel_matrix(dist: _Distances, params: KernelParams) -> np.ndarray:
    """Noise-free kernel matrix at params, written into ``dist.kernel``.

    The divide, ``exp`` and scaling run in place, so the entries are those
    of ``sf2 * np.exp(-D2 / (2 * lengthscale**2))`` bit for bit: IEEE
    division is sign-symmetric, so dividing D2 by the negated denominator
    gives the bits of dividing -D2 by it.
    """
    K = np.divide(dist.D2, -2.0 * params.lengthscale**2, out=dist.kernel)
    np.exp(K, out=K)
    np.multiply(params.signal_variance, K, out=K)
    np.fill_diagonal(K, params.signal_variance)
    return K


def _factor(dist: _Distances, params: KernelParams, y: np.ndarray, ladder: tuple[float, ...] = JITTER_LADDER):
    """Factor the noisy covariance at params and score y under it; returns (L, jitter, alpha, mll).

    The kernel matrix goes into ``dist.kernel``, and L into the lower
    triangle of ``dist.factor``, the buffer itself. Each try writes the
    covariance's lower triangle there afresh (``dist.kernel`` is symmetric
    bit for bit, so its upper triangle, read through the transpose, is that
    lower one) and adds noise, then jitter, to the diagonal as a copy of K
    would. Diagonal jitter escalates along ``ladder`` until the Cholesky
    factor exists, and raises rather than go past its end. alpha = K^-1 y,
    and mll is the log marginal likelihood of GPML (Rasmussen & Williams
    2006) Alg. 2.1.
    """
    Krbf = _kernel_matrix(dist, params)
    diagonal = params.signal_variance + params.noise_variance
    for jitter in ladder:
        np.copyto(dist.factor.T, Krbf, where=dist.upper)
        np.fill_diagonal(dist.factor, diagonal + jitter if jitter else diagonal)
        if dpotrf(dist.factor) == 0:
            break
    else:
        raise SingularMatrixError(f"covariance not positive definite even with jitter {ladder[-1]!r}")
    L = dist.factor
    # an inf or NaN in the covariance spreads along its row of L to the
    # diagonal, so this scan finds what one of all of L would
    diag = np.diag(L)
    if not np.isfinite(diag).all():
        raise NonFiniteCovarianceError("array must not contain infs or NaNs")
    alpha = cho_solve(L, y)
    mll = float(-0.5 * y @ alpha - np.log(diag).sum() - 0.5 * y.shape[0] * math.log(2.0 * math.pi))
    return L, jitter, alpha, mll


def log_marginal_likelihood(X: np.ndarray, y: np.ndarray, params: KernelParams) -> float:
    """Log density of y under the zero-mean GP prior with additive noise."""
    X, y = training_arrays(X, y, ValueError)
    return _factor(_Distances(pairwise_sqdist(X, X)), params, y)[3]


def _objective(dist: _Distances, y: np.ndarray, theta: np.ndarray) -> tuple[float, Callable[[], np.ndarray]]:
    """MLL at log parameters theta, and a function that computes its gradient.

    The gradient function reuses this evaluation's kernel matrix, factor and
    alpha, so a caller that rejects theta pays for one factorization only.
    The kernel matrix is built from ``dist.D2`` into ``dist.kernel``, the
    factor lives in ``dist.factor``, and the gradient forms its two n x n
    products in ``dist``'s other buffers, so it must be called before the
    next evaluation on the same ``dist``. The buffers save
    copies and temporaries only: every floating-point operation of GPML
    Alg. 2.1 and eq. 5.9, and its order, is that of the plain expressions.
    """
    params = KernelParams.from_log_vector(theta)
    _, _, alpha, value = _factor(dist, params, y)
    return value, partial(_gradient, dist, params, alpha)


def _gradient(dist: _Distances, params: KernelParams, alpha: np.ndarray) -> np.ndarray:
    """MLL gradient w.r.t. (log sf2, log lengthscale, log sn2) at a factored point.

    GPML eq. 5.9: component j is 0.5 * trace((alpha alpha^T - K^-1) dK/dtheta_j),
    with K the noisy covariance. K^-1 comes from ``dpotri`` on the factor in
    ``dist.factor``, which it overwrites in the lower triangle only; the
    upper triangle is zero and stays so. Both dK/dtheta_j are symmetric, so
    sum(K^-1 * M) is read from the lower triangle T as
    2 sum(T * M) - trace(T * M), and the alpha^T M alpha terms are
    matrix-vector products.
    """
    info = dpotri(dist.factor)
    if info != 0:
        raise SingularMatrixError(f"dpotri could not invert the covariance factor (info={info})")
    Kinv_lower, Krbf = dist.factor, dist.kernel
    Kinv_diag = np.diag(Kinv_lower)

    def half_trace_w(M: np.ndarray) -> float:
        kinv_dot_m = 2.0 * np.sum(np.multiply(Kinv_lower, M, out=dist.product)) - Kinv_diag @ np.diag(M)
        return 0.5 * (alpha @ (M @ alpha) - kinv_dot_m)

    scaled = np.divide(dist.D2, params.lengthscale**2, out=dist.scaled)
    return np.array(
        [
            half_trace_w(Krbf),
            half_trace_w(np.multiply(Krbf, scaled, out=scaled)),
            0.5 * (alpha @ alpha - Kinv_diag.sum()) * params.noise_variance,
        ]
    )


def mll_gradient(X: np.ndarray, y: np.ndarray, params: KernelParams) -> np.ndarray:
    """Analytic MLL gradient over (log sf2, log lengthscale, log sn2)."""
    X, y = training_arrays(X, y, ValueError)
    return _objective(_Distances(pairwise_sqdist(X, X)), y, params.log_vector())[1]()


@dataclass(frozen=True)
class GpFitConfig:
    """Gradient-ascent settings for hyperparameter fitting.

    ``restarts`` extra starting points are drawn log-uniform in [e^-2, e^2]
    per parameter, on top of the explicit ``init``. Ascent starts at step
    ``STEP0``, accepts a step only if it improves the objective (halving it
    up to ``MAX_HALVINGS`` times), grows an accepted step by ``STEP_GROWTH``,
    and stops once the improvement drops below ``tol``. Settings are checked
    when built, and ``init`` is stored as a tuple of floats.
    """

    restarts: int = 3
    max_iters: int = 200
    tol: float = 1e-7
    init: tuple[float, float, float] = (1.0, 1.0, 0.1)
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(self, "GpFitConfig", FitError)
        for name in ("restarts", "max_iters", "seed"):
            if getattr(self, name) < 0:
                raise FitError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.tol >= 0.0:
            raise FitError(f"tol must be a non-negative real, got {self.tol!r}")
        init = self.init if isinstance(self.init, (tuple, list)) and len(self.init) == 3 else ()
        reals = all(isinstance(v, (int, float)) and not isinstance(v, bool) and 0.0 < v <= sys.float_info.max for v in init)
        if not (init and reals):
            raise FitError(f"init must be three finite positive reals, got {self.init!r}")
        object.__setattr__(self, "init", tuple(float(v) for v in init))


@dataclass(frozen=True, eq=False)
class FittedGp:
    """A fitted GP: data, hyperparameters, and the cached factorization.

    ``trace`` holds the winning ascent's accepted steps as rows of
    ``(mll, *log params)``, the start first; ``save`` does not write it, so
    a reloaded snapshot has none.
    """

    X: np.ndarray
    y: np.ndarray
    params: KernelParams
    L: np.ndarray
    alpha: np.ndarray
    jitter: float
    mll: float
    trace: tuple[tuple[float, ...], ...] = field(default=())

    @one_blas_thread()
    def predict(self, x_star: np.ndarray) -> Prediction:
        """Posterior mean and variance at a query point.

        mean = k*^T alpha with zero prior mean; variance =
        k(x*, x*) - k*^T (K + noise I)^-1 k* + noise, computed through the
        cached triangular factor.
        """
        x_star = np.asarray(x_star, dtype=np.float64)
        if x_star.shape != (self.X.shape[1],):
            raise ValueError(f"query has shape {x_star.shape}, expected ({self.X.shape[1]},)")
        p = self.params
        d2 = np.sum((self.X - x_star) ** 2, axis=1)
        k_star = p.signal_variance * np.exp(-d2 / (2.0 * p.lengthscale**2))
        mean = float(k_star @ self.alpha)
        v = solve_lower(self.L, k_star)
        variance = float(p.signal_variance - v @ v + p.noise_variance)
        return Prediction(mean=mean, variance=variance)

    def save(self, path: str | Path) -> None:
        """Snapshot to structured text.

        The parameters are written as ``repr`` of their logs, and
        ``load_model`` takes ``exp`` of those. Most values, fitted or hand
        built, survive that bit for bit, and the reloaded factor and
        predictions with them. A few values in 1,000 come back 1 ulp off
        (about 1 random fit in 150 has one), and predictions then agree to
        about 1e-12.
        """
        payload = {
            "format": SNAPSHOT_FORMAT,
            "log_params": [repr(float(v)) for v in self.params.log_vector()],
            "n": self.X.shape[0],
            "d": self.X.shape[1],
            "jitter": repr(float(self.jitter)),
            "x": [[repr(float(v)) for v in row] for row in self.X],
            "y": [repr(float(v)) for v in self.y],
        }
        write_file(path, json.dumps(payload, indent=1))


def _ascend(dist: _Distances, y, theta0, config: GpFitConfig):
    """Backtracking gradient ascent from one start; returns (mll, theta, path).

    The gradient is computed at the start and at each accepted trial the
    ascent continues from, not at the last one, which the ``tol`` test or
    the ``max_iters`` cap ends on. A trial is rejected, and the step halved,
    when it does not improve the objective, when its covariance cannot be
    factored or holds an inf or NaN, or when a parameter overflows or
    underflows. A start that fails so scores -inf.
    """
    theta = np.asarray(theta0, dtype=np.float64)
    try:
        value, gradient = _objective(dist, y, theta)
        grad = gradient()
    except (SingularMatrixError, NonFiniteCovarianceError, FloatingPointError):
        return -np.inf, theta, []
    path = [(value, *theta)]
    step = STEP0
    for iteration in range(config.max_iters):
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0 or not math.isfinite(gnorm):
            break
        last_iteration = iteration == config.max_iters - 1
        s = step
        for _ in range(MAX_HALVINGS):
            trial = theta + s * grad
            try:
                trial_value, gradient = _objective(dist, y, trial)
                accepted = math.isfinite(trial_value) and trial_value > value
                if accepted and not (last_iteration or trial_value - value < config.tol):
                    grad = gradient()
            except (SingularMatrixError, NonFiniteCovarianceError, FloatingPointError):
                accepted = False
            if accepted:
                break
            s *= 0.5
        if not accepted:
            break
        improvement = trial_value - value
        theta, value = trial, trial_value
        step = min(s * STEP_GROWTH, 10.0)
        path.append((value, *theta))
        if improvement < config.tol:
            break
    return value, theta, path


@one_blas_thread()
def load_model(path: str | Path) -> FittedGp:
    """Rebuild a saved snapshot, factoring at exactly its stored jitter."""
    payload = json.loads(Path(path).read_text("utf-8"))
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ValueError(f"unsupported snapshot format {payload.get('format')!r}")
    params = KernelParams.from_log_vector(np.array([float(v) for v in payload["log_params"]]))
    X = np.array([[float(v) for v in row] for row in payload["x"]], dtype=np.float64).reshape(
        payload["n"], payload["d"]
    )
    y = np.array([float(v) for v in payload["y"]], dtype=np.float64)
    X, y = training_arrays(X, y, ValueError)
    L, jitter, alpha, mll = _factor(_Distances(pairwise_sqdist(X, X)), params, y, ladder=(float(payload["jitter"]),))
    return FittedGp(X=X, y=y, params=params, L=np.ascontiguousarray(L), alpha=alpha, jitter=jitter, mll=mll)


class GpRegressor:
    def __init__(self, config: GpFitConfig = GpFitConfig()):
        self.config = config

    @one_blas_thread()
    def fit(self, X: np.ndarray, y: np.ndarray) -> FittedGp:
        """Fit hyperparameters by maximum log marginal likelihood.

        Runs ascent from the configured init plus ``restarts`` seeded draws and
        keeps the run with the highest final objective; bad data raises
        ``FitError`` before the first evaluation.
        """
        X, y = training_arrays(X, y, FitError)
        cfg = self.config
        dist = _Distances(pairwise_sqdist(X, X))
        rng = np.random.default_rng(cfg.seed)
        starts = [np.log(np.asarray(cfg.init, dtype=np.float64))]
        for _ in range(cfg.restarts):
            starts.append(rng.uniform(-2.0, 2.0, size=3))

        best_value, best_theta, best_path = -np.inf, None, []
        for theta0 in starts:
            value, theta, path = _ascend(dist, y, theta0, cfg)
            if value > best_value:
                best_value, best_theta, best_path = value, theta, path
        if best_theta is None or not math.isfinite(best_value):
            raise FitError("all restarts diverged to a non-finite objective")

        params = KernelParams.from_log_vector(best_theta)
        L, jitter, alpha, _ = _factor(dist, params, y)
        return FittedGp(
            X=X.copy(),
            y=y.copy(),
            params=params,
            L=np.ascontiguousarray(L),
            alpha=alpha,
            jitter=jitter,
            mll=best_value,
            trace=tuple(tuple(row) for row in best_path),
        )
