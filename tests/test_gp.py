import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peermatch import gp
from peermatch.blas import one_blas_thread
from peermatch.gp import (
    FitError,
    FittedGp,
    GpFitConfig,
    GpRegressor,
    KernelParams,
    load_model,
    log_marginal_likelihood,
    mll_gradient,
    SingularMatrixError,
)
from scipy.linalg import cho_solve
from oracles import (
    covariance_matrix,
    dense_covariance,
    dense_mll,
    dense_mll_gradient,
    dense_predict,
    finite_difference_gradient,
    reference_factor,
    reference_objective,
)

P = KernelParams(signal_variance=1.0, lengthscale=1.0, noise_variance=0.1)


class TestKernelParams:
    @pytest.mark.parametrize("bad", [(0.0, 1, 1), (1, -2, 1), (1, 1, float("nan")), (1, float("inf"), 1)])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            KernelParams(*bad)

    def test_log_round_trip(self):
        p = KernelParams(2.0, 0.5, 0.01)
        q = KernelParams.from_log_vector(p.log_vector())
        assert (q.signal_variance, q.lengthscale, q.noise_variance) == pytest.approx(
            (2.0, 0.5, 0.01)
        )


class TestCovariance:
    def test_single_point(self):
        K = covariance_matrix(np.array([[1.0, 2.0]]), P)
        assert K.shape == (1, 1)
        assert K[0, 0] == pytest.approx(P.signal_variance + P.noise_variance)

    def test_duplicate_rows_stay_positive_definite(self):
        X = np.array([[1.0], [1.0]])
        K = covariance_matrix(X, P)
        assert K[0, 1] == pytest.approx(P.signal_variance)
        assert np.all(np.linalg.eigvalsh(K) > 0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((5, 3))
        assert np.allclose(covariance_matrix(X, P), dense_covariance(X, P), atol=1e-12)

    def test_diagonal_exact_and_symmetric(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((7, 2))
        K = covariance_matrix(X, P)
        assert np.all(np.diag(K) == P.signal_variance + P.noise_variance)
        assert np.array_equal(K, K.T)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            log_marginal_likelihood(np.array([[np.nan]]), np.array([0.0]), P)

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=5))
    def test_off_diagonal_bounded_by_signal_variance(self, points):
        K = covariance_matrix(np.array(points), P)
        off = K[~np.eye(len(points), dtype=bool)]
        assert np.all(off > 0.0) and np.all(off <= P.signal_variance)


class TestLogMarginalLikelihood:
    def test_scalar_zero_target_closed_form(self):
        value = log_marginal_likelihood(np.array([[0.0]]), np.array([0.0]), P)
        assert value == pytest.approx(-0.5 * math.log(2 * math.pi * (P.signal_variance + P.noise_variance)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 2))
        y = rng.standard_normal(3)
        assert log_marginal_likelihood(X, y, P) == pytest.approx(dense_mll(X, y, P), abs=1e-8)

    def test_duplicate_training_point_matches_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((4, 2))
        X = np.vstack([X, X[0]])
        y = rng.standard_normal(5)
        assert log_marginal_likelihood(X, y, P) == pytest.approx(dense_mll(X, y, P), abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            log_marginal_likelihood(np.zeros((2, 1)), np.zeros(3), P)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            X = rng.standard_normal((6, 2))
            y = rng.standard_normal(6)
            p = KernelParams(*np.exp(rng.uniform(-1, 1, 3)))
            analytic = mll_gradient(X, y, p)
            numeric = finite_difference_gradient(X, y, p)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-4

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n, d = rng.integers(2, 30), rng.integers(1, 6)
            X = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            p = KernelParams(*np.exp(rng.uniform(-1.5, 1.5, 3)))
            oracle = dense_mll_gradient(X, y, p)
            assert np.linalg.norm(mll_gradient(X, y, p) - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_matches_dense_inverse_oracle_when_jitter_climbs(self):
        # near-duplicate rows and negligible noise: K is singular in floating
        # point, so the factorization needs jitter; a small signal variance
        # keeps K + jitter I well enough conditioned for a tight comparison
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 3))
        X = np.vstack([X, X[:3] + 1e-9])
        y = rng.standard_normal(11)
        p = KernelParams(1e-8, 1.0, 1e-30)
        jitter = gp._factor(gp._Distances(gp.pairwise_sqdist(X, X)), p, y)[1]
        assert jitter > 0.0
        oracle = dense_mll_gradient(X, y, p, jitter)
        assert np.linalg.norm(mll_gradient(X, y, p) - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_failed_inverse_raises_and_fit_uses_no_partial_inverse(self, monkeypatch):
        monkeypatch.setattr(gp, "dpotri", lambda buffer: 2)
        rng = np.random.default_rng(15)
        X = rng.standard_normal((6, 2))
        y = rng.standard_normal(6)
        with pytest.raises(SingularMatrixError, match="dpotri"):
            mll_gradient(X, y, P)
        with pytest.raises(FitError, match="all restarts"):
            GpRegressor(GpFitConfig(restarts=1)).fit(X, y)

    def test_small_gradient_at_optimum(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 4, size=(25, 1))
        model_params = KernelParams(1.0, 0.8, 0.05)
        L = np.linalg.cholesky(covariance_matrix(X, model_params))
        y = L @ rng.standard_normal(25)
        model = GpRegressor(GpFitConfig(seed=0, tol=1e-12, max_iters=600)).fit(X, y)
        assert float(np.linalg.norm(mll_gradient(X, y, model.params))) < 1e-3

    def test_noise_gradient_positive_when_noise_underestimated(self):
        # Pure white noise fitted with a tiny noise parameter: raising the
        # noise must increase the likelihood, so the log-noise gradient is
        # positive; central differences agree on the sign.
        rng = np.random.default_rng(13)
        X = rng.uniform(0, 10, size=(20, 1))
        y = rng.normal(0.0, 1.0, size=20)
        p = KernelParams(0.05, 0.3, 1e-3)
        analytic = mll_gradient(X, y, p)
        numeric = finite_difference_gradient(X, y, p)
        assert analytic[2] > 0
        assert numeric[2] > 0


def _assert_same_objective(X, y, thetas):
    """The ascent's objective and gradient equal the reference's bit for bit, one fit's buffers reused throughout."""
    D2 = gp.pairwise_sqdist(X, X)
    dist = gp._Distances(D2)
    for theta in thetas:
        expected_value, expected_gradient = reference_objective(D2, y, theta)
        with one_blas_thread():
            value, gradient = gp._objective(dist, y, theta)
            got_gradient = gradient()
        assert value == expected_value
        assert np.array_equal(got_gradient, expected_gradient)


class TestBufferedObjective:
    @pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (216, 36)])
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_matches_the_reference_bit_for_bit(self, n, d, seed):
        rng = np.random.default_rng(10 * seed + n)
        X = 0.3 * rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        _assert_same_objective(X, y, [rng.uniform(-2.0, 2.0, 3) for _ in range(4)])

    @given(
        n=st.integers(1, 30),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        thetas=st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 3), min_size=1, max_size=3),
    )
    def test_matches_the_reference_on_any_shape(self, n, d, seed, thetas):
        rng = np.random.default_rng(seed)
        _assert_same_objective(rng.standard_normal((n, d)), rng.standard_normal(n), [np.array(t) for t in thetas])

    def test_matches_the_reference_where_the_jitter_ladder_climbs(self):
        # repeated rows and negligible noise make K singular in floating point;
        # each rung rewrites the buffer, and the next evaluation starts from it
        rng = np.random.default_rng(23)
        X = rng.standard_normal((8, 3))
        X = np.vstack([X, X[:3], X[:2]])
        y = rng.standard_normal(13)
        # at (1e7, 1.0, 1e-9) and (1e9, 1.0, 3e-8), (sf2 + noise) + jitter and
        # sf2 + (noise + jitter) differ in the last bit
        scales = [(1.0, 1.0, 1e-30), (1.2, 0.7, 0.4), (1e7, 1.0, 1e-9), (1e7, 1.0, 1e-30), (1e9, 1.0, 3e-8),
                  (1.0, 1.0, 1.0)]
        thetas = [np.log(scale) for scale in scales]
        jitters = [reference_factor(covariance_matrix(X, KernelParams(*scale)), y)[1] for scale in scales]
        assert jitters == [1e-10, 0.0, 1e-9, 1e-8, 1e-6, 0.0]
        _assert_same_objective(X, y, thetas)
        dist = gp._Distances(gp.pairwise_sqdist(X, X))
        with one_blas_thread():
            assert [gp._factor(dist, KernelParams(*scale), y)[1] for scale in scales] == jitters
            # past the ladder's last rung
            with pytest.raises(SingularMatrixError):
                reference_factor(covariance_matrix(X, KernelParams(1e11, 1.0, 1e-30)), y)
            with pytest.raises(SingularMatrixError):
                gp._objective(dist, y, np.log([1e11, 1.0, 1e-30]))

    def test_a_nan_covariance_raises_as_the_reference_does(self):
        # the lengthscale's square underflows to 0, so the repeated rows give 0/0
        X = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0]])
        y = np.array([0.5, -0.2, 0.9])
        theta = np.array([0.0, -400.0, 0.0])
        D2 = gp.pairwise_sqdist(X, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as expected:
                reference_objective(D2, y, theta)
            with pytest.raises(ValueError) as got, one_blas_thread():
                gp._objective(gp._Distances(D2), y, theta)
        assert str(got.value) == str(expected.value) == "array must not contain infs or NaNs"


@pytest.mark.parametrize("n, m, d", [(1, 1, 1), (1, 9, 3), (7, 7, 2), (8, 8, 4), (9, 4, 5), (17, 30, 1), (216, 216, 36)])
def test_pairwise_sqdist_matches_the_whole_difference_tensor(n, m, d):
    rng = np.random.default_rng(n * m + d)
    A, B = rng.standard_normal((n, d)), rng.standard_normal((m, d))
    diff = A[:, None, :] - B[None, :, :]
    assert np.array_equal(gp.pairwise_sqdist(A, B), np.einsum("ijk,ijk->ij", diff, diff))
    diff = A[:, None, :] - A[None, :, :]
    D2 = gp.pairwise_sqdist(A, A)
    assert np.array_equal(D2, np.einsum("ijk,ijk->ij", diff, diff))
    assert np.array_equal(D2, D2.T)  # the factor buffer reads the kernel's upper triangle as its lower one


def _sample_from(params, X, rng):
    noise_free = covariance_matrix(X, params) - params.noise_variance * np.eye(len(X))
    f = np.linalg.cholesky(noise_free + 1e-10 * np.eye(len(X))) @ rng.standard_normal(len(X))
    return f + rng.normal(0.0, math.sqrt(params.noise_variance), size=len(X))


class TestFit:
    def test_refit_identical(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        cfg = GpFitConfig(seed=7)
        a = GpRegressor(cfg).fit(X, y)
        b = GpRegressor(cfg).fit(X, y)
        assert a.params == b.params
        assert a.mll == b.mll

    def test_final_mll_at_least_every_init(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 1))
        y = rng.standard_normal(10)
        cfg = GpFitConfig(seed=3, restarts=3)
        model = GpRegressor(cfg).fit(X, y)
        init_rng = np.random.default_rng(cfg.seed)
        inits = [np.log(np.array(cfg.init))] + [init_rng.uniform(-2, 2, 3) for _ in range(cfg.restarts)]
        for theta in inits:
            assert model.mll >= log_marginal_likelihood(X, y, KernelParams.from_log_vector(theta)) - 1e-9

    def test_recovers_known_generator_smoke(self):
        truth = KernelParams(1.0, 0.5, 0.01)
        rng = np.random.default_rng(1000)
        X = np.sort(rng.uniform(0, 5, 40)).reshape(-1, 1)
        y = _sample_from(truth, X, rng)
        model = GpRegressor(GpFitConfig(seed=0)).fit(X, y)
        err = np.abs(model.params.log_vector() - truth.log_vector()) / math.log(10.0)
        assert np.all(err <= 0.5)

    def test_trace_recorded_on_request(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((8, 1))
        y = rng.standard_normal(8)
        model = GpRegressor(GpFitConfig(seed=1)).fit(X, y)
        assert len(model.trace) >= 2
        mlls = [row[0] for row in model.trace]
        assert mlls == sorted(mlls)
        assert model.trace[-1][0] == pytest.approx(model.mll)

    def test_rejects_bad_input(self):
        with pytest.raises(FitError):
            GpRegressor().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(FitError):
            GpRegressor().fit(np.array([[np.inf]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "config, message",
        [
            (dict(restarts=-1), "restarts must be >= 0, got -1"),
            (dict(max_iters=-1), "max_iters must be >= 0, got -1"),
            (dict(tol=math.nan), "GpFitConfig: tol must be a finite float, got nan"),
            (dict(tol=-1e-7), "tol must be a non-negative real, got -1e-07"),
            (dict(init=(1.0, 0.0, 0.1)), "init must be three finite positive reals, got (1.0, 0.0, 0.1)"),
            (dict(init=(1.0, 1.0, -0.1)), "init must be three finite positive reals, got (1.0, 1.0, -0.1)"),
            (dict(init=(math.inf, 1.0, 0.1)), "init must be three finite positive reals, got (inf, 1.0, 0.1)"),
            (dict(init=(1.0, math.nan, 0.1)), "init must be three finite positive reals, got (1.0, nan, 0.1)"),
            (dict(init=(1.0, 1.0)), "init must be three finite positive reals, got (1.0, 1.0)"),
            (dict(init="abc"), "init must be three finite positive reals, got 'abc'"),
            (dict(restarts=1.5), "GpFitConfig: restarts must be int, got 1.5"),
            (dict(max_iters=2.5), "GpFitConfig: max_iters must be int, got 2.5"),
            (dict(max_iters=True), "GpFitConfig: max_iters must be int, got True"),
            (dict(tol="1e-7"), "GpFitConfig: tol must be float, got '1e-7'"),
            (dict(seed=1.5), "GpFitConfig: seed must be int, got 1.5"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
            (dict(seed=True), "GpFitConfig: seed must be int, got True"),
            (dict(init=(True, 1.0, 0.1)), "init must be three finite positive reals, got (True, 1.0, 0.1)"),
            (dict(tol=math.inf), "GpFitConfig: tol must be a finite float, got inf"),
        ],
        ids=["restarts", "max_iters", "nan-tol", "negative-tol", "zero-init", "negative-init", "inf-init",
             "nan-init", "two-init", "string-init", "float-restarts", "float-max_iters", "bool-max_iters",
             "string-tol", "float-seed", "negative-seed", "bool-seed", "bool-init", "inf-tol"],
    )
    def test_bad_config_raises_before_the_first_evaluation(self, monkeypatch, config, message):
        def no_evaluation(*args):
            raise AssertionError("a bad config must stop the fit before the first evaluation")

        monkeypatch.setattr(gp, "_objective", no_evaluation)
        rng = np.random.default_rng(0)
        with pytest.raises(FitError) as info:
            GpRegressor(GpFitConfig(**config)).fit(rng.standard_normal((6, 2)), rng.standard_normal(6))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "config", [GpFitConfig(restarts=2, max_iters=5, tol=0.0, seed=4), GpFitConfig(restarts=0, tol=1e-2)], ids=["cap", "tol"]
    )
    def test_the_last_accepted_step_computes_no_gradient(self, monkeypatch, config):
        inverses, paths = [], []
        real_dpotri, real_ascend = gp.dpotri, gp._ascend
        monkeypatch.setattr(gp, "dpotri", lambda buffer: inverses.append(1) or real_dpotri(buffer))

        def ascend(*args):
            result = real_ascend(*args)
            paths.append(result[2])
            return result

        monkeypatch.setattr(gp, "_ascend", ascend)
        rng = np.random.default_rng(7)
        X, y = rng.standard_normal((12, 2)), rng.standard_normal(12)
        GpRegressor(config).fit(X, y)
        assert len(paths) == config.restarts + 1
        expected = 0
        for path in paths:
            mlls = [row[0] for row in path]
            ended_on_a_step = len(path) == config.max_iters + 1 or (len(path) > 1 and mlls[-1] - mlls[-2] < config.tol)
            # one gradient at the start, and one for each accepted step but a last one that ends the ascent
            expected += len(path) - 1 if ended_on_a_step else len(path)
        assert len(inverses) == expected
        assert any(len(path) > 2 for path in paths)

    def test_an_overflowing_step_is_rejected(self):
        # y of order 1e6 makes the first steps overflow exp(log signal variance)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 2))
        y = 1e6 * rng.standard_normal(6)
        config = GpFitConfig(restarts=0, max_iters=20)
        with np.errstate(divide="ignore", invalid="ignore"):  # the fit drives the lengthscale towards 0
            model = GpRegressor(config).fit(X, y)
        assert all(math.isfinite(v) for v in model.params.log_vector()) and math.isfinite(model.mll)
        assert len(model.trace) > 1
        assert model.mll >= log_marginal_likelihood(X, y, KernelParams(*config.init))

    @pytest.mark.parametrize("seed", [1, 20, 30])
    def test_a_trial_with_a_nan_covariance_is_rejected(self, seed):
        # repeated rows: a trial whose lengthscale**2 underflows to 0 gives 0/0 in the kernel matrix
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((6, 2))
        X = np.vstack([X, X[:2]])
        y = 1e6 * rng.standard_normal(8)
        with np.errstate(divide="ignore", invalid="ignore"):
            model = GpRegressor(GpFitConfig(restarts=0, max_iters=20)).fit(X, y)
        assert math.isfinite(model.mll)

    def test_zero_iterations_and_tolerance_are_accepted(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((6, 2)), rng.standard_normal(6)
        assert len(GpRegressor(GpFitConfig(restarts=0, max_iters=0)).fit(X, y).trace) == 1
        assert GpRegressor(GpFitConfig(restarts=0, max_iters=5, tol=0.0)).fit(X, y).mll > -math.inf


class TestPredict:
    def test_far_point_reverts_to_prior(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, size=(10, 1))
        y = rng.standard_normal(10)
        model = GpRegressor(GpFitConfig(seed=0, restarts=0, max_iters=0)).fit(X, y)
        far = model.predict(np.array([1e5]))
        assert far.mean == pytest.approx(0.0, abs=1e-9)
        assert far.variance == pytest.approx(
            model.params.signal_variance + model.params.noise_variance, abs=1e-9
        )

    def test_noise_free_limit_interpolates(self):
        X = np.array([[0.0], [1.0], [2.5]])
        y = np.array([0.5, -0.2, 0.9])
        gaps = []
        for noise in (1e-1, 1e-3, 1e-5, 1e-7):
            params = KernelParams(1.0, 1.0, noise)
            K = covariance_matrix(X, params)
            L = np.linalg.cholesky(K)
            model = FittedGp(X=X, y=y, params=params, L=L, alpha=cho_solve((L, True), y), jitter=0.0, mll=0.0)
            gaps.append(max(abs(model.predict(x).mean - t) for x, t in zip(X, y)))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-6

    def test_two_point_closed_form(self):
        # Hand-solved 2x2 posterior: K = [[s+n, k12], [k12, s+n]], explicit inverse.
        s, n, ls = 1.0, 0.1, 1.0
        x1, x2, xs = 0.0, 1.0, 0.4
        y = np.array([1.0, -1.0])
        k12 = s * math.exp(-((x1 - x2) ** 2) / (2 * ls**2))
        a, b = s + n, k12
        det = a * a - b * b
        inv = np.array([[a, -b], [-b, a]]) / det
        ks = np.array(
            [s * math.exp(-((xs - x1) ** 2) / (2 * ls**2)), s * math.exp(-((xs - x2) ** 2) / (2 * ls**2))]
        )
        want_mean = float(ks @ inv @ y)
        want_var = float(s - ks @ inv @ ks + n)

        params = KernelParams(s, ls, n)
        X = np.array([[x1], [x2]])
        K = covariance_matrix(X, params)
        L = np.linalg.cholesky(K)
        model = FittedGp(X=X, y=y, params=params, L=L, alpha=cho_solve((L, True), y), jitter=0.0, mll=0.0)
        got = model.predict(np.array([xs]))
        assert got.mean == pytest.approx(want_mean, abs=1e-12)
        assert got.variance == pytest.approx(want_var, abs=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        K = covariance_matrix(X, P)
        L = np.linalg.cholesky(K)
        gp_model = FittedGp(X=X, y=y, params=P, L=L, alpha=cho_solve((L, True), y), jitter=0.0, mll=0.0)
        for _ in range(5):
            xs = rng.standard_normal(3)
            got = gp_model.predict(xs)
            want_mean, want_var = dense_predict(X, y, P, xs)
            assert got.mean == pytest.approx(want_mean, abs=1e-8)
            assert got.variance == pytest.approx(want_var, abs=1e-8)

    def test_variance_within_prior_bounds(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((15, 2))
        y = rng.standard_normal(15)
        model = GpRegressor(GpFitConfig(seed=0, restarts=1, max_iters=40)).fit(X, y)
        p = model.params
        for _ in range(50):
            pred = model.predict(rng.standard_normal(2) * 3)
            assert p.noise_variance - 1e-9 <= pred.variance <= p.signal_variance + p.noise_variance + 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((5, 2))
        model = GpRegressor(GpFitConfig(seed=0, restarts=0, max_iters=1)).fit(X, rng.standard_normal(5))
        with pytest.raises(ValueError, match="shape"):
            model.predict(np.zeros(3))


class TestSnapshot:
    def test_round_trip_reproduces_predictions(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((9, 2))
        y = rng.standard_normal(9)
        model = GpRegressor(GpFitConfig(seed=2, restarts=1, max_iters=60)).fit(X, y)
        model.save(tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        for _ in range(10):
            xs = rng.standard_normal(2)
            a, b = model.predict(xs), loaded.predict(xs)
            assert abs(a.mean - b.mean) <= 1e-12
            assert abs(a.variance - b.variance) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_fitted_model_reloads_bit_for_bit(self, tmp_path, seed):
        # exp(log(x)) returns x for these fitted parameters; for a few
        # values in 1,000 it is 1 ulp off (see FittedGp.save)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        model = GpRegressor(GpFitConfig(seed=seed, restarts=1, max_iters=60)).fit(X, y)
        model.save(tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.params == model.params
        assert loaded.jitter == model.jitter
        assert np.array_equal(loaded.L, model.L)
        assert np.array_equal(loaded.alpha, model.alpha)
        for xs in rng.standard_normal((10, 3)):
            assert loaded.predict(xs) == model.predict(xs)

    def test_round_trip_refactors_at_stored_jitter(self, tmp_path):
        # These hyperparameters survive the snapshot's log-space text exactly,
        # so the reloaded factor can be compared bit for bit.
        params = KernelParams(2.0, 0.5, 0.25)
        rng = np.random.default_rng(17)
        X = rng.standard_normal((9, 2))
        y = rng.standard_normal(9)
        L = np.linalg.cholesky(covariance_matrix(X, params) + 1e-8 * np.eye(9))
        model = FittedGp(X=X, y=y, params=params, L=L, alpha=cho_solve((L, True), y), jitter=1e-8, mll=0.0)
        model.save(tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.jitter == 1e-8
        assert np.array_equal(loaded.L, L)
        for xs in rng.standard_normal((10, 2)):
            a, b = model.predict(xs), loaded.predict(xs)
            assert abs(a.mean - b.mean) <= 1e-12
            assert abs(a.variance - b.variance) <= 1e-12

    def test_load_never_climbs_past_stored_jitter(self, tmp_path):
        # Two identical inputs with negligible noise: singular at jitter 0,
        # which the fitting ladder would escape but a reload must not.
        X, y = np.array([[0.0], [0.0]]), np.array([1.0, 1.0])
        params = KernelParams(1.0, 1.0, 1e-300)
        FittedGp(X=X, y=y, params=params, L=np.eye(2), alpha=y, jitter=0.0, mll=0.0).save(tmp_path / "model.json")
        with pytest.raises(SingularMatrixError):
            load_model(tmp_path / "model.json")

    def test_rejects_unknown_format(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"format": "other/9"}', "utf-8")
        with pytest.raises(ValueError, match="format"):
            load_model(tmp_path / "bad.json")


def test_cached_factor_reconstructs_covariance():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((14, 3))
    y = rng.standard_normal(14)
    model = GpRegressor(GpFitConfig(seed=0, restarts=0, max_iters=25)).fit(X, y)
    K = covariance_matrix(X, model.params) + model.jitter * np.eye(14)
    assert np.allclose(model.L @ model.L.T, K, atol=1e-10)


def test_regressor_interface():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((10, 2))
    y = rng.standard_normal(10)
    fitted = GpRegressor(GpFitConfig(seed=0, restarts=0, max_iters=20)).fit(X, y)
    pred = fitted.predict(X[0])
    assert math.isfinite(pred.mean) and pred.variance > 0
