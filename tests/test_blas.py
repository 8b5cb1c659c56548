"""The LAPACK bindings of NumPy's bundled OpenBLAS, their SciPy fallback, and a SciPy-free runtime."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from peermatch import blas, cli, gp
from peermatch.backends import MockBackend
from peermatch.gp import GpFitConfig, GpRegressor, KernelParams
from peermatch.harness import VariantConfig
from oracles import covariance_matrix, reference_factor

needs_bindings = pytest.mark.skipif(
    blas._lapack() is None, reason="NumPy bundles no OpenBLAS that exports dpotrf and LAPACKE dpotrs, dpotri and dtrtrs"
)
SRC = str(Path(gp.__file__).resolve().parents[1])


def _factors():
    """(K, L, b): random noisy covariances, n = 1, and one that needed jitter, with K's jitter added.

    L is ``np.linalg.cholesky(K)``, C-ordered with a zero upper triangle.
    """
    rng = np.random.default_rng(18)
    problems = []
    for n in [1, 1, 2, 3, *rng.integers(4, 120, size=40)]:
        X = rng.standard_normal((n, int(rng.integers(1, 6))))
        problems.append((covariance_matrix(X, KernelParams(*np.exp(rng.uniform(-2, 2, 3)))), rng.standard_normal(n)))
    X = rng.standard_normal((8, 3))
    X = np.vstack([X, X[:3] + 1e-9])
    problems.append((covariance_matrix(X, KernelParams(1e-8, 1.0, 1e-30)), rng.standard_normal(11)))
    factored = []
    for K, b in problems:
        L, jitter = reference_factor(K, np.zeros(len(b)))[:2]
        K[np.diag_indices_from(K)] += jitter
        factored.append((K, L, b))
    assert jitter > 0.0
    return factored


@pytest.mark.parametrize("fallback", [False, True], ids=["bindings", "fallback"])
def test_dpotrf_matches_numpy_cholesky_bit_for_bit(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(blas, "_lapack", lambda: None)
    elif blas._lapack() is None:
        pytest.skip("NumPy bundles no OpenBLAS that exports the LAPACK routines")
    with blas.one_blas_thread():  # as reference_factor runs
        for K, L, _ in _factors():
            lower = np.asfortranarray(np.tril(K))
            assert blas.dpotrf(lower) == 0
            assert np.array_equal(lower, L)
            full = np.asfortranarray(K)
            assert blas.dpotrf(full) == 0
            assert np.array_equal(np.tril(full), L)
            if not fallback:  # LAPACK leaves the upper triangle as it is
                assert np.array_equal(np.triu(full, 1), np.triu(K, 1))
        assert blas.dpotrf(np.asfortranarray(np.ones((3, 3)))) > 0


def test_in_place_routines_need_a_writeable_fortran_buffer():
    for bad in (np.eye(3, order="C") + np.tri(3), np.eye(3, dtype=np.float32, order="F"), np.ones((2, 3), order="F")):
        for routine in (blas.dpotrf, blas.dpotri):
            with pytest.raises(ValueError):
                routine(bad)
    frozen = np.asfortranarray(np.eye(3))
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        blas.dpotrf(frozen)


@needs_bindings
def test_bindings_match_scipy_bit_for_bit():
    pytest.importorskip("scipy")
    from scipy.linalg import cho_solve, solve_triangular
    from scipy.linalg.lapack import dpotri

    for _, L, b in _factors():
        before = L.copy()
        expected_x = cho_solve((L, True), b)
        assert np.array_equal(blas.cho_solve(L, b), expected_x)
        assert np.array_equal(blas.cho_solve(np.asfortranarray(L), b), expected_x)
        inverse = np.array(L, order="F")
        info = blas.dpotri(inverse)
        expected, expected_info = dpotri(L, lower=1)
        assert info == expected_info == 0
        assert np.array_equal(inverse, expected)
        assert np.array_equal(blas.solve_lower(L, b), solve_triangular(L, b, lower=True))
        assert np.array_equal(L, before)


@needs_bindings
def test_bindings_reject_what_scipy_rejects():
    pytest.importorskip("scipy")
    from scipy.linalg import solve_triangular

    with pytest.raises(np.linalg.LinAlgError):
        solve_triangular(np.eye(3) - np.diag([0.0, 0.0, 1.0]), np.ones(3), lower=True)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        blas.solve_lower(np.eye(3) - np.diag([0.0, 0.0, 1.0]), np.ones(3))
    for solve in (blas.cho_solve, blas.solve_lower):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(np.eye(2), np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="shape"):
            solve(np.eye(2), np.ones(3))


def _spy_on_scipy(monkeypatch):
    """Count the calls the GP makes into the three SciPy routines."""
    import scipy.linalg
    import scipy.linalg.lapack

    calls = {}
    for module, name in ((scipy.linalg, "cho_solve"), (scipy.linalg.lapack, "dpotri"), (scipy.linalg, "solve_triangular")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


def test_fallback_through_scipy_gives_the_same_bits(monkeypatch):
    pytest.importorskip("scipy")
    rng = np.random.default_rng(19)
    X = rng.standard_normal((30, 3))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(30)
    queries = rng.standard_normal((5, 3))
    config = GpFitConfig(restarts=1, max_iters=40)
    model = GpRegressor(config).fit(X, y)

    monkeypatch.setattr(blas, "_lapack", lambda: None)
    calls = _spy_on_scipy(monkeypatch)
    fallback = GpRegressor(config).fit(X, y)
    assert fallback.params == model.params and fallback.mll == model.mll and fallback.trace == model.trace
    assert np.array_equal(fallback.L, model.L) and np.array_equal(fallback.alpha, model.alpha)
    assert [fallback.predict(x) for x in queries] == [model.predict(x) for x in queries]
    assert set(calls) == {"cho_solve", "dpotri", "solve_triangular"}


@pytest.mark.parametrize("fallback", [False, True], ids=["bindings", "fallback"])
def test_one_blas_thread_pins_scipys_build_only_on_the_fallback(monkeypatch, fallback):
    pytest.importorskip("scipy")
    if fallback:
        monkeypatch.setattr(blas, "_lapack", lambda: None)
    elif blas._lapack() is None:
        pytest.skip("NumPy bundles no OpenBLAS that exports the LAPACKE routines")
    controls = blas._thread_controls(blas._SCIPY_OPENBLAS)
    if not controls:
        pytest.skip("SciPy bundles no OpenBLAS with thread controls")
    get, set_ = controls[0]
    previous = get()
    try:
        set_(2)
        if get() != 2:
            pytest.skip("SciPy's OpenBLAS does not take a second thread here")
        with blas.one_blas_thread():
            assert get() == (1 if fallback else 2)
        assert get() == 2
    finally:
        set_(previous)


# A meta-path finder that refuses SciPy, installed before peermatch loads.
_REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"refused: {name}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def _run(code: str, tmp_path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )


def _suite_config(tmp_path) -> Path:
    """A suite file with a baseline and one GP variant."""
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({
        "corpus": "synthetic",
        "seed": 4,
        "train_domains": ["number_theory", "market_research", "modern_poetry"],
        "variants": [
            {"name": "baseline", "role_setting": False, "co_learning": False},
            {"name": "gp-global", "role_setting": True, "co_learning": True, "regressor": "gp", "pareto": "global"},
        ],
    }), "utf-8")
    return config


def test_gp_suite_without_bindings_or_scipy_stops_before_any_backend_call(monkeypatch, tmp_path, capsys):
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(blas, "_lapack", lambda: None)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    calls = []
    monkeypatch.setattr(MockBackend, "complete", lambda self, prompt, seed: calls.append(prompt))
    assert not blas.lapack_available()
    out = tmp_path / "out"
    assert cli.main(["suite", "--config", str(_suite_config(tmp_path)), "--out", str(out)]) == 2
    assert "gp-global: the gp regressor needs SciPy" in capsys.readouterr().err
    assert calls == [] and not list(out.rglob("*.*"))
    # the check concerns the gp regressor only
    VariantConfig("nn-global", True, True, regressor="nn", pareto="global", train_domains=["number_theory"])


def test_scipy_alone_serves_the_solves(monkeypatch):
    pytest.importorskip("scipy")
    monkeypatch.setattr(blas, "_lapack", lambda: None)
    assert blas.lapack_available()


@needs_bindings
def test_suite_runs_with_scipy_refused(tmp_path):
    config = _suite_config(tmp_path)
    code = _REFUSE_SCIPY + f"""
from peermatch import cli, harness
from peermatch.gp import GpFitConfig
harness.SUITE_GP_FIT = GpFitConfig(restarts=0, max_iters=30, tol=1e-5)
sys.exit(cli.main(["suite", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}]))
"""
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list((tmp_path / "out" / "models").glob("gp-*.json"))


@needs_bindings
def test_import_fit_and_predict_load_no_scipy(tmp_path):
    code = """
import sys
import numpy as np
import peermatch.cli
from peermatch.gp import GpRegressor

rng = np.random.default_rng(0)
model = GpRegressor().fit(rng.standard_normal((12, 2)), rng.standard_normal(12))
model.predict(np.zeros(2))
maps = open("/proc/self/maps").read() if sys.platform == "linux" else ""
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), "scipy.libs" in maps)
"""
    proc = _run(code, tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]", "False"]
