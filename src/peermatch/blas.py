"""NumPy's bundled OpenBLAS: one-thread runs and the GP's four LAPACK routines.

NumPy wheels bundle an ILP64 OpenBLAS build. With two or more threads it
splits its sums differently, so the last digits of a GP fit would depend on
``OPENBLAS_NUM_THREADS``. ``one_blas_thread`` sets it to one thread and
restores the previous count on exit.

This module also owns the GP's four LAPACK calls, bound with ctypes to the
routines of that same build, so that a GP fit factors, solves and inverts
in one n x n column-major buffer:

- ``dpotrf`` factors the buffer in place, through the routine that
  ``np.linalg.cholesky`` calls, so with its bits;
- ``cho_solve`` (LAPACKE ``dpotrs``) solves with the factor as it lies,
  without a copy;
- ``dpotri`` (LAPACKE) overwrites the factor with the inverse;
- ``solve_lower`` (LAPACKE ``dtrtrs``) serves predictions.

The last three give the bits of the SciPy routine each stands for, in the
layout SciPy itself reaches. Where NumPy bundles no such library, or it
lacks a routine (a conda/MKL, Accelerate or distro NumPy), ``dpotrf`` calls
``np.linalg.cholesky`` and the other three import their SciPy routine.
Only then is SciPy's bundled OpenBLAS pinned to one thread too; otherwise
neither SciPy nor its build is loaded.
``lapack_available`` says whether either path exists, so that a run can stop
before its first backend call where neither does. A build that exports no
thread controls is left alone. Libraries are opened on first use, never at
import.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# (package, library file pattern beside the package, symbol suffix)
_NUMPY_OPENBLAS = ("numpy", "numpy.libs/libscipy_openblas64_*.so", "64_")
_SCIPY_OPENBLAS = ("scipy", "scipy.libs/libscipy_openblas-*.so", "")

_COL_MAJOR = 102  # LAPACKE matrix_layout


@functools.cache
def _libraries(build: tuple[str, str, str]) -> tuple[ctypes.CDLL, ...]:
    """Every library file of a bundled OpenBLAS build that loads, found without importing its package."""
    package, pattern, _ = build
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        return ()
    site = Path(next(iter(spec.submodule_search_locations))).parent
    libs = []
    for path in sorted(site.glob(pattern)):
        try:
            libs.append(ctypes.CDLL(str(path)))
        except OSError:
            continue
    return tuple(libs)


@functools.cache
def _thread_controls(build: tuple[str, str, str]) -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count functions of a bundled OpenBLAS build."""
    suffix = build[2]
    controls = []
    for lib in _libraries(build):
        try:
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


_INT64_P = ctypes.POINTER(ctypes.c_int64)

# routine -> (symbol, argument types, result type) in the ILP64 build. The
# LAPACKE routines take matrix_layout as a C int, chars as single bytes, and
# sizes by value, and return info; all sizes are 64-bit. dpotrf is the
# Fortran-ABI routine that np.linalg.cholesky calls, every argument by
# reference and info written back: LAPACKE's dpotrf would first scan the
# matrix and reject a NaN (info -4) where NumPy's factor goes on.
_ROUTINES = {
    "dpotrf": ("scipy_dpotrf_{}", (ctypes.c_char_p, _INT64_P, ctypes.c_void_p, _INT64_P, _INT64_P), None),
    "dpotrs": ("scipy_LAPACKE_dpotrs{}", (ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_int64,
               ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64), ctypes.c_int64),
    "dpotri": ("scipy_LAPACKE_dpotri{}", (ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64),
               ctypes.c_int64),
    "dtrtrs": ("scipy_LAPACKE_dtrtrs{}", (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
               ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64), ctypes.c_int64),
}


@functools.cache
def _lapack() -> dict[str, Callable[..., int]] | None:
    """NumPy's bundled dpotrf and LAPACKE dpotrs, dpotri and dtrtrs, or None where any is missing."""
    suffix = _NUMPY_OPENBLAS[2]
    for lib in _libraries(_NUMPY_OPENBLAS):
        try:
            routines = {name: getattr(lib, symbol.format(suffix)) for name, (symbol, _, _) in _ROUTINES.items()}
        except AttributeError:
            continue
        for name, routine in routines.items():
            routine.argtypes, routine.restype = _ROUTINES[name][1:]
        return routines
    return None


def lapack_available() -> bool:
    """Whether the GP's LAPACK routines can run: through NumPy's bundled OpenBLAS, or an installed SciPy."""
    return _lapack() is not None or importlib.util.find_spec("scipy") is not None


def _square(a: np.ndarray) -> int:
    """The order n of a non-empty n x n matrix a; raises on any other shape."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
    return a.shape[0]


def _in_place(a: np.ndarray) -> int:
    """The order n of a, which LAPACK overwrites: a writeable, Fortran-ordered, non-empty n x n float64 array."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable Fortran-ordered float64 array")
    return _square(a)


def _rhs(b: np.ndarray, n: int) -> np.ndarray:
    """A finite float64 copy of the right-hand side b, a vector of length n."""
    x = np.array(np.asarray_chkfinite(b, dtype=np.float64))
    if x.shape != (n,):
        raise ValueError(f"right-hand side has shape {x.shape}, expected ({n},)")
    return x


def dpotrf(a: np.ndarray) -> int:
    """Overwrite the lower triangle of a symmetric K with its Cholesky factor L; returns info.

    a is a Fortran-ordered float64 buffer, and only its lower triangle is
    read. A positive info means K is not positive definite. The factor has
    the bits of ``np.linalg.cholesky(K)``, which calls this LAPACK routine
    on a Fortran-ordered copy of K. The upper triangle is left as it is;
    where NumPy bundles no such routine, ``np.linalg.cholesky`` itself
    factors and the upper triangle is zeroed.
    """
    n = _in_place(a)
    lapack = _lapack()
    if lapack is None:
        try:
            a[...] = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return 1
        return 0
    order, info = ctypes.c_int64(n), ctypes.c_int64()
    lapack["dpotrf"](b"L", order, a.ctypes.data, order, info)
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}th argument of internal potrf")
    return info.value


def cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L L^T x = b, for a lower Cholesky factor L; SciPy's ``cho_solve((L, True), b)``.

    Only L's lower triangle is read, in place when L is a Fortran-ordered
    float64 array, as ``dpotrf`` leaves it. Unlike SciPy, this does not scan
    L for infs or NaNs: a caller that factored a non-finite matrix finds
    them on the factor's diagonal (see ``gp._factor``).
    """
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg import cho_solve

        return cho_solve((L, True), b)
    a = np.asarray(L, dtype=np.float64, order="F")
    n = _square(a)
    x = _rhs(b, n)
    info = lapack["dpotrs"](_COL_MAJOR, b"L", n, 1, a.ctypes.data, n, x.ctypes.data, n)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def dpotri(a: np.ndarray) -> int:
    """Overwrite the lower Cholesky factor L of K in the buffer a with K^-1; returns info.

    a is a Fortran-ordered float64 buffer, as ``dpotrf`` leaves it. Only its
    lower triangle becomes K^-1, with the bits of SciPy's
    ``dpotri(L, lower=1)``; the upper one is left as it is. A non-zero info
    means the inverse failed.
    """
    n = _in_place(a)
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg.lapack import dpotri

        inverse, info = dpotri(a, lower=1)
        a[...] = inverse
        return info
    return lapack["dpotri"](_COL_MAJOR, b"L", n, a.ctypes.data, n)


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with L x = b, for a lower-triangular L; SciPy's ``solve_triangular(L, b, lower=True)``.

    The C-ordered L is read in column-major order as its upper-triangular
    transpose, and solved transposed, as SciPy does.
    """
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg import solve_triangular

        return solve_triangular(L, b, lower=True)
    a = np.asarray_chkfinite(L, dtype=np.float64, order="C")
    n = _square(a)
    x = _rhs(b, n)
    info = lapack["dtrtrs"](_COL_MAJOR, b"U", b"T", b"N", n, 1, a.ctypes.data, n, x.ctypes.data, n)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal trtrs")
    return x


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Context manager and decorator: every OpenBLAS build the GP may call at one thread inside."""
    builds = (_NUMPY_OPENBLAS,) if _lapack() is not None else (_NUMPY_OPENBLAS, _SCIPY_OPENBLAS)
    restore = []
    for build in builds:
        for get, set_ in _thread_controls(build):
            previous = get()
            if previous != 1:
                set_(1)
                restore.append((set_, previous))
    try:
        yield
    finally:
        for set_, previous in restore:
            set_(previous)
