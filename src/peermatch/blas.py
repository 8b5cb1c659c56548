"""Run numerical work with the bundled OpenBLAS builds at one thread.

NumPy and SciPy wheels each bundle an OpenBLAS build. With two or more
threads those builds split their sums differently, so the last digits of a
GP fit would depend on ``OPENBLAS_NUM_THREADS``. ``one_blas_thread`` sets
both builds to one thread and restores their previous counts on exit. A
build that is missing, or that exports no thread controls (another BLAS,
another packaging), is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# (package, library file pattern beside the package, symbol suffix)
_BUNDLED_OPENBLAS = (
    ("numpy", "numpy.libs/libscipy_openblas64_*.so", "64_"),
    ("scipy", "scipy.libs/libscipy_openblas-*.so", ""),
)


@functools.cache
def _thread_controls() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The (get, set) thread-count functions of every bundled OpenBLAS found."""
    controls = []
    for package, pattern, suffix in _BUNDLED_OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        site = Path(next(iter(spec.submodule_search_locations))).parent
        for path in sorted(site.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Context manager and decorator: every bundled OpenBLAS at one thread inside."""
    restore = []
    for get, set_ in _thread_controls():
        previous = get()
        if previous != 1:
            set_(1)
            restore.append((set_, previous))
    try:
        yield
    finally:
        for set_, previous in restore:
            set_(previous)
