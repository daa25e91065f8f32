"""Machine facts recorded with every result; results taken on different facts
are not compared (see ``compare.py``)."""

from __future__ import annotations

import ctypes
import os
import platform

# Symbols that report OpenBLAS's thread count, by build (numpy's bundled
# scipy-openblas uses the prefixed 64-bit-integer names).
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int:
    """Thread count reported by the loaded OpenBLAS, or -1 if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return -1
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def collect(blas_threads_set: int) -> dict:
    """nproc, BLAS name, version and threads, numpy and Python versions."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_set": blas_threads_set,
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
