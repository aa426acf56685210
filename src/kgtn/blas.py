"""The thread count of every OpenBLAS the process has loaded.

numpy and scipy each ship their own OpenBLAS, and each runs one thread per
core unless told otherwise. Both are found by file name in the process's
memory map and driven through their exported `*_get_num_threads*` and
`*_set_num_threads*` symbols. A BLAS that exports neither (MKL,
Accelerate), or a platform without `/proc/self/maps`, yields no library:
nothing is read or set.
"""
from __future__ import annotations

import ctypes
import os

# (getter, setter) symbol pairs, by build: scipy-openblas 64-bit and 32-bit
# integers, then upstream OpenBLAS with and without the 64-bit suffix
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_libraries():
    """{file name: (getter, setter)} of every loaded OpenBLAS that has both.

    A map line is address, permissions, offset, device, inode and then the
    path, which may hold spaces: the sixth field is taken whole. A library
    whose file was deleted after loading is listed with " (deleted)"
    appended; `dlopen` still finds it, loaded, by its own path.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = (line.rstrip("\n").split(maxsplit=5) for line in fh)
            paths = {f[5].removesuffix(" (deleted)") for f in fields if len(f) == 6}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path).lower():
            continue
        lib = ctypes.CDLL(path)
        for get, put in _SYMBOLS:
            getter, setter = getattr(lib, get, None), getattr(lib, put, None)
            if getter is not None and setter is not None:
                getter.restype = ctypes.c_int
                setter.argtypes = (ctypes.c_int,)
                setter.restype = None
                found[os.path.basename(path)] = (getter, setter)
                break
    return found


def threads():
    """{file name: thread count} of every loaded OpenBLAS."""
    return {name: getter() for name, (getter, _) in _openblas_libraries().items()}


def set_threads(n):
    """Set every loaded OpenBLAS to `n` threads; returns `threads()` after."""
    for _, setter in _openblas_libraries().values():
        setter(n)
    return threads()

