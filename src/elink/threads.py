"""Native controls behind training's two shard threads.

Training runs each batch as two half-batch shards on two threads (see
training._run_loop) with OpenBLAS on one thread, so every matrix product
sums in one fixed order, whichever thread runs it and on any core count.
This module finds OpenBLAS's thread-count functions through ctypes, in the
libraries numpy ships, and caps glibc's malloc at one arena when elink is
imported. A second thread would otherwise allocate in an arena of its own,
which raised a pretraining run's peak memory by ~30%. The cap has to be set
before any elink thread allocates: once init's thread pool has made a
second arena, setting it does nothing.
"""

import contextlib
import ctypes
import glob
import os
import platform

import numpy as np

_M_ARENA_MAX = -8  # mallopt's parameter number for the arena cap (glibc malloc.h)

# (setter, getter) symbol pairs: numpy's scipy-openblas build, other ILP64
# builds, plain OpenBLAS
_BLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _cap_malloc_arenas() -> None:
    """Make every thread allocate from glibc's main arena (no-op elsewhere)."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _openblas_controls():
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or None."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        dll = ctypes.CDLL(lib)  # the library numpy already loaded, not a second copy
        for set_name, get_name in _BLAS_SYMBOLS:
            if hasattr(dll, set_name) and hasattr(dll, get_name):
                set_fn, get_fn = getattr(dll, set_name), getattr(dll, get_name)
                set_fn.argtypes, set_fn.restype = (ctypes.c_int,), None
                get_fn.argtypes, get_fn.restype = (), ctypes.c_int
                return set_fn, get_fn
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread and restore its previous
    count after, also on an exception. Yields whether OpenBLAS was found."""
    controls = _openblas_controls()
    if controls is None:
        yield False
        return
    set_fn, get_fn = controls
    before = get_fn()
    set_fn(1)
    try:
        yield True
    finally:
        set_fn(before)


_cap_malloc_arenas()
