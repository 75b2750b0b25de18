"""Threads inside one process: the ordered tile map that spreads a fit's
pair tiles over threads, the malloc policy of the pair workspace, the pin
of OpenBLAS to one thread, and the set-up of run_studies' worker processes.

Every sum of a fit's pair pass is a sum over the fixed tiles of
data.pair_tiles. tile_map evaluates the tiles on threads that exist for
that one map, while the caller waits, and hands the results back in tile
order, so that the caller adds them up in the same order for any number
of threads, and every reported number is the same bit for bit. Importing
this module starts no thread and changes no BLAS or malloc setting.
"""

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# Threads a fit's tiles may run on in this process; None: one per CPU the
# process may run on. run_studies' worker processes set 1 (single_threaded).
_WORKERS = None


def usable_cpus():
    """The number of CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every OS
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _tile_workers():
    return _WORKERS or usable_cpus()


def tile_map(fn, items):
    """An iterator of fn(item) for each of the sequence items, in order.

    A ThreadPoolExecutor of min(_tile_workers(), len(items)) threads,
    opened for this one map, evaluates the items while the caller waits
    for each result in turn; with one worker or one item they are
    evaluated one by one on the caller's thread, and no thread starts. fn
    must not write to state another item reads. An exception of fn is
    raised at the first item that raised one, after the results before
    it, as the loop on one thread would raise it; the items not yet
    started are then cancelled, and those already running finish before
    it propagates. No thread outlives the map."""
    workers = min(_tile_workers(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(workers, thread_name_prefix="mwwdr-tiles") as pool:
        yield from pool.map(fn, items)


def single_threaded():
    """Initializer of run_studies' worker processes, which already run in
    parallel with each other: one thread for BLAS and for the tile maps."""
    global _WORKERS
    _WORKERS = 1
    set_blas_threads(1)


@functools.cache
def malloc_policy():
    """Fix glibc malloc's mmap threshold at 32 MiB (its largest), its trim
    threshold at 256 MiB and its arenas at one, where the C library has
    mallopt: once per process, at its first pair workspace, never at
    import. Under the defaults, the dynamic mmap threshold and heap
    trimming keep handing the 0.17-2 MB tile and Newton arrays fresh pages,
    which every fit faults in again, and each tile thread grows an arena of
    its own, which keeps the pages it freed.
    The setting holds for the whole process and the processes it forks."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library with mallopt
        return
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD (malloc.h)
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


# ---------------------------------------------------------------------------
# OpenBLAS's thread count, through the library's own get and set calls


_OPENBLAS_PREFIXES = ("scipy_openblas_", "openblas_")
_OPENBLAS_SUFFIXES = ("64_", "")


@functools.lru_cache(maxsize=1)
def _openblas():
    """(library, symbol prefix, symbol suffix) of numpy's OpenBLAS, or None."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    return lib, prefix, suffix
    return None


def _symbol(name, restype, argtypes):
    lib, prefix, suffix = _openblas()
    fn = getattr(lib, f"{prefix}{name}{suffix}")
    fn.restype, fn.argtypes = restype, argtypes
    return fn


def blas_threads():
    """OpenBLAS's thread count in this process; None without OpenBLAS."""
    return _symbol("get_num_threads", ctypes.c_int, [])() if _openblas() else None


def set_blas_threads(n):
    """Set OpenBLAS's thread count in this process, if OpenBLAS is loaded
    and the count differs: setting it, even to the count it has, starts an
    OpenBLAS thread in a forked worker, which slowed its products by half."""
    if _openblas() and blas_threads() != n:
        _symbol("set_num_threads", None, [ctypes.c_int])(n)


@contextmanager
def one_blas_thread():
    """OpenBLAS on one thread for the block, and its count restored after.
    A matrix product then sums in one order whatever the BLAS setting, and
    the tile threads do not share the cores with BLAS threads."""
    before = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)
