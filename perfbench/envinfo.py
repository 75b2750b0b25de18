"""What the run ran on: versions, cores, cache, BLAS threads.

The BLAS thread count is read from the OpenBLAS library numpy loaded, through
its own get/set calls (threadpoolctl is not a dependency).
"""

import ctypes
import functools
import glob
import os
import platform

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


def _symbol(name, restype):
    lib, prefix, suffix = _openblas()
    fn = getattr(lib, f"{prefix}{name}{suffix}")
    fn.restype = restype
    return fn


def blas_threads():
    return _symbol("get_num_threads", ctypes.c_int)() if _openblas() else None


def set_blas_threads(n):
    """Set OpenBLAS's thread count in this process; returns False when no
    OpenBLAS is loaded."""
    if not _openblas():
        return False
    _symbol("set_num_threads", None)(ctypes.c_int(n))
    return True


def _blas_config():
    if not _openblas():
        return "unknown (no OpenBLAS found)"
    return _symbol("get_config", ctypes.c_char_p)().decode()


def _l3_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _git_sha(root):
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def describe(root, seed, removed_env):
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_config(),
        "blas_threads": blas_threads(),
        "blas_env_removed": removed_env,
        "l3_bytes": _l3_bytes(),
        "seed": seed,
    }
