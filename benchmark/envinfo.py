"""BLAS thread pools and the environment record of a benchmark run.

numpy and scipy each bundle their own OpenBLAS, so one process holds two
thread pools: numpy's ``libscipy_openblas64_`` and scipy's
``libscipy_openblas``. Both are read back through ctypes, so a run can refuse
to start when either pool disagrees with the workload's thread count.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS before it is read back)

# (pool, package, library glob, symbol suffix)
_POOLS = (
    ("numpy", np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
    ("scipy", scipy, "scipy.libs/libscipy_openblas-*.so", ""),
)


def blas_pools() -> dict:
    """Thread count and ``get_config`` string of each bundled OpenBLAS.

    Raises RuntimeError when a library or its symbols cannot be found.
    """
    pools = {}
    for label, pkg, pattern, suffix in _POOLS:
        site = Path(pkg.__file__).resolve().parent.parent
        libs = sorted(site.glob(pattern))
        if len(libs) != 1:
            raise RuntimeError(f"expected one {pattern} under {site}, found {len(libs)}")
        lib = ctypes.CDLL(str(libs[0]))
        try:
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
        except AttributeError as err:
            raise RuntimeError(f"{libs[0].name}: {err}") from err
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        pools[label] = {
            "library": libs[0].name,
            "threads": int(get_threads()),
            "config": get_config().decode(),
        }
    return pools


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def l3_bytes() -> int:
    """Size of cpu0's L3 cache in bytes, 0 when the system does not say."""
    text = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units and text[:-1].isdigit():
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def floor_label(a_bytes: int, l3: int) -> str:
    """Whether a pass over an a_bytes array measures memory bandwidth.

    It does when the array is at least 4x the last-level cache.
    """
    size = f"A is {a_bytes / 1e6:.0f} MB"
    if not l3:
        return f"mem.pass_a: {size}, L3 size unknown, so not a bandwidth figure"
    if a_bytes >= 4 * l3:
        return f"mem.pass_a is a bandwidth figure: {size}, {a_bytes / l3:.1f}x the {l3 >> 20} MiB L3"
    return (f"mem.pass_a is cache-affected, not a bandwidth figure: {size}, "
            f"under 4x the {l3 >> 20} MiB L3")


def record(pools: dict) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": pools,
    }
