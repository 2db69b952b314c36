"""Environment stamp written into every result file (recorded, not gated)."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def commit(root: Path) -> str:
    """Commit of the checkout from ``.git`` files; "unknown" outside git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    value = _read(git / ref)
    if value:
        return value
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cache_sizes() -> dict[str, str]:
    """Unified L2 and L3 sizes of cpu0 as the kernel reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3") and _read(index / "type") == "Unified":
            sizes["L%s" % level] = _read(index / "size")
    return sizes


def blas() -> dict:
    """BLAS library loaded by numpy and its thread count, read through the
    library's own query function when the library exposes one."""
    import numpy  # noqa: F401  (loads the BLAS library into the process)

    libs = sorted({line.split()[-1] for line in _read(Path("/proc/self/maps")).splitlines()
                   if "blas" in line.rsplit("/", 1)[-1].lower()})
    info = {"library": libs[0] if libs else "unknown", "threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info.update(library=path, threads=int(fn()))
                return info
    return info


def src_lines(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def stamp(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "commit": commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "cache": cache_sizes(),
        "src_lines": src_lines(root),
    }
