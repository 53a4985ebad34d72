"""The environment a result was measured in.

BLAS threading alone can move one product by more than an order of
magnitude, so every result records the core count, the BLAS library
and its thread count (read from the loaded library through ctypes; the
run does not pin it), the numpy and python versions, and which source
was measured: the git commit when the tree is a git checkout, and in
every case a digest of the ``src`` tree.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import platform
import sys

import numpy as np

__all__ = ["environment"]

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> dict:
    info: dict = {"name": None, "version": None, "threads": None, "library": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs_dir = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*blas*.so*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"], info["library"] = int(fn()), lib_path.name
                return info
    return info


def _git_sha(root: pathlib.Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest(src: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: pathlib.Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "git_sha": _git_sha(root),
        "src_digest": _src_digest(root / "src"),
    }
