"""Environment stamp attached to every benchmark result.

Wall-clock numbers only compare between runs on the same kind of host,
so each result carries the CPU count, the Python and numpy versions,
the BLAS library numpy was built against, the effective BLAS thread
count and the commit of the code under test.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict

import numpy as np

#: Environment variables BLAS libraries read their thread count from,
#: in the order OpenBLAS/MKL/OpenMP consult them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _blas() -> Dict[str, str]:
    """Name and version of the BLAS numpy links, from its build
    config."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": str(blas.get("name", "unknown")),
                "version": str(blas.get("version", "unknown"))}
    except (TypeError, KeyError):
        # numpy older than 1.26 has no dict mode.
        return {"name": "unknown", "version": "unknown"}


def _blas_threads(nproc: int) -> str:
    """The BLAS thread count in effect, and where it came from.

    ``threadpoolctl`` is not available everywhere, so the count is
    read from the environment; with no variable set, OpenBLAS uses one
    thread per CPU.
    """
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value:
            return f"{value} ({var})"
    return f"{nproc} (default: one per CPU)"


def _commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git.

    A source export without ``.git`` reports ``"unknown"``.
    """
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> Dict[str, object]:
    """The stamp for one result."""
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(nproc),
        "machine": platform.machine(),
        "platform": sys.platform,
        "commit": _commit(root),
    }
