"""BLAS thread pinning and the environment block recorded with every run.

The matrices in latticeqm are at most 257 wide, so BLAS threads only add
scheduling noise; every thread variable is pinned to 1 before numpy is first
imported, and inherited by every child interpreter the benchmark starts.
This module must not import numpy at module level.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads() -> None:
    """Set every BLAS/OpenMP thread variable to 1 before numpy loads.

    Raises RuntimeError if numpy is already imported with a thread variable
    other than 1: its BLAS pool was sized at import and cannot be pinned now.
    """
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if "numpy" in sys.modules and unpinned:
        raise RuntimeError(
            "numpy was imported before BLAS threads were pinned "
            f"({', '.join(unpinned)} not set to 1); import perfbench first"
        )
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    """Interpreter, numpy/BLAS build, thread settings, CPU, commit and seed."""
    import numpy as np

    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})

    def lib(name):
        info = deps.get(name, {})
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(root),
        "seed": seed,
    }
