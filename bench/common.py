"""Paths, environment pinning and the qgeo import shared by the bench scripts.

This module imports nothing heavy at top level, so a caller can start its
set-up clock before numpy and qgeo are loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Later speed claims must also hold on this seed, which no tuning used.
HOLDOUT_SEED = 7919

#: One client, no threads: BLAS runs single-threaded (<= nproc by design).
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no qgeo sources next to the benchmark."""


def pin_threads() -> None:
    """Pin the BLAS pools before numpy is first imported."""
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def import_qgeo():
    """Import qgeo from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qgeo" / "__init__.py").is_file():
        raise MissingProgram(f"no qgeo sources under {SRC}")
    pin_threads()
    sys.path.insert(0, str(SRC))
    import qgeo

    where = Path(qgeo.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingProgram(f"qgeo was imported from {where}, not from {SRC}")
    return qgeo


def environment(seed: int) -> dict:
    """Versions, BLAS, cores and seeds to record beside every result."""
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }
