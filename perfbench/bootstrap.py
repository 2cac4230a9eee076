"""Process set-up shared by the benchmark scripts.

Call :func:`prepare` before numpy is imported: it pins the BLAS/OpenMP
thread count and puts the checkout's ``src`` first on the import path.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: at or below nproc on any machine, and the load
# comes from one single-threaded client.
THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no melsplit sources to benchmark."""


def prepare() -> Path:
    """Pin threads and import path; return the checkout root."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "melsplit" / "__init__.py").is_file():
        raise MissingProgram(f"no melsplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    return ROOT
