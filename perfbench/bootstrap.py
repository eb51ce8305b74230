"""Process set-up shared by the benchmark entry points.

The benchmark runs from the root of a source checkout: it imports `qcorr`
from that checkout's `src/` and nowhere else, so an installed copy can
never stand in for the code under test.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# BLAS/OpenMP pools default to one thread per core (OpenBLAS here reports
# MAX_THREADS=64); the objectives are tiny, so extra threads only add noise.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class CheckoutError(RuntimeError):
    """The directory the benchmark runs from holds no qcorr sources."""


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_qcorr():
    """Import `qcorr` from `<checkout>/src`, refusing any other copy."""
    init = SRC / "qcorr" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"no qcorr sources at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    qcorr = importlib.import_module("qcorr")
    if Path(qcorr.__file__).resolve() != init.resolve():
        raise CheckoutError(
            f"qcorr was imported from {qcorr.__file__}, not from {init}")
    return qcorr
