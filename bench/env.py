"""Process environment for the benchmark; import before numpy or mbsp.

Pins the BLAS thread count and puts this checkout's `src` first on the
import path, so the benchmark always measures the code beside it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The same on every commit.  One and two threads timed the same on n = 30
# solves; one leaves the second core to the rest of the machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def check_source():
    """Exit with an error unless mbsp is importable from this checkout."""
    try:
        import mbsp
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import mbsp from {SRC}: {exc}")
    if not Path(mbsp.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: mbsp imported from {mbsp.__file__}, not from {SRC}")
