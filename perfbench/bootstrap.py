"""Process set-up shared by the benchmark's entry points; call `pin()` before numpy loads.

It pins the BLAS thread pools to one thread, so every run is a single
process with no worker threads, and puts the checkout's `src/` first on
`sys.path`, so the benchmark always measures the source next to it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> None:
    """Exit with code 2 when the checkout has no `src/eqtraffic` to measure."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "eqtraffic"
    if not (package / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no eqtraffic sources at {package}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eqtraffic

    if Path(eqtraffic.__file__).resolve().parent != package.resolve():
        sys.stderr.write(f"perfbench: eqtraffic resolved to {eqtraffic.__file__}, not {package}\n")
        raise SystemExit(2)
