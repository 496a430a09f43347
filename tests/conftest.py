"""Pins the BLAS thread pools to one thread before numpy loads, as `perfbench/bootstrap.py` does:
a product's rounding, and with it the train known-answer digests, then does not depend on the
host's core count."""

import os
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
if "numpy" in sys.modules:
    raise RuntimeError("numpy loaded before tests/conftest.py could pin its BLAS threads")
