"""Host-speed calibration: a fixed mix of Python and numpy work, timed next to every op.

The shared host this benchmark was written on changes speed by up to 1.8x
over seconds to minutes, and CPU time slows with wall time, so neither
clock alone repeats.  The calibration is a fixed piece of work that does
not touch eqtraffic: a pure-Python loop, a chain of small-array numpy
calls and a pass over a 2.4 MB array, the three kinds of work the
workloads do.  The run times it between ops and scales each op's wall time
by `REFERENCE_MS` over the calibration time around the op.  A reported
time is therefore what the op would take on a host where the calibration
takes `REFERENCE_MS`; code changes move it, host phases mostly do not.
"""

import time

import numpy as np

# The calibration's time on a 2.1 GHz Xeon vCPU in its fast phase
# (Python 3.11, numpy 2.4).  It only sets the scale of reported times.
REFERENCE_MS = 15.0

_rng = np.random.default_rng(0)
_SMALL_X = _rng.standard_normal((8, 16))
_SMALL_W = _rng.standard_normal((16, 16))
_BIG_X = _rng.standard_normal((200, 96, 16))
_BIG_W = _rng.standard_normal((16, 16))


def _python_loop() -> int:
    total, table = 0, {}
    for k in range(50_000):
        total += k * k
        table[k & 255] = total
    return total


def _small_arrays() -> np.ndarray:
    x = _SMALL_X
    for _ in range(500):
        x = np.tanh(x @ _SMALL_W) + _SMALL_X
        x = x / (1.0 + np.abs(x).sum(axis=-1, keepdims=True))
    return x


def _big_array() -> np.ndarray:
    x = np.einsum("amk,kj->amj", _BIG_X, _BIG_W) * 0.1
    return np.exp(-np.abs(x)) - x.mean(axis=1, keepdims=True)


def measure() -> float:
    """Seconds the fixed calibration work takes now."""
    start = time.perf_counter()
    _python_loop()
    _small_arrays()
    _big_array()
    return time.perf_counter() - start


def scale(seconds: float, cal_before: float, cal_after: float) -> float:
    """`seconds` of wall time, scaled to the reference host speed."""
    return seconds * (REFERENCE_MS * 1e-3) / (0.5 * (cal_before + cal_after))
