"""Fixed pieces of work, independent of qmit, timed next to every call.

The shared host this benchmark was written on changes speed by up to 1.7x in
phases of tens of seconds, with no steal time and CPU time equal to wall time.
Wall seconds from two runs therefore cannot be compared directly. Dividing
each call's time by the time of this loop, measured just before and just
after the call, cancels most of that drift. The loop mixes the kinds of work
qmit does: many numpy calls on tiny arrays, plain Python, a dense complex
matrix product and a pass over an array larger than L2.

Calls that each start a fresh interpreter (the cli_cold workload) depend on
process start-up, page faults and loading shared libraries more than on
compute speed. They are divided instead by the time of a fresh interpreter
that imports numpy.
"""
from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# the loop's time on the machine the benchmark was tuned on: set-up time is
# reported in seconds at this speed
REFERENCE_S = 0.050
# the same for ``cold_start_s``
COLD_REFERENCE_S = 0.19

_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_GATE = np.kron(_H, _H).astype(complex).reshape(2, 2, 2, 2)
_SMALL = np.full((2, 2, 2, 2), 0.25, dtype=complex)
_DENSE = np.eye(192, dtype=complex) * (1.0 + 0.5j)
_LARGE = np.ones(2 ** 18, dtype=complex)


def calibration_s() -> float:
    """Wall time of the fixed loop (about 50 ms on the machine it was tuned on)."""
    t0 = perf_counter()
    x = _SMALL
    for _ in range(1000):
        x = np.tensordot(_GATE, x, axes=([2, 3], [1, 2]))
        x = np.ascontiguousarray(np.moveaxis(x, [0, 1], [1, 2]))
    total = 0
    for i in range(100000):
        total += i & 7
    m = _DENSE
    for _ in range(10):
        m = m @ _DENSE
        m /= np.abs(m[0, 0])
    for _ in range(15):
        np.multiply(_LARGE, 1.0 + 0j, out=_LARGE)
    return perf_counter() - t0


def cold_start_s() -> float:
    """Wall time of ``python -c "import numpy"`` in a fresh interpreter (about
    0.19 s on the machine it was tuned on)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True,
                   timeout=60)
    return perf_counter() - t0
